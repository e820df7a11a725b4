// serve_mix and serve_plan_churn: two uses of one serve engine.
//
//  * serve_mix — the production-shaped query load: the a9 open-loop
//    diurnal x burst stream (400k requests at a mean of 120k/s, default
//    route mix).  kNN (E5) and the E3 naive-Bayes estimator do most of the
//    work and the plan cache almost always hits.
//  * serve_plan_churn — 6 topology variants per CNN route (12 deployments
//    for the 8 plan-cache slots) under a CNN-heavy mix at 50 req/s, low
//    enough that nothing is shed.  Cache misses run the real assignment
//    search, so this workload exposes the plan cache, search_assignment and
//    small-batch CNN forwards, which serve_mix hides.
//
// Both run on an explicit 1-thread pool.  The route set is the program's
// set-up (its build time is setup_s); the arrival stream is the input and
// comes from the seed.
#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <random>
#include <string>

#include "common/stats.hpp"
#include "microdeep/search.hpp"
#include "par/thread_pool.hpp"
#include "serve/serve.hpp"
#include "serve/workload.hpp"
#include "workloads.hpp"

namespace zbench {
namespace {

using namespace zeiot;

/// Served responses per route re-executed one at a time after each
/// repetition, to check batched labels against single-item ones.
constexpr std::size_t kLabelChecksPerRoute = 16;

struct ServeShape {
  serve::RouteSetConfig routes;
  serve::WorkloadConfig load;
  serve::ServeConfig server;
};

ServeShape make_shape(const Args& args, par::ThreadPool* pool) {
  ServeShape s;
  if (args.tiny) {
    s.routes.e3_train_trips_per_level = 6;
    s.routes.e3_scenarios = 12;
    s.routes.e4_train_rounds_per_count = 6;
    s.routes.e4_measurements = 24;
  }
  if (args.workload == "serve_plan_churn") {
    s.routes.e1_variants = 6;
    s.routes.e2_variants = 6;
    s.load.num_requests = args.tiny ? 200 : 8000;
    // A steady Poisson stream: the churn comes from the deployments, not
    // from arrival bursts.  At this rate the virtual queue behind a
    // plan-build miss stays short, so the p99 differs little across seeds.
    s.load.mean_rate_per_s = 50.0;
    s.load.diurnal_amplitude = 0.0;
    s.load.burst_prob = 0.0;
    s.load.route_mix = {0.40, 0.40, 0.05, 0.10, 0.05};
  } else {
    s.load.num_requests = args.tiny ? 4000 : 400000;
  }
  s.load.seed = args.seed;
  s.routes.pool = pool;
  s.server.search.pool = pool;
  return s;
}

/// Nearest-rank p99 of the virtual latency over every served request.
double p99_ms(const serve::ServeReport& rep) {
  std::vector<double> lat;
  lat.reserve(rep.served);
  for (const serve::Response& r : rep.responses) {
    if (r.outcome == serve::Outcome::Served) lat.push_back(r.latency_s);
  }
  return 1e3 * nearest_rank_quantile(std::move(lat), 0.99);
}

/// Requests served within their route's SLO over requests offered; shed
/// and rejected requests count as misses.
double slo_ok_share(const serve::ServeReport& rep,
                    const serve::ServeConfig& cfg) {
  std::uint64_t ok = 0;
  for (const serve::Response& r : rep.responses) {
    if (r.outcome == serve::Outcome::Served &&
        r.latency_s <= cfg.routes[static_cast<std::size_t>(r.route)].slo_s) {
      ++ok;
    }
  }
  return rep.offered > 0
             ? static_cast<double>(ok) / static_cast<double>(rep.offered)
             : 0.0;
}

/// Output checks on one report: conservation, digest identity with the
/// first repetition, and sampled served labels equal to single-item
/// RouteSet::execute calls.
void check_report(const serve::ServeReport& rep,
                  const std::vector<serve::Request>& arrivals,
                  std::uint64_t want_digest, serve::RouteSet& routes,
                  std::mt19937_64& rng, Result& r) {
  r.check(rep.offered == arrivals.size() &&
          rep.served + rep.shed + rep.rejected == rep.offered);
  r.check(rep.digest() == want_digest);
  std::array<std::vector<std::size_t>, serve::kNumRoutes> served;
  for (std::size_t i = 0; i < rep.responses.size(); ++i) {
    const serve::Response& resp = rep.responses[i];
    if (resp.outcome == serve::Outcome::Served) {
      served[static_cast<std::size_t>(resp.route)].push_back(i);
    }
  }
  for (std::size_t ri = 0; ri < serve::kNumRoutes; ++ri) {
    const auto& ids = served[ri];
    for (std::size_t k = 0; k < std::min(kLabelChecksPerRoute, ids.size());
         ++k) {
      const std::size_t id = ids[rng() % ids.size()];
      const auto labels = routes.execute(static_cast<serve::Route>(ri),
                                         {arrivals[id].sample});
      r.check(labels.size() == 1 && labels[0] == rep.responses[id].label);
    }
  }
}

Result measure(const Args& args) {
  Result r;
  par::ThreadPool pool(1);
  const ServeShape shape = make_shape(args, &pool);
  std::unique_ptr<serve::RouteSet> routes;
  const double setup_s = median_setup_s([&] {
    routes.reset();
    const double t0 = now_s();
    routes = serve::make_routes(shape.routes);
    return now_s() - t0;
  });
  const auto arrivals = serve::generate_workload(shape.load, *routes);

  serve::Server server(routes.get(), shape.server);
  std::mt19937_64 rng(args.seed);
  std::vector<double> rates;
  serve::ServeReport first;
  const double budget_end = now_s() + args.seconds;
  for (int rep = 0; rep < kMinReps || now_s() < budget_end; ++rep) {
    announce(arrivals.size());
    const double t0 = now_s();
    serve::ServeReport report = server.run(arrivals);
    const double wall = now_s() - t0;
    r.attempted += report.offered;
    rates.push_back(static_cast<double>(report.offered) / wall);
    if (rep == 0) first = std::move(report);
    check_report(rep == 0 ? first : report, arrivals, first.digest(), *routes,
                 rng, r);
  }
  std::cout << args.workload << ": " << rates.size() << " repetitions, "
            << first.served << " served / " << first.shed << " shed / "
            << first.rejected << " rejected of " << first.offered
            << "; plan cache " << first.plan_hits << " hits, "
            << first.plan_misses << " misses\n";
  std::cout << "requests/s per repetition:";
  for (const double x : rates) std::cout << " " << x;
  std::cout << "\n";

  r.add("setup_s", setup_s, "s");
  r.add("items_per_s", median(rates), "1/s");
  r.add("p99_ms", p99_ms(first), "ms");
  r.add("ok_share", slo_ok_share(first, shape.server), "share");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

struct ReplayBatch {
  serve::Route route = serve::Route::E4RoomCount;
  std::uint32_t variant = 0;
  bool plan_hit = false;
  std::vector<std::uint32_t> samples;
  std::vector<int> labels;  // as served
};

/// Rebuilds the served batches from a report: responses sharing a
/// batch_seq formed one batch, in id (queue) order.
std::vector<ReplayBatch> served_batches(
    const serve::ServeReport& rep,
    const std::vector<serve::Request>& arrivals) {
  std::vector<ReplayBatch> batches(rep.batches);
  for (const serve::Response& resp : rep.responses) {
    if (resp.outcome != serve::Outcome::Served) continue;
    ReplayBatch& b = batches.at(resp.batch_seq);
    if (b.samples.empty()) {
      b.route = resp.route;
      b.variant = arrivals[resp.id].variant;
      b.plan_hit = resp.plan_hit;
    }
    b.samples.push_back(arrivals[resp.id].sample);
    b.labels.push_back(resp.label);
  }
  return batches;
}

/// The traced run.  Server::run is timed with tracing off; its batches and
/// plan-cache misses are then replayed through RouteSet::execute and
/// search_assignment, timed per call, which splits that wall time into
/// route compute, assignment search and the engine's own admission,
/// queueing and batching work (the remainder).  The untraced wall time is
/// the mean of one run before the replay and one after it, so a steady
/// drift in host speed across the traced run cancels.  A last Server::run with the
/// program's own metrics and spans switched on gives trace.overhead.
Result trace(const Args& args) {
  Result r;
  SpanLog log;
  const std::uint32_t root = log.begin(args.workload);
  par::ThreadPool pool(1);
  const ServeShape shape = make_shape(args, &pool);

  const std::uint32_t sp = log.begin("setup.make_routes", root);
  const std::unique_ptr<serve::RouteSet> routes =
      serve::make_routes(shape.routes);
  log.end(sp);
  const auto arrivals = serve::generate_workload(shape.load, *routes);

  struct Timed {
    serve::ServeReport rep;
    double wall_s = 0.0;
  };
  const auto timed_run = [&](const serve::ServeConfig& cfg, const char* span) {
    serve::Server server(routes.get(), cfg);
    announce(arrivals.size());
    const std::uint32_t id = log.begin(span, root);
    const double start = now_s();
    Timed out{server.run(arrivals), 0.0};
    out.wall_s = now_s() - start;
    log.end(id);
    r.attempted += out.rep.offered;
    return out;
  };

  const Timed before = timed_run(shape.server, "serve.run");
  const serve::ServeReport& rep = before.rep;
  r.check(rep.served + rep.shed + rep.rejected == rep.offered);

  std::array<double, serve::kNumRoutes> busy{}, items{}, batches{};
  double search_busy = 0.0;
  double search_calls = 0.0;
  const std::uint32_t replay = log.begin("replay", root);
  for (const ReplayBatch& b : served_batches(rep, arrivals)) {
    if (b.samples.empty()) {  // a batch_seq no served response names
      r.check(false);
      continue;
    }
    if (routes->uses_plans(b.route) && !b.plan_hit) {
      const serve::CnnRoute& c = routes->cnn(b.route);
      const double t0 = now_s();
      microdeep::search_assignment(c.graph, c.variants.at(b.variant),
                                   shape.server.search, nullptr);
      const double t1 = now_s();
      log.add("microdeep.search", t0, t1, replay);
      search_busy += t1 - t0;
      search_calls += 1.0;
    }
    const auto ri = static_cast<std::size_t>(b.route);
    const double t0 = now_s();
    const std::vector<int> labels = routes->execute(b.route, b.samples);
    const double t1 = now_s();
    log.add(std::string("route.") + serve::route_name(b.route), t0, t1,
            replay);
    busy[ri] += t1 - t0;
    items[ri] += static_cast<double>(b.samples.size());
    batches[ri] += 1.0;
    r.check(labels == b.labels);
  }
  log.end(replay);
  const Timed after = timed_run(shape.server, "serve.run");
  r.check(after.rep.digest() == rep.digest());
  const double wall = 0.5 * (before.wall_s + after.wall_s);

  obs::Observability obs(4096, 3 * arrivals.size() + 64);
  serve::ServeConfig traced_cfg = shape.server;
  traced_cfg.obs = &obs;
  const Timed traced = timed_run(traced_cfg, "serve.run.obs");
  r.check(traced.rep.digest() == rep.digest());
  log.end(root);

  double route_busy = 0.0;
  std::vector<LayerRow> rows;
  for (std::size_t ri = 0; ri < serve::kNumRoutes; ++ri) {
    const std::string name =
        std::string("route.") + serve::route_name(static_cast<serve::Route>(ri));
    r.add(name + ".busy_s", busy[ri], "s");
    r.add(name + ".items", items[ri], "count");
    r.add(name + ".batches", batches[ri], "count");
    rows.push_back({name, items[ri], busy[ri], "items_per_s"});
    route_busy += busy[ri];
  }
  const double self_s = wall - route_busy - search_busy;
  rows.push_back({"microdeep.search", search_calls, search_busy,
                  "items_per_s (serve_plan_churn)"});
  rows.push_back({"serve.engine.self", static_cast<double>(rep.batches),
                  self_s, "items_per_s"});
  print_layer_table(args.workload, wall, rows);

  const double lookups = static_cast<double>(rep.plan_hits + rep.plan_misses);
  r.add("serve.engine.self_s", self_s, "s");
  r.add("plan_cache.lookups", lookups, "count");
  r.add("plan_cache.hit_ratio",
        lookups > 0.0 ? static_cast<double>(rep.plan_hits) / lookups : 0.0,
        "ratio");
  r.add("plan_cache.evictions", static_cast<double>(rep.plan_evictions),
        "count");
  r.add("microdeep.search.busy_s", search_busy, "s");
  r.add("microdeep.search.calls", search_calls, "count");
  r.add("trace.wall_s", wall, "s");
  r.add("trace.overhead", traced.wall_s / wall, "ratio");
  std::cout << "Server::run " << before.wall_s << " s before the replay, "
            << after.wall_s << " s after, " << traced.wall_s
            << " s with the program's metrics and spans on\n";
  write_spans(args, log);
  return r;
}

}  // namespace

Result run_serve(const Args& args) {
  if (!args.trace) return measure(args);
  Result r = trace(args);
  complete_per_layer(r);
  return r;
}

}  // namespace zbench
