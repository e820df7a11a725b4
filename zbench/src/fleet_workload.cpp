// fleet_mixed: the a8 fleet — 15,500 E6 backscatter cells x 64 tags plus
// 200 E1 lounge and 60 E2 IR-array inference cells — on an explicit
// 2-thread pool.  It is the only workload that drives the sim event kernel,
// backscatter, netexec, the fleet wave merge and the par pool.  Template
// build is the program's set-up (setup_s); the fleet seed, which picks every
// deployment's substream, is the input.
#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <string>

#include "fleet/fleet.hpp"
#include "par/thread_pool.hpp"
#include "workloads.hpp"

namespace zbench {
namespace {

using namespace zeiot;
using fleet::DeploymentSpec;
using fleet::TemplateKind;

constexpr std::size_t kFleetThreads = 2;
/// Rows per deployment kind re-run standalone after the repetitions.
constexpr std::size_t kRowChecksPerKind = 8;
/// Every n-th deployment of the traced replay also times its trace digest.
constexpr std::size_t kDigestSampleStride = 64;
constexpr int kDigestRepeats = 16;

fleet::FleetConfig make_config(const Args& args) {
  const std::size_t e6_cells = args.tiny ? 48 : 15500;
  const std::size_t e6_tags = args.tiny ? 8 : 64;
  const std::size_t e1_cells = args.tiny ? 4 : 200;
  const std::size_t e2_cells = args.tiny ? 2 : 60;
  const std::size_t samples = args.tiny ? 1 : 2;

  fleet::FleetConfig cfg;
  cfg.seed = args.seed;
  cfg.deployments.reserve(e6_cells + e1_cells + e2_cells);
  for (std::size_t i = 0; i < e6_cells; ++i) {
    DeploymentSpec spec;
    spec.kind = TemplateKind::BackscatterCellE6;
    spec.cell_id = i;
    spec.devices = e6_tags;
    spec.horizon_s = 1.0;
    spec.wlan_rate_hz = 25.0;
    cfg.deployments.push_back(spec);
  }
  for (const auto& [kind, cells] :
       {std::pair{TemplateKind::LoungeE1, e1_cells},
        std::pair{TemplateKind::IrArrayE2, e2_cells}}) {
    for (std::size_t i = 0; i < cells; ++i) {
      DeploymentSpec spec;
      spec.kind = kind;
      spec.cell_id = i;
      spec.samples = samples;
      cfg.deployments.push_back(spec);
    }
  }
  return cfg;
}

/// The fleet's scalar outputs; equal across repetitions and thread counts.
bool same_aggregates(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  return a.total_devices == b.total_devices &&
         a.inference_count == b.inference_count &&
         a.fleet_accuracy == b.fleet_accuracy &&
         a.fleet_p50_latency_s == b.fleet_p50_latency_s &&
         a.fleet_p99_latency_s == b.fleet_p99_latency_s &&
         a.energy_per_inference_j == b.energy_per_inference_j &&
         a.frames_lost == b.frames_lost &&
         a.e6_frames_generated == b.e6_frames_generated &&
         a.e6_frames_delivered == b.e6_frames_delivered;
}

Result measure(const Args& args) {
  Result r;
  const fleet::FleetConfig cfg = make_config(args);
  std::unique_ptr<fleet::FleetSimulator> sim;
  const double setup_s = median_setup_s([&] {
    sim.reset();
    const double t0 = now_s();
    sim = std::make_unique<fleet::FleetSimulator>(cfg);
    return now_s() - t0;
  });
  par::ThreadPool pool(kFleetThreads);

  std::vector<double> rates;
  fleet::FleetResult first;
  const double budget_end = now_s() + args.seconds;
  for (int rep = 0; rep < kMinReps || now_s() < budget_end; ++rep) {
    announce(cfg.deployments.size());
    const double t0 = now_s();
    fleet::FleetResult res = sim->run(&pool);
    const double wall = now_s() - t0;
    r.attempted += cfg.deployments.size();
    rates.push_back(static_cast<double>(res.total_devices) / wall);
    if (rep == 0) {
      first = std::move(res);
    } else {
      r.check(res.digest == first.digest);
      r.check(same_aggregates(res, first));
    }
  }

  // Sampled rows re-run standalone must reproduce the fleet's row digests.
  par::ThreadPool solo(1);
  std::array<std::vector<std::size_t>, 3> by_kind;
  for (std::size_t i = 0; i < first.kind.size(); ++i) {
    by_kind.at(first.kind[i]).push_back(i);
  }
  for (const auto& rows : by_kind) {
    const std::size_t n = std::min(kRowChecksPerKind, rows.size());
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = rows[k * rows.size() / n];
      const fleet::DeploymentOutcome out =
          sim->run_deployment(cfg.deployments[i], nullptr, &solo);
      r.check(out.digest == first.digest[i]);
    }
  }
  std::cout << "fleet_mixed: " << rates.size() << " repetitions of "
            << cfg.deployments.size() << " deployments, "
            << first.total_devices << " devices, " << first.inference_count
            << " inferences, " << first.e6_frames_generated
            << " tag frames\n";
  std::cout << "devices/s per repetition:";
  for (const double x : rates) std::cout << " " << x;
  std::cout << "\n";

  r.add("setup_s", setup_s, "s");
  r.add("items_per_s", median(rates), "1/s");
  r.add("p99_ms", 1e3 * first.fleet_p99_latency_s, "ms");
  r.add("ok_share", first.e6_delivery_ratio, "share");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

const char* kind_layer(std::uint8_t kind) {
  switch (static_cast<TemplateKind>(kind)) {
    case TemplateKind::LoungeE1: return "fleet.e1";
    case TemplateKind::IrArrayE2: return "fleet.e2";
    case TemplateKind::BackscatterCellE6: return "fleet.e6";
  }
  return "fleet.unknown";
}

/// The traced run.  The fleet is cut into slices of one wave each, and
/// every slice is timed four ways back to back:
///  A  FleetSimulator::run on 2 threads, observability off;
///  B  the same on 2 threads with per-deployment metrics and trace rings
///     merged into one context, the program's own tracing: B/A is
///     trace.overhead;
///  C  the same on 1 thread: the wall time the layer table splits;
///  D  every deployment re-run standalone through run_deployment on
///     1 thread, timed per call and grouped by kind.  C minus the sum of D
///     is the fleet's own wave, slot and merge work.
/// Timing the four passes slice by slice, in alternating order, cancels
/// drift in host speed that would otherwise swamp a difference of a few
/// percent.  Deployments are independent of the fleet around them, so the
/// slices' rows are the whole fleet's.  C's rows must equal B's, D's
/// digests C's, and A's aggregates B's.
Result trace(const Args& args) {
  Result r;
  SpanLog log;
  const std::uint32_t root = log.begin(args.workload);
  const fleet::FleetConfig cfg = make_config(args);
  par::ThreadPool pool2(kFleetThreads);
  par::ThreadPool pool1(1);
  obs::Observability obs_b;
  obs::Observability obs_c;

  std::array<double, 3> busy{}, cells{};
  double wall_a = 0.0, wall_b = 0.0, wall_c = 0.0;
  double digest_busy = 0.0, digest_calls = 0.0;
  // The fleet's own slot-order fold of the simulated aggregates.
  double inferences = 0.0, weighted_accuracy = 0.0, energy_j = 0.0;
  std::uint64_t frames_generated = 0;

  const std::size_t n = cfg.deployments.size();
  for (std::size_t begin = 0, slice = 0; begin < n;
       begin += cfg.wave_size, ++slice) {
    const std::size_t end = std::min(n, begin + cfg.wave_size);
    fleet::FleetConfig part = cfg;
    part.deployments.assign(cfg.deployments.begin() + begin,
                            cfg.deployments.begin() + end);
    const std::uint32_t sp = log.begin("slice", root);
    fleet::FleetSimulator plain(part);
    part.obs = &obs_b;
    fleet::FleetSimulator sim_b(part);
    part.obs = &obs_c;
    fleet::FleetSimulator sim_c(part);

    fleet::FleetResult res_a, res_b, res_c;
    std::vector<std::uint64_t> replay_digests;
    const auto timed_run = [&](fleet::FleetSimulator& sim,
                               par::ThreadPool& pool, const char* span,
                               fleet::FleetResult& res, double& wall) {
      announce(part.deployments.size());
      const std::uint32_t id = log.begin(span, sp);
      const double t0 = now_s();
      res = sim.run(&pool);
      wall += now_s() - t0;
      log.end(id);
      r.attempted += part.deployments.size();
    };
    const auto replay = [&] {
      const std::uint32_t id = log.begin("replay", sp);
      for (std::size_t i = 0; i < part.deployments.size(); ++i) {
        obs::Observability dep_obs(cfg.trace_capacity);
        const double t0 = now_s();
        const fleet::DeploymentOutcome out =
            sim_c.run_deployment(part.deployments[i], &dep_obs, &pool1);
        const double t1 = now_s();
        const auto kind = static_cast<std::uint8_t>(out.kind);
        log.add(kind_layer(kind), t0, t1, id);
        busy.at(kind) += t1 - t0;
        cells.at(kind) += 1.0;
        if (out.kind == TemplateKind::BackscatterCellE6) {
          frames_generated += out.work_items;
        } else {
          const auto items = static_cast<double>(out.work_items);
          inferences += items;
          weighted_accuracy += out.accuracy * items;
          energy_j += out.energy_per_item_j * items;
        }
        replay_digests.push_back(out.digest);
        if ((begin + i) % kDigestSampleStride == 0) {
          const double d0 = now_s();
          bool same = true;
          for (int k = 0; k < kDigestRepeats; ++k) {
            same = same && dep_obs.trace().digest() == out.trace_digest;
          }
          const double d1 = now_s();
          log.add("obs.trace_digest", d0, d1, id);
          digest_busy += d1 - d0;
          digest_calls += kDigestRepeats;
          r.check(same);
        }
      }
      log.end(id);
    };
    if (slice % 2 == 0) {
      timed_run(plain, pool2, "fleet.run.2t", res_a, wall_a);
      timed_run(sim_b, pool2, "fleet.run.2t.obs", res_b, wall_b);
      timed_run(sim_c, pool1, "fleet.run.1t.obs", res_c, wall_c);
      replay();
    } else {
      replay();
      timed_run(sim_c, pool1, "fleet.run.1t.obs", res_c, wall_c);
      timed_run(sim_b, pool2, "fleet.run.2t.obs", res_b, wall_b);
      timed_run(plain, pool2, "fleet.run.2t", res_a, wall_a);
    }
    r.check(same_aggregates(res_a, res_b));
    r.check(res_c.digest == res_b.digest);
    for (std::size_t i = 0; i < replay_digests.size(); ++i) {
      r.check(replay_digests[i] == res_c.digest.at(i));
    }
    log.end(sp);
  }
  log.end(root);

  const double deploy_busy = busy[0] + busy[1] + busy[2];
  const double merge_self = wall_c - deploy_busy;
  std::vector<LayerRow> rows;
  for (const std::uint8_t k : {2, 0, 1}) {
    rows.push_back({kind_layer(k), cells[k], busy[k], "items_per_s"});
  }
  rows.push_back({"fleet.merge.self", 1.0, merge_self, "items_per_s"});
  print_layer_table(args.workload, wall_c, rows);

  const auto& m = obs_c.metrics();
  const double events = m.counter_value("sim.events.executed");
  // The fleet runs inference cells through NetworkExecutor::evaluate, which
  // publishes logical frames and abandoned frames but no per-hop attempts.
  const double messages = m.counter_value("netexec.eval.messages");
  const double lost = m.counter_value("netexec.eval.frames_lost");
  r.add("fleet.e1.busy_s", busy[0], "s");
  r.add("fleet.e2.busy_s", busy[1], "s");
  r.add("fleet.e6.busy_s", busy[2], "s");
  r.add("fleet.merge.self_s", merge_self, "s");
  r.add("fleet.accuracy",
        inferences > 0.0 ? weighted_accuracy / inferences : 0.0, "ratio");
  r.add("fleet.energy_mj_per_inference",
        inferences > 0.0 ? 1e3 * energy_j / inferences : 0.0, "mJ");
  r.add("sim.events", events, "count");
  r.add("sim.ns_per_event", events > 0.0 ? 1e9 * busy[2] / events : 0.0, "ns");
  r.add("backscatter.frames.generated", static_cast<double>(frames_generated),
        "count");
  r.add("netexec.inferences", inferences, "count");
  r.add("netexec.ms_per_inference",
        inferences > 0.0 ? 1e3 * (busy[0] + busy[1]) / inferences : 0.0,
        "ms");
  r.add("netexec.eval.messages", messages, "count");
  r.add("netexec.eval.frames_lost", lost, "count");
  r.add("netexec.delivery_ratio",
        messages > 0.0 ? (messages - lost) / messages : 0.0, "ratio");
  r.add("obs.trace_digest_us",
        digest_calls > 0.0 ? 1e6 * digest_busy / digest_calls : 0.0, "us");
  r.add("par.efficiency",
        deploy_busy / (wall_b * static_cast<double>(kFleetThreads)), "ratio");
  r.add("trace.wall_s", wall_c, "s");
  r.add("trace.overhead", wall_b / wall_a, "ratio");
  std::cout << "passes: A 2t untraced " << wall_a << " s, B 2t traced "
            << wall_b << " s, C 1t traced " << wall_c << " s, D replay sum "
            << deploy_busy << " s\n";
  write_spans(args, log);
  return r;
}

}  // namespace

Result run_fleet(const Args& args) {
  if (!args.trace) return measure(args);
  Result r = trace(args);
  complete_per_layer(r);
  return r;
}

}  // namespace zbench
