// common/digest.hpp — the one FNV-1a-64 every zeiot digest is built on.
// Checks the published FNV-1a-64 vectors, then pins the digest of one
// fixed input per subsystem so a change to any encoding shows up here.
// The pinned values were produced by the per-subsystem hashers this header
// replaced, so they also prove the fold kept every digest bit-identical.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "microdeep/comm_cost.hpp"
#include "microdeep/search.hpp"
#include "microdeep/wsn.hpp"
#include "netexec/checkpoint.hpp"
#include "obs/span.hpp"
#include "par/thread_pool.hpp"
#include "serve/serve.hpp"

using namespace zeiot;

namespace {

std::uint64_t fnv_of(const std::string& s) {
  return Fnv1a64().bytes(s.data(), s.size()).value();
}

// The retired flat trace hashed each point event as (t, type ordinal, a,
// b, value).  Point events now live in SpanRecorder as zero-duration
// roots whose kinds start at EventScheduled; projecting them back onto
// that encoding reproduces the old digests exactly, which proves the
// records map 1:1.
std::uint64_t v1_trace_digest(const obs::SpanRecorder& trace) {
  const auto first = static_cast<std::uint64_t>(obs::SpanKind::EventScheduled);
  Fnv1a64 h;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const obs::SpanEvent& e = trace.at(i);
    EXPECT_EQ(e.t0, e.t1);
    EXPECT_EQ(e.parent, 0u);
    EXPECT_GE(static_cast<std::uint64_t>(e.kind), first);
    h.bits(e.t0)
        .word(static_cast<std::uint64_t>(e.kind) - first)
        .word(e.a)
        .word(e.b)
        .bits(e.value);
  }
  return h.value();
}

void mix_map(Fnv1a64& h, const microdeep::Assignment& a) {
  h.word(a.num_units());
  for (const microdeep::NodeId n : a.unit_map()) h.word(n);
}

void mix_costs(Fnv1a64& h, const microdeep::CommCostReport& r) {
  for (const double c : r.per_node) h.bits(c);
}

// Everything the planner decides for one deployment: the heuristic's maps
// at every slack, per-node costs (aggregated and all-unicast), and, under
// both the serve search and the default search, the winner plus every
// candidate score — aborted and over-budget ones included, since the abort
// points decide which scores get recorded.
void mix_deployment(Fnv1a64& h, const microdeep::UnitGraph& g,
                    const microdeep::WsnTopology& wsn, par::ThreadPool* pool) {
  using namespace microdeep;
  for (int slack = 0; slack <= 3; ++slack) {
    const Assignment a = assign_balanced_heuristic(g, wsn, slack);
    mix_map(h, a);
    mix_costs(h, compute_comm_cost(a, wsn));
  }
  CommCostOptions unicast;
  unicast.aggregate_dense = false;
  mix_costs(h, compute_comm_cost(assign_nearest(g, wsn), wsn, unicast));
  for (AssignmentSearchOptions opts :
       {serve::ServeConfig::make_default_search(), AssignmentSearchOptions{}}) {
    opts.pool = pool;
    const AssignmentSearchResult res = search_assignment(g, wsn, opts);
    mix_map(h, res.best);
    h.bits(res.best_max_cost).bits(res.best_mean_cost).word(res.best_index);
    h.word(res.candidates.size());
    for (const AssignmentCandidateScore& c : res.candidates) {
      h.bytes(c.label.data(), c.label.size());
      h.bits(c.max_cost).bits(c.mean_cost);
      h.word(c.aborted).word(c.over_budget);
      h.word(c.peak_memory_bytes).word(c.peak_nvm_bytes);
    }
    mix_costs(h, compute_comm_cost(res.best, wsn, opts.cost_options));
  }
}

// The deployments that reach the planner: the twelve serve_plan_churn
// topology variants (six per CNN route) and the bench_a1/e1 topologies
// (lounge jittered grids at seeds 2 and 6, the 10x10 IR-array grid).
std::uint64_t search_identity_digest(par::ThreadPool* pool) {
  static const std::unique_ptr<serve::RouteSet> routes = [] {
    serve::RouteSetConfig cfg;
    cfg.e1_variants = 6;
    cfg.e2_variants = 6;
    // Only the CNN deployments are hashed; keep the other routes small.
    cfg.e3_train_trips_per_level = 6;
    cfg.e3_scenarios = 4;
    cfg.e4_train_rounds_per_count = 6;
    cfg.e4_measurements = 8;
    return serve::make_routes(cfg);
  }();
  using microdeep::WsnTopology;
  Fnv1a64 h;
  for (const serve::CnnRoute* route : {&routes->e1, &routes->e2}) {
    for (const WsnTopology& wsn : route->variants) {
      mix_deployment(h, route->graph, wsn, pool);
    }
  }
  const Rect lounge{0.0, 0.0, 50.0, 34.0};
  for (const std::uint64_t seed : {2u, 6u}) {
    Rng rng(seed);
    mix_deployment(h, routes->e1.graph,
                   WsnTopology::jittered_grid(lounge, 10, 5, rng), pool);
  }
  mix_deployment(h, routes->e2.graph,
                 WsnTopology::grid({0.0, 0.0, 5.0, 5.0}, 10, 10), pool);
  return h.value();
}

// Every sample tensor and label of a template's shared dataset.
std::uint64_t dataset_digest(const ml::Dataset& ds) {
  Fnv1a64 h;
  h.word(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const ml::Tensor& x = ds.x(i);
    h.word(x.size()).bytes(x.data(), x.size() * sizeof(float));
    h.word(static_cast<std::uint64_t>(ds.label(i)));
  }
  return h.value();
}

// Three inference cells run standalone with spans on: a lounge, an IR
// array, and a checkpointed lounge under brownouts (revival and durable
// queue scheduling).  Their digests depend on how netexec's same-instant
// radio re-polls are arbitrated, so they pin the event kernel's exact
// (time, seq) order.
std::uint64_t fleet_inference_digest(par::ThreadPool* pool) {
  fleet::DeploymentSpec lounge;
  lounge.kind = fleet::TemplateKind::LoungeE1;
  lounge.cell_id = 4;
  lounge.samples = 3;
  fleet::DeploymentSpec ir;
  ir.kind = fleet::TemplateKind::IrArrayE2;
  ir.cell_id = 9;
  ir.samples = 3;
  fleet::DeploymentSpec brownout = lounge;
  brownout.cell_id = 1;
  brownout.samples = 2;
  fault::FaultSpec f;
  f.horizon_s = 0.02;  // inside the few-ms inference rounds
  f.num_targets = 50;  // the lounge WSN's node count
  f.brownout_rate = 3.0;
  f.brownout_s = 0.05;
  f.seed = 91;
  EXPECT_GT(fault::generate_plan(f).count(fault::FaultType::Brownout), 0u);
  brownout.fault = f;
  brownout.checkpoint = netexec::CheckpointPolicy::EveryUnit;

  fleet::FleetConfig cfg;
  cfg.seed = 11;
  cfg.deployments = {lounge, ir, brownout};
  fleet::FleetSimulator sim(cfg);
  Fnv1a64 h;
  for (const fleet::DeploymentSpec& spec : sim.config().deployments) {
    obs::Observability dep_obs(1 << 14);
    dep_obs.enable_spans(1 << 14);
    const fleet::DeploymentOutcome out = sim.run_deployment(spec, &dep_obs, pool);
    EXPECT_EQ(dep_obs.trace().dropped(), 0u);
    EXPECT_EQ(dep_obs.spans().dropped(), 0u);
    EXPECT_GT(dep_obs.spans().size(), 0u);
    h.word(out.digest).word(dep_obs.trace().digest()).word(
        dep_obs.spans().digest());
  }
  return h.value();
}

}  // namespace

TEST(Fnv1a64, MatchesPublishedVectors) {
  EXPECT_EQ(fnv_of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv_of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv_of("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, WordsMixLowByteFirst) {
  const std::uint8_t le[8] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef};
  EXPECT_EQ(Fnv1a64().word(0xefcdab8967452301ULL).value(),
            Fnv1a64().bytes(le, sizeof(le)).value());
  const double d = -2.5;
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  EXPECT_EQ(Fnv1a64().bits(d).value(), Fnv1a64().word(u).value());
}

TEST(PinnedDigest, FaultPlan) {
  const fault::FaultPlan plan({
      {0.25, fault::FaultType::NodeDeath, 3, 0.0, 1.0},
      {0.5, fault::FaultType::MessageDrop, 1, 0.2, 0.8},
      {1.0, fault::FaultType::NodeRevival, 3, 0.0, 1.0},
  });
  EXPECT_EQ(plan.digest(), 0xa5cf104b05b22a92ULL);
}

TEST(PinnedDigest, WsnTopologyGrid) {
  const auto topo = microdeep::WsnTopology::grid({0.0, 0.0, 4.0, 3.0}, 4, 3);
  EXPECT_EQ(topo.digest(), 0x934b533e16781759ULL);
}

TEST(PinnedDigest, PointTrace) {
  obs::SpanRecorder trace(16);
  trace.record(0.5, obs::SpanKind::EventScheduled, 1, 2, 3.5);
  trace.record(1.25, obs::SpanKind::EventFired, 4, 5, -1.0);
  EXPECT_EQ(v1_trace_digest(trace), 0x49e88485aff346b3ULL);
  EXPECT_EQ(trace.digest(), 0x345205ae6ed0712aULL);
}

TEST(PinnedDigest, SpanRecorder) {
  obs::SpanRecorder spans(16);
  const obs::SpanId root =
      spans.add(obs::SpanKind::Inference, 0.0, 2.0, 0, 7, 1, 2, 0.125);
  spans.add(obs::SpanKind::NodeCompute, 0.5, 1.5, root, 7, 3, 4, 0.0625);
  EXPECT_EQ(spans.digest(), 0x74d91aca7c757a49ULL);
}

TEST(PinnedDigest, ServeReport) {
  serve::ServeReport report;
  serve::Response served;
  served.id = 1;
  served.route = serve::Route::E2Fall;
  served.outcome = serve::Outcome::Served;
  served.label = 1;
  served.latency_s = 0.015;
  served.batch_seq = 2;
  served.plan_hit = true;
  serve::Response shed;
  shed.id = 2;
  shed.route = serve::Route::E5Csi;
  shed.outcome = serve::Outcome::Shed;
  report.responses = {served, shed};
  EXPECT_EQ(report.digest(), 0xf974d9ebf0ab7188ULL);
}

TEST(PinnedDigest, FleetDeploymentOutcome) {
  fleet::DeploymentSpec spec;
  spec.kind = fleet::TemplateKind::BackscatterCellE6;
  spec.cell_id = 3;
  spec.devices = 4;
  spec.horizon_s = 0.5;
  spec.wlan_rate_hz = 40.0;
  fleet::FleetConfig cfg;
  cfg.seed = 11;
  cfg.deployments = {spec};
  fleet::FleetSimulator sim(cfg);
  obs::Observability dep_obs(512);
  const fleet::DeploymentOutcome out = sim.run_deployment(spec, &dep_obs);
  ASSERT_EQ(dep_obs.trace().size(), 116u);
  ASSERT_EQ(dep_obs.trace().dropped(), 0u);
  EXPECT_EQ(v1_trace_digest(dep_obs.trace()), 0x05a024bce9a2479fULL);
  EXPECT_EQ(out.digest, 0xbdff347ea2fd6642ULL);
}

// Pinned before the event kernel's queue and callbacks were replaced: the
// kernel must keep the exact (time, seq) order and seq numbering, so no
// netexec outcome, trace or span may move.
TEST(PinnedDigest, FleetInferenceOutcome) {
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  EXPECT_EQ(fleet_inference_digest(&one), 0x531b0d969338198eULL);
  EXPECT_EQ(fleet_inference_digest(&four), 0x531b0d969338198eULL);
}

// Pinned before the datagen hot loops moved to flat row-major indexing.
TEST(PinnedDigest, TemplateDatasets) {
  EXPECT_EQ(dataset_digest(fleet::make_lounge_template()->data),
            0xe3fb405468a8c6f4ULL);
  EXPECT_EQ(dataset_digest(fleet::make_ir_array_template()->data),
            0x37dcd6841d5aab65ULL);
}

TEST(PinnedDigest, CheckpointTrailer) {
  netexec::NodeCheckpointState state;
  state.node = 5;
  state.plans_done = 2;
  state.entries = {{1, {0.5f, -1.0f}}, {4, {2.25f}}};
  const std::vector<std::uint8_t> image = netexec::encode_checkpoint(state);
  ASSERT_GE(image.size(), 8u);
  std::uint64_t trailer;
  std::memcpy(&trailer, image.data() + image.size() - 8, sizeof(trailer));
  EXPECT_EQ(trailer, 0x42d67604ae99c032ULL);
}

// Pinned before the routing rows, the pinned input nodes and the comm-cost
// layer cursor were optimised: none of them may move a planning decision.
TEST(PinnedDigest, SearchAssignment) {
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  EXPECT_EQ(search_identity_digest(&one), 0x48215d1b3a17f80fULL);
  EXPECT_EQ(search_identity_digest(&four), 0x48215d1b3a17f80fULL);
}
