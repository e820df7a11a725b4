// Golden-trace regression: a fixed-seed end-to-end scenario (backscatter
// coexistence under fault injection + a distributed MicroDeep inference)
// exports its event trace (zero-duration spans) as JSONL and must match
// the checked-in snapshot byte for byte.  Any behavioral drift — event
// reordering, RNG stream changes, altered fault schedules — shows up as a
// first-divergence diff.  A second scenario pins the causal span tree of
// network-in-the-loop inference the same way.
//
// To regenerate after an *intentional* behavior change:
//   ZEIOT_UPDATE_GOLDEN=1 ./build/tests/test_golden_trace
// then commit the updated tests/golden/*.jsonl with the change.  CI fails
// any run that leaves tests/golden modified, so a leaked
// ZEIOT_UPDATE_GOLDEN cannot turn the suite green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backscatter/coexistence.hpp"
#include "common/digest.hpp"
#include "fault/injector.hpp"
#include "microdeep/executor.hpp"
#include "netexec/netexec.hpp"
#include "obs/json.hpp"

namespace zeiot {
namespace {

constexpr const char* kGoldenPath = ZEIOT_GOLDEN_DIR "/e2e_trace.jsonl";
constexpr const char* kGoldenSpansPath = ZEIOT_GOLDEN_DIR "/e2e_spans.jsonl";

// The scenario is deliberately small (a few thousand events) so the golden
// file stays reviewable, but crosses every traced subsystem: sim kernel,
// backscatter MAC, WLAN, fault injection, and MicroDeep hops.
void run_scenario(obs::Observability& obs) {
  // Phase 1: coexistence under chaos.
  backscatter::CoexistenceConfig cfg;
  cfg.mode = backscatter::MacMode::Proposed;
  cfg.duration_s = 8.0;
  cfg.wlan_rate_hz = 20.0;
  cfg.num_devices = 4;
  cfg.device_period_s = 1.0;
  cfg.seed = 21;

  fault::FaultSpec spec;
  spec.horizon_s = 8.0;
  spec.num_targets = 4;
  spec.intensity = 1.0;
  spec.node_death_rate = 2.0;
  spec.mean_downtime_s = 3.0;
  spec.drop_rate = 2.0;
  spec.drop_window_s = 2.0;
  spec.drop_probability = 0.5;
  spec.seed = 99;
  fault::FaultInjector inj(fault::generate_plan(spec));
  inj.set_observability(&obs);

  backscatter::CoexistenceSimulator sim(cfg);
  sim.set_observability(&obs);
  sim.set_fault_injector(&inj);
  (void)sim.run();

  // Phase 2: one distributed inference over a planned grid.
  Rng rng(5);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 4 * 4, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);

  const Rect area{0.0, 0.0, 10.0, 10.0};
  const auto wsn = microdeep::WsnTopology::grid(area, 4, 4);
  const auto graph = microdeep::UnitGraph::build(net, {1, 8, 8});
  const auto assignment = microdeep::assign_balanced_heuristic(graph, wsn);
  ml::Tensor sample({1, 8, 8});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  (void)microdeep::execute_distributed(net, graph, assignment, wsn, sample,
                                       &obs);
}

// Span-golden scenario: two fixed-seed lossy network-in-the-loop
// inferences.  Small enough to review (a few hundred spans) but crossing
// every netexec span kind: the root Inference, Sense, NodeCompute, HopTx /
// HopRetryTx / Backoff under 10% loss, and the four phase-attribution
// children that tile each root.
void run_span_scenario(obs::Observability& obs) {
  Rng rng(5);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 4 * 4, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);

  const Rect area{0.0, 0.0, 10.0, 10.0};
  const auto wsn = microdeep::WsnTopology::grid(area, 4, 4);
  const auto graph = microdeep::UnitGraph::build(net, {1, 8, 8});
  const auto assignment = microdeep::assign_balanced_heuristic(graph, wsn);

  netexec::NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.1;
  cfg.seed = 17;
  cfg.obs = &obs;
  netexec::NetworkExecutor exec(net, graph, assignment, wsn, cfg);
  for (int i = 0; i < 2; ++i) {
    ml::Tensor sample({1, 8, 8});
    for (std::size_t j = 0; j < sample.size(); ++j) {
      sample[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    (void)exec.run(sample);
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string render_scenario_jsonl() {
  obs::Observability obs(1u << 16);  // headroom: the trace must not wrap
  run_scenario(obs);
  EXPECT_EQ(obs.trace().dropped(), 0u)
      << "golden scenario overflowed the trace buffer; raise capacity";
  std::ostringstream out;
  obs.trace().export_jsonl(out);
  return out.str();
}

// The trace snapshot was first recorded by a flat point-event recorder as
// {"t","type","a","b","v"} lines: 1,058 lines, 69,598 bytes, FNV-1a-64
// 0x4713e8c981453a78.  Re-rendering today's zero-duration spans in that
// shape gives the same 1,058 lines and differs only in hop times: the
// ideal executor no longer models latency, so its microdeep_hop records
// sit at t = 0 (67,638 bytes, 0x9cd49bc5a5af2bd8).  Every other byte is
// unchanged, which proves the move to span records dropped, reordered or
// altered no event.
TEST(GoldenTrace, SpanRecordsReRenderTheFlatSnapshot) {
  obs::Observability obs(1u << 16);
  run_scenario(obs);
  ASSERT_EQ(obs.trace().dropped(), 0u);
  std::ostringstream out;
  for (std::size_t i = 0; i < obs.trace().size(); ++i) {
    const obs::SpanEvent& e = obs.trace().at(i);
    ASSERT_EQ(e.t0, e.t1) << "record " << i;
    ASSERT_EQ(e.parent, 0u) << "record " << i;
    ASSERT_EQ(e.trace_id, 0u) << "record " << i;
    ASSERT_EQ(e.id, i + 1) << "record " << i;
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("t").value(e.t0);
    w.key("type").value(obs::span_kind_name(e.kind));
    w.key("a").value(static_cast<std::uint64_t>(e.a));
    w.key("b").value(static_cast<std::uint64_t>(e.b));
    w.key("v").value(e.value);
    w.end_object();
    out << '\n';
  }
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1058);
  EXPECT_EQ(text.size(), 67638u);
  EXPECT_EQ(Fnv1a64().bytes(text.data(), text.size()).value(),
            0x9cd49bc5a5af2bd8ULL);
}

TEST(GoldenTrace, ScenarioIsDeterministicInProcess) {
  obs::Observability a(1u << 16), b(1u << 16);
  run_scenario(a);
  run_scenario(b);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  EXPECT_EQ(a.trace().digest(), b.trace().digest());
}

/// Byte-level line diff against a checked-in snapshot, with
/// ZEIOT_UPDATE_GOLDEN regeneration.  Reports the first divergence.
void expect_matches_golden(const char* path, const std::string& actual_text) {
  if (std::getenv("ZEIOT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual_text;
    GTEST_SKIP() << "golden file regenerated at " << path
                 << " — review and commit it";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << "; regenerate with ZEIOT_UPDATE_GOLDEN=1";
  std::ostringstream golden_buf;
  golden_buf << in.rdbuf();

  const std::vector<std::string> expected = split_lines(golden_buf.str());
  const std::vector<std::string> actual = split_lines(actual_text);

  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(expected[i], actual[i])
        << "diverges at line " << (i + 1) << " of " << expected.size()
        << "\n  golden: " << expected[i] << "\n  actual: " << actual[i]
        << "\nIf the change is intentional, regenerate with "
           "ZEIOT_UPDATE_GOLDEN=1 and commit the new snapshot.";
  }
  ASSERT_EQ(expected.size(), actual.size())
      << "length changed (golden " << expected.size() << " lines, run "
      << actual.size() << " lines); first " << common << " lines match. "
      << "Regenerate with ZEIOT_UPDATE_GOLDEN=1 if intentional.";
}

TEST(GoldenTrace, MatchesCheckedInSnapshot) {
  expect_matches_golden(kGoldenPath, render_scenario_jsonl());
}

TEST(GoldenTrace, SpanTreeMatchesCheckedInSnapshot) {
  obs::Observability obs;
  obs.enable_spans(1u << 14);
  run_span_scenario(obs);
  ASSERT_EQ(obs.spans().dropped(), 0u)
      << "golden span scenario overflowed the recorder; raise capacity";
  ASSERT_EQ(obs.spans().root_count(), 2u);  // one root per inference

  // In-process double run first: the snapshot only pins what is already
  // deterministic.
  obs::Observability again;
  again.enable_spans(1u << 14);
  run_span_scenario(again);
  ASSERT_EQ(obs.spans().digest(), again.spans().digest());

  std::ostringstream out;
  obs.spans().export_jsonl(out);
  expect_matches_golden(kGoldenSpansPath, out.str());
}

}  // namespace
}  // namespace zeiot
