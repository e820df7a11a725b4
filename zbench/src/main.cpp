// zbench — the repository benchmark.
//
//   zbench --workload <serve_mix|serve_plan_churn|fleet_mixed> --seed <n>
//          --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes the separate traced run that splits wall time by layer.  The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// Normally launched through run.py, which builds this binary and guards it
// with a watchdog.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace zbench {
namespace {

/// Every per-layer metric (name, unit), in reporting order.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"route.e1_temperature.busy_s", "s"},
      {"route.e1_temperature.items", "count"},
      {"route.e1_temperature.batches", "count"},
      {"route.e2_fall.busy_s", "s"},
      {"route.e2_fall.items", "count"},
      {"route.e2_fall.batches", "count"},
      {"route.e3_congestion.busy_s", "s"},
      {"route.e3_congestion.items", "count"},
      {"route.e3_congestion.batches", "count"},
      {"route.e4_room_count.busy_s", "s"},
      {"route.e4_room_count.items", "count"},
      {"route.e4_room_count.batches", "count"},
      {"route.e5_csi.busy_s", "s"},
      {"route.e5_csi.items", "count"},
      {"route.e5_csi.batches", "count"},
      {"serve.engine.self_s", "s"},
      {"plan_cache.lookups", "count"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.evictions", "count"},
      {"microdeep.search.busy_s", "s"},
      {"microdeep.search.calls", "count"},
      {"fleet.e1.busy_s", "s"},
      {"fleet.e2.busy_s", "s"},
      {"fleet.e6.busy_s", "s"},
      {"fleet.merge.self_s", "s"},
      {"fleet.accuracy", "ratio"},
      {"fleet.energy_mj_per_inference", "mJ"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"backscatter.frames.generated", "count"},
      {"netexec.inferences", "count"},
      {"netexec.ms_per_inference", "ms"},
      {"netexec.eval.messages", "count"},
      {"netexec.eval.frames_lost", "count"},
      {"netexec.delivery_ratio", "ratio"},
      {"obs.trace_digest_us", "us"},
      {"par.efficiency", "ratio"},
      {"trace.wall_s", "s"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

}  // namespace

void complete_per_layer(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != r.metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  r.metrics = std::move(ordered);
}

}  // namespace zbench

namespace {

int usage(const char* msg) {
  std::cerr << "zbench: " << msg
            << "\nusage: zbench --workload <serve_mix|serve_plan_churn|"
               "fleet_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  zbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        args.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (a == "--out-dir" && has_value) {
        args.out_dir = argv[++i];
      } else if (a == "--tiny") {
        args.tiny = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");

  zbench::Result result;
  try {
    if (args.workload == "serve_mix" || args.workload == "serve_plan_churn") {
      result = zbench::run_serve(args);
    } else if (args.workload == "fleet_mixed") {
      result = zbench::run_fleet(args);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    // A program error inside a workload is a failed run, not a crash of
    // the harness: every operation counts as failed.
    std::cerr << "zbench: " << args.workload << " failed: " << e.what()
              << "\n";
    result.attempted = std::max<std::uint64_t>(1, result.attempted);
    result.failed = result.attempted;
  }
  zbench::print_result(result);
  return 0;
}
