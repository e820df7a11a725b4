// Shared plumbing of the zbench workloads: arguments, wall clocks, the
// in-memory span log of traced runs, the per-layer table and the one-line
// JSON result the harness prints last.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace zbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: repetitions start until this much wall time has
  /// been spent measuring (at least kMinReps are always made).
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a fraction of a second (smoke test).
  bool tiny = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build";
};

/// Repetitions made even when one repetition outlasts the budget: the
/// cross-repetition digest check needs two.
inline constexpr int kMinReps = 2;

/// Set-up is repeated at least kMinSetupReps times, and until
/// kSetupBudgetS seconds have passed (at most kMaxSetupReps times); setup_s
/// is the median.
inline constexpr std::size_t kMinSetupReps = 5;
inline constexpr std::size_t kMaxSetupReps = 200;
inline constexpr double kSetupBudgetS = 1.5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's verdict.  `attempted` counts the operations the run made
/// (requests offered or deployments simulated, plus output checks);
/// `failed` counts output checks that did not hold.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one output check; a false `ok` is a failed operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Seconds on the monotonic clock.
double now_s();
double median(std::vector<double> v);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Repeats `build` (which returns the seconds one set-up took) as the
/// constants above say and returns the median.
template <class Build>
double median_setup_s(Build&& build) {
  std::vector<double> times;
  const double end = now_s() + kSetupBudgetS;
  while (times.size() < kMinSetupReps ||
         (times.size() < kMaxSetupReps && now_s() < end)) {
    times.push_back(build());
  }
  return median(std::move(times));
}

/// Announces the operations of the next repetition on stdout so the
/// watchdog in run.py can count them as failed if the repetition hangs.
void announce(std::uint64_t ops);

/// Spans recorded by a traced run around its calls into each layer, kept
/// in memory and written out once when the run ends.  Times are seconds
/// since the log was created.
class SpanLog {
 public:
  SpanLog();
  /// Opens a span now; returns its id (ids start at 1, 0 means no parent).
  std::uint32_t begin(const std::string& name, std::uint32_t parent = 0);
  void end(std::uint32_t id);
  /// Records a span whose start and end are already known (absolute
  /// now_s() values).
  std::uint32_t add(const std::string& name, double start_abs, double end_abs,
                    std::uint32_t parent);
  std::size_t size() const { return spans_.size(); }
  /// Writes one JSON object per line: id, name, start_s, end_s, parent.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    double start = 0.0;
    double end = 0.0;
  };
  std::uint32_t intern(const std::string& name);

  double origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// One row of the traced run's per-layer table.
struct LayerRow {
  std::string layer;
  double count = 0.0;
  double busy_s = 0.0;
  std::string feeds;  // the end-to-end metric this layer moves
};

/// Prints the per-layer table: count, busy time, share of `wall_s`, and
/// the end-to-end metric each layer feeds.
void print_layer_table(const std::string& workload, double wall_s,
                       const std::vector<LayerRow>& rows);

/// Writes the span log to <out_dir>/spans/<workload>.spans.jsonl and
/// reports where on stdout.
void write_spans(const Args& args, const SpanLog& log);

/// Prints the result as the last line of stdout.
void print_result(const Result& r);

}  // namespace zbench
