#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace zbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void announce(std::uint64_t ops) {
  std::cout << "#zbench-ops " << ops << std::endl;
}

SpanLog::SpanLog() : origin_(now_s()) {}

std::uint32_t SpanLog::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

std::uint32_t SpanLog::begin(const std::string& name, std::uint32_t parent) {
  const double t = now_s();
  return add(name, t, t, parent);
}

void SpanLog::end(std::uint32_t id) { spans_[id - 1].end = now_s() - origin_; }

std::uint32_t SpanLog::add(const std::string& name, double start_abs,
                           double end_abs, std::uint32_t parent) {
  spans_.push_back({intern(name), parent, start_abs - origin_,
                    end_abs - origin_});
  return static_cast<std::uint32_t>(spans_.size());
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << names_[s.name] << "\"";
    std::snprintf(buf, sizeof(buf), ",\"start_s\":%.9f,\"end_s\":%.9f",
                  s.start, s.end);
    out << buf << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

void print_layer_table(const std::string& workload, double wall_s,
                       const std::vector<LayerRow>& rows) {
  std::printf("\nper-layer table: %s (traced wall %.3f s)\n", workload.c_str(),
              wall_s);
  std::printf("%-24s %12s %11s %7s  %s\n", "layer", "count", "busy_s",
              "share", "feeds");
  double sum = 0.0;
  for (const LayerRow& r : rows) {
    sum += r.busy_s;
    std::printf("%-24s %12.0f %11.4f %6.1f%%  %s\n", r.layer.c_str(), r.count,
                r.busy_s, wall_s > 0.0 ? 100.0 * r.busy_s / wall_s : 0.0,
                r.feeds.c_str());
  }
  std::printf("%-24s %12s %11.4f %6.1f%%\n", "total", "", sum,
              wall_s > 0.0 ? 100.0 * sum / wall_s : 0.0);
  std::fflush(stdout);
}

void write_spans(const Args& args, const SpanLog& log) {
  const std::filesystem::path dir =
      std::filesystem::path(args.out_dir) / "spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / (args.workload + ".spans.jsonl")).string();
  if (log.write_jsonl(path)) {
    std::cout << "spans: " << log.size() << " written to " << path
              << std::endl;
  } else {
    std::cerr << "zbench: could not write spans to " << path << "\n";
  }
}

void print_result(const Result& r) {
  // A metric that is not a finite number makes the run incorrect; JSON has
  // no spelling for it, so it prints as null.
  bool finite = true;
  std::string metrics;
  char buf[64];
  for (const Metric& m : r.metrics) {
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      finite = false;
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (r.failed == 0 && finite ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, r.attempted)
            << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
}

}  // namespace zbench
