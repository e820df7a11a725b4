// Observability context: one metrics registry + two event recorders (the
// always-on point-event trace and the opt-in causal spans), threaded
// through instrumented components as a nullable pointer.
//
// Convention across the library: every instrumented component accepts an
// `obs::Observability*` (constructor argument, config field, or trailing
// function parameter) defaulting to nullptr.  A null context disables both
// metrics and tracing at the cost of one pointer test per emit site — the
// "null sink" that keeps unobserved hot paths at seed speed.
//
// Both recorders are `SpanRecorder`s: a trace entry is a zero-duration root
// span recorded with `trace().record(t, kind, a, b, value)`.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"

namespace zeiot::obs {

class Observability {
 public:
  /// Span recording is opt-in (`span_capacity` 0 keeps the span layer a
  /// null sink); metrics, tracing and the profiler are live by default
  /// (`trace_capacity` 0 makes the trace a null sink too).
  explicit Observability(std::size_t trace_capacity = 4096,
                         std::size_t span_capacity = 0)
      : trace_(trace_capacity), spans_(span_capacity) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanRecorder& trace() { return trace_; }
  const SpanRecorder& trace() const { return trace_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  ProfilerRegistry& profiler() { return profiler_; }
  const ProfilerRegistry& profiler() const { return profiler_; }

  /// True when span emit sites should record.  The canonical guard is
  /// `obs != nullptr && obs->spans_enabled()`.
  bool spans_enabled() const { return spans_.enabled(); }

  /// Replaces the (empty, disabled) span recorder with an enabled one of
  /// the given capacity.  Call before instrumented code runs.
  void enable_spans(std::size_t capacity) { spans_ = SpanRecorder(capacity); }

  /// Merges another context into this one: counters add, histograms and
  /// summaries combine, gauges take `other`'s value, and both recorders
  /// append `other`'s records with id remapping (spans only when this
  /// context has them enabled).  Merging per-deployment contexts in slot
  /// order is the fleet aggregation path — the combined record is then
  /// bit-identical at any ZEIOT_THREADS.
  void merge_from(const Observability& other) {
    metrics_.merge(other.metrics_);
    trace_.merge(other.trace_);
    if (spans_enabled() && other.spans_.size() > 0) spans_.merge(other.spans_);
  }

 private:
  MetricsRegistry metrics_;
  SpanRecorder trace_;
  SpanRecorder spans_;
  ProfilerRegistry profiler_;
};

}  // namespace zeiot::obs
