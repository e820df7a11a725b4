// Discrete-event simulation kernel.
//
// All protocol simulations in the library (backscatter MAC coexistence,
// WSN data collection, energy harvesting) run on this kernel: a priority
// queue of timestamped callbacks with deterministic FIFO tie-breaking so a
// given seed always reproduces the same trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/error.hpp"

namespace zeiot::sim {

/// Simulation time in seconds.
using Time = double;

/// Optional observer of simulator internals (scheduling, execution, queue
/// depth, per-callback wall time).  The default implementations are no-ops,
/// so observers override only what they need.
/// `zeiot::obs::SimulatorProbe` adapts this interface onto the metrics /
/// tracing layer; with no observer installed the kernel pays only a null
/// pointer test per event.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// An event was scheduled for absolute time `t` with sequence id `id`.
  virtual void on_scheduled(Time t, std::uint64_t id) { (void)t; (void)id; }
  /// An event's callback ran at simulation time `t`.  `queue_depth` is the
  /// number of events still pending after this one; `wall_s` is the host
  /// wall-clock duration of the callback.
  virtual void on_executed(Time t, std::uint64_t id, std::size_t queue_depth,
                           double wall_s) {
    (void)t; (void)id; (void)queue_depth; (void)wall_s;
  }
};

/// Event-driven simulator.  Not thread-safe; one instance per experiment.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  void schedule(Time delay, Callback cb);

  /// Schedules `cb` at absolute time `t` (t >= now()).
  void schedule_at(Time t, Callback cb);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `t`, then advances the clock to `t`.
  std::size_t run_until(Time t);

  /// Number of events currently pending (scheduled, not yet run).
  std::size_t pending() const { return heap_.size(); }

  /// Installs (or clears, with nullptr) the observer.  The observer must
  /// outlive the simulator or be cleared first; it is notified of every
  /// schedule/execute from the moment it is set.
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

  /// Installs (or clears, with {}) a hook run after each executed event's
  /// callback, at the event's timestamp.  This is the step-boundary seam
  /// the fault layer's InvariantChecker attaches to; install a wrapper that
  /// calls the previous hook to chain.  Null hook costs one test per event.
  void set_post_step_hook(std::function<void(Time)> hook) {
    post_step_hook_ = std::move(hook);
  }
  const std::function<void(Time)>& post_step_hook() const {
    return post_step_hook_;
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO tie-break and observer id
    Callback cb;
  };
  struct Order {
    bool operator()(const Event* a, const Event* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  void push(Time t, Callback cb);
  /// Pops the earliest event and runs its callback.
  void pop_and_run();
  /// Returns a popped event's slot to free_ for reuse (its callback is
  /// released first so captured state never outlives the event).
  void recycle(Event* ev);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  // Events are heap-allocated so the priority queue can hold stable
  // pointers, but popped events are recycled through free_ instead of
  // deleted: a steady-state simulation performs no per-event allocation
  // beyond what the callbacks themselves capture.  This is the arena that
  // keeps fleet-scale runs (millions of events across thousands of
  // deployments) off the allocator.  Every event in heap_ runs exactly
  // once, so heap_ alone is the pending set.
  std::priority_queue<Event*, std::vector<Event*>, Order> heap_;
  std::vector<Event*> free_;
  SimObserver* observer_ = nullptr;
  std::function<void(Time)> post_step_hook_;
};

}  // namespace zeiot::sim
