// Discrete-event simulation kernel.
//
// All protocol simulations in the library (backscatter MAC coexistence,
// WSN data collection, energy harvesting) run on this kernel: timestamped
// callbacks executed in exact (time, seq) order, where seq is the order of
// scheduling, so a given seed always reproduces the same trajectory.
//
// Events pushed back to back for the same time form a *run*: a FIFO of
// contiguous seqs.  A min-heap orders runs by (time, seq of their head
// event); since runs with equal times hold disjoint contiguous seq ranges,
// draining the top run in FIFO order is exactly (time, seq) order.  A burst
// of same-time events (such as netexec's radio re-polls) costs one heap
// entry, and each of its events is an O(1) append and pop.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
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

/// Move-only `void()` callable.  Trivially copyable closures of up to 48
/// bytes with at most pointer alignment are stored inline, so scheduling a
/// typical protocol lambda never allocates; other closures go to the heap
/// and are released with the callable.
class Callback {
 public:
  Callback() = default;
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Callback>>>
  Callback(F&& f) {  // implicit: lambdas convert at the schedule() call site
    using Fn = std::decay_t<F>;
    if constexpr (kInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
    }
    ops_ = &kOps<Fn>;
  }
  Callback(Callback&& o) noexcept { take(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->call(buf_); }
  /// Destroys the held closure (and everything it captured).
  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*call)(void*);
    void (*destroy)(void*);  // null for inline closures: nothing to release
  };
  static constexpr std::size_t kCapacity = 48;
  // Inline closures are trivially copyable, so a byte copy moves them.
  template <typename Fn>
  static constexpr bool kInline = sizeof(Fn) <= kCapacity &&
                                  alignof(Fn) <= alignof(void*) &&
                                  std::is_trivially_copyable_v<Fn>;
  template <typename Fn>
  static Fn* held(void* p) {
    if constexpr (kInline<Fn>) {
      return std::launder(static_cast<Fn*>(p));
    } else {
      return *std::launder(static_cast<Fn**>(p));
    }
  }
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* p) { (*held<Fn>(p))(); },
      kInline<Fn> ? nullptr : +[](void* p) { delete held<Fn>(p); }};

  void take(Callback& o) noexcept {
    std::memcpy(buf_, o.buf_, kCapacity);
    ops_ = std::exchange(o.ops_, nullptr);
  }

  alignas(void*) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Event-driven simulator.  Not thread-safe; one instance per experiment.
class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
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
  std::size_t pending() const { return pending_; }

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
  static constexpr std::uint32_t kNil = UINT32_MAX;

  // One pending event.  `next` links its run's FIFO, or the free list.
  struct Slot {
    Callback cb;
    std::uint32_t next = kNil;
  };
  // A queued run: the FIFO of slots from `head`, whose event has seq `seq`.
  // Popping the head raises `seq` in place without breaking the heap:
  // equal-time runs hold disjoint seq ranges.
  struct Run {
    Time time;
    std::uint64_t seq;
    std::uint32_t head;
    bool operator>(const Run& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void push(Time t, Callback&& cb);
  /// Runs the head event of the top run, retiring the run if it empties.
  void pop_and_run();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  // Slot arena: memory is O(peak pending), and a steady-state simulation
  // allocates nothing per event beyond closures kept on the heap.
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNil;
  std::vector<Run> runs_;  // binary min-heap of non-empty runs
  // Tail slot and time of the run the last push went to; kNil once that
  // run has drained.  A push extends it only when the time matches bit for
  // bit (0.0 and -0.0 open separate runs, so now() is each event's time).
  std::uint32_t last_tail_ = kNil;
  Time last_time_ = 0.0;
  SimObserver* observer_ = nullptr;
  std::function<void(Time)> post_step_hook_;
};

}  // namespace zeiot::sim
