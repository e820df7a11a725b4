#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "obs/sim_probe.hpp"

namespace zeiot::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoTieBreak) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), Error);
}

TEST(Simulator, ScheduleAtRejectsPast) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), Error);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  const auto n = sim.run_until(2.5);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(2.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SelfReschedulingCallbackRepeatsUntilItStops) {
  // A repeating timer is a callback that re-schedules itself; it stops once
  // the callback no longer re-schedules.
  Simulator sim;
  std::vector<double> fired;
  bool rearm = true;
  std::function<void()> tick = [&] {
    fired.push_back(sim.now());
    if (rearm) sim.schedule(1.0, tick);
  };
  sim.schedule(1.0, tick);
  sim.run_until(5.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(sim.pending(), 1u);
  rearm = false;
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending(), 7u);
}

TEST(SimObserver, ExecutedCounterMatchesRunReturn) {
  // The observer's events_executed counter and run()'s return value are
  // two independent tallies of the same thing; they must agree when
  // callbacks schedule further events mid-run.
  obs::Observability o;
  obs::SimulatorProbe probe(o);
  Simulator sim;
  sim.set_observer(&probe);
  for (int i = 0; i < 50; ++i) {
    sim.schedule(static_cast<double>(i), [&sim] {
      sim.schedule(0.5, [] {});
    });
  }
  const std::size_t executed = sim.run();
  EXPECT_EQ(executed, 100u);
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.executed"),
                   static_cast<double>(executed));
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.scheduled"),
                   static_cast<double>(executed));
}

TEST(SimObserver, RunWithLimitMatchesObserver) {
  obs::Observability o;
  obs::SimulatorProbe probe(o);
  Simulator sim;
  sim.set_observer(&probe);
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [] {});
  const std::size_t executed = sim.run(4);
  EXPECT_EQ(executed, 4u);
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.executed"), 4.0);
}

// ---------------------------------------------------------------------------
// Reference order: the kernel must execute exactly what a priority queue of
// events ordered by (time, seq) executes, with the same seq ids, clock and
// observer callbacks.

// The (time, seq) semantics as a plain std::priority_queue of events.
class ReferenceKernel {
 public:
  Time now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  void set_observer(SimObserver* observer) { observer_ = observer; }
  void schedule(Time delay, std::function<void()> cb) {
    push(now_ + delay, std::move(cb));
  }
  void schedule_at(Time t, std::function<void()> cb) { push(t, std::move(cb)); }
  std::size_t run(std::size_t limit = SIZE_MAX) {
    std::size_t executed = 0;
    for (; !queue_.empty() && executed < limit; ++executed) step();
    return executed;
  }
  std::size_t run_until(Time t) {
    std::size_t executed = 0;
    for (; !queue_.empty() && queue_.top().time <= t; ++executed) step();
    now_ = std::max(now_, t);
    return executed;
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  void push(Time t, std::function<void()> cb) {
    const std::uint64_t seq = next_seq_++;
    queue_.push({t, seq, std::move(cb)});
    if (observer_ != nullptr) observer_->on_scheduled(t, seq);
  }
  void step() {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.cb();
    ev.cb = nullptr;
    if (observer_ != nullptr) {
      observer_->on_executed(ev.time, ev.seq, queue_.size(), 0.0);
    }
  }

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimObserver* observer_ = nullptr;
};

// Everything observable, with times as raw bits so 0.0 and -0.0 differ.
struct Log {
  std::vector<std::uint64_t> entries;
  void add(std::uint64_t v) { entries.push_back(v); }
  void add_time(Time t) { add(std::bit_cast<std::uint64_t>(t)); }
};

class LoggingObserver : public SimObserver {
 public:
  explicit LoggingObserver(Log& log) : log_(log) {}
  void on_scheduled(Time t, std::uint64_t id) override {
    log_.add(1);
    log_.add_time(t);
    log_.add(id);
  }
  void on_executed(Time t, std::uint64_t id, std::size_t queue_depth,
                   double) override {
    log_.add(2);
    log_.add_time(t);
    log_.add(id);
    log_.add(queue_depth);
  }

 private:
  Log& log_;
};

// A seeded random program of schedules.  Each event's behaviour depends
// only on its label (the order it was scheduled in), so two kernels that
// agree on the order run identical programs.
template <typename Kernel>
class Scenario {
 public:
  Scenario(Kernel& kernel, Log& log, std::uint64_t seed)
      : k_(kernel), log_(log), seed_(seed) {}

  void schedule_at(Time t) {
    const std::uint64_t label = next_label_++;
    k_.schedule_at(t, [this, label] { fire(label); });
  }
  void schedule(Time delay) {
    const std::uint64_t label = next_label_++;
    k_.schedule(delay, [this, label] { fire(label); });
  }
  // Several pushes for one time, back to back.
  void burst(Time t, int n) {
    for (int i = 0; i < n; ++i) schedule_at(t);
  }

  void drive() {
    Rng rng(seed_);
    schedule_at(0.0);
    schedule_at(-0.0);
    burst(1.0, 3);
    schedule_at(0.0);
    schedule_at(0.5);
    burst(1.0, 2);  // same time, but not back to back with the first burst
    // Keeps going once the queue drains: a push at the time of the run
    // that just emptied must open a new run, not revive the retired one.
    for (int round = 0; round < 80; ++round) {
      switch (rng.uniform_int(0, 3)) {
        case 0:
          log_.add(k_.run(static_cast<std::size_t>(rng.uniform_int(1, 6))));
          break;
        case 1:  // a boundary on the event grid, often equal to event times
          log_.add(k_.run_until(k_.now() + 0.25 * rng.uniform_int(0, 3)));
          break;
        case 2:
          log_.add(k_.run_until(k_.now() + rng.uniform(0.0, 0.6)));
          break;
        default:  // pushes from outside any callback, on and off the grid
          burst(k_.now() + 0.25 * rng.uniform_int(0, 2),
                static_cast<int>(rng.uniform_int(1, 3)));
          schedule(rng.uniform(0.0, 1.0));
          break;
      }
      log_.add_time(k_.now());
      log_.add(k_.pending());
    }
    log_.add(k_.run());
    log_.add_time(k_.now());
  }

 private:
  void fire(std::uint64_t label) {
    log_.add(label);
    log_.add_time(k_.now());
    if (next_label_ > 1500) return;
    Rng rng(seed_ * 1000003 + label);
    const int children = static_cast<int>(rng.uniform_int(0, 3));
    for (int c = 0; c < children; ++c) {
      switch (rng.uniform_int(0, 6)) {
        case 0:
          schedule(0.0);  // at now, from inside the run being drained
          break;
        case 1:
          schedule_at(k_.now());
          break;
        case 2:  // a shared grid time: many events meet there
          schedule_at(k_.now() + 0.25 * rng.uniform_int(1, 4));
          break;
        case 3:  // all-distinct times
          schedule(rng.uniform(0.0, 2.0));
          break;
        case 4:
          burst(k_.now() + 0.25 * rng.uniform_int(0, 2),
                static_cast<int>(rng.uniform_int(2, 5)));
          break;
        case 5:  // interleaved times break runs apart
          schedule_at(k_.now() + 0.5);
          schedule_at(k_.now() + 0.25);
          schedule_at(k_.now() + 0.5);
          break;
        default:  // 0.0 and -0.0 compare equal but are distinct times
          if (k_.now() == 0.0) {
            schedule_at(rng.bernoulli(0.5) ? -0.0 : 0.0);
          } else {
            schedule(0.0);
          }
          break;
      }
    }
  }

  Kernel& k_;
  Log& log_;
  std::uint64_t seed_;
  std::uint64_t next_label_ = 0;
};

template <typename Kernel>
Log run_scenario(std::uint64_t seed) {
  Log log;
  LoggingObserver observer(log);
  Kernel kernel;
  kernel.set_observer(&observer);
  Scenario<Kernel>(kernel, log, seed).drive();
  return log;
}

TEST(SimulatorReference, MatchesTimeSeqPriorityQueueOrder) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Log expected = run_scenario<ReferenceKernel>(seed);
    const Log actual = run_scenario<Simulator>(seed);
    ASSERT_GT(expected.entries.size(), 100u);
    const auto diff = std::mismatch(actual.entries.begin(), actual.entries.end(),
                                    expected.entries.begin(),
                                    expected.entries.end());
    ASSERT_TRUE(diff.first == actual.entries.end() &&
                diff.second == expected.entries.end())
        << "seed " << seed << ": logs differ from entry "
        << (diff.first - actual.entries.begin()) << " of "
        << expected.entries.size();
  }
}

TEST(SimulatorReference, NegativeZeroKeepsItsOwnTime) {
  Simulator sim;
  std::vector<std::uint64_t> seen;
  auto record = [&] { seen.push_back(std::bit_cast<std::uint64_t>(sim.now())); };
  sim.schedule_at(0.0, record);
  sim.schedule_at(-0.0, record);
  sim.schedule_at(0.0, record);
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{std::bit_cast<std::uint64_t>(0.0),
                                              std::bit_cast<std::uint64_t>(-0.0),
                                              std::bit_cast<std::uint64_t>(0.0)}));
}

// ---------------------------------------------------------------------------
// Callback lifetime: captured state lives exactly as long as its event.

TEST(SimulatorLifetime, CapturedStateReleasedRightAfterTheEventRuns) {
  Simulator sim;
  auto small = std::make_shared<int>(7);
  auto large = std::make_shared<int>(9);
  const std::weak_ptr<int> small_w = small, large_w = large;
  std::array<double, 12> payload{};  // 96 bytes: stored off the inline buffer
  payload[11] = 2.5;
  int sum = 0;
  sim.schedule(1.0, [p = std::move(small), &sum] { sum += *p; });
  sim.schedule(2.0, [p = std::move(large), payload, &sum] {
    sum += *p + static_cast<int>(payload[11]);
  });
  std::vector<bool> expired_after;
  sim.set_post_step_hook([&](Time t) {
    expired_after.push_back(t == 1.0 ? small_w.expired() : large_w.expired());
  });
  EXPECT_FALSE(small_w.expired());
  EXPECT_FALSE(large_w.expired());
  sim.run();
  EXPECT_EQ(sum, 7 + 9 + 2);
  EXPECT_EQ(expired_after, (std::vector<bool>{true, true}));
}

TEST(SimulatorLifetime, MoveOnlyAndOverAlignedClosuresRun) {
  struct alignas(32) Wide {
    double v[4];
  };
  Simulator sim;
  int got = 0;
  double wide_sum = 0.0;
  sim.schedule(0.5, [u = std::make_unique<int>(5), &got] { got = *u; });
  const Wide w{{1.0, 2.0, 3.0, 4.0}};
  sim.schedule(0.5, [w, &wide_sum] {
    for (const double x : w.v) wide_sum += x;
  });
  Simulator::Callback moved = [&got] { got += 100; };
  Simulator::Callback target = std::move(moved);
  EXPECT_FALSE(moved);
  sim.schedule(1.0, std::move(target));
  sim.run();
  EXPECT_EQ(got, 105);
  EXPECT_DOUBLE_EQ(wide_sum, 10.0);
}

TEST(SimulatorLifetime, PendingEventsDieWithTheSimulator) {
  auto token = std::make_shared<int>(1);
  const std::weak_ptr<int> w = token;
  std::array<char, 128> big{};
  {
    Simulator sim;
    for (int i = 0; i < 4; ++i) sim.schedule(1.0, [token] { (void)token; });
    sim.schedule(2.0, [token, big] { (void)token; (void)big; });
    sim.schedule(3.0, [t = std::move(token)] { (void)t; });
    EXPECT_EQ(sim.run(2), 2u);  // leaves a partly drained run queued
    EXPECT_EQ(sim.pending(), 4u);
    EXPECT_FALSE(w.expired());
  }
  EXPECT_TRUE(w.expired());
}

}  // namespace
}  // namespace zeiot::sim
