#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

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

}  // namespace
}  // namespace zeiot::sim
