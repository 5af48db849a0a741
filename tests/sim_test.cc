// Unit tests for the discrete-event core: ordering, determinism,
// cancellation, clock semantics, and RNG behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace aeq::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  Simulator q(SchedulerBackend::kHeap);
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreaksByInsertionOrder) {
  Simulator q(SchedulerBackend::kHeap);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  Simulator q(SchedulerBackend::kHeap);
  bool ran = false;
  EventId id = q.schedule_at(1.0, [&] { ran = true; });
  q.schedule_at(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  Simulator q(SchedulerBackend::kHeap);
  EventId id = q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueTest, CancelAfterFireIsHarmlessNoOp) {
  Simulator q(SchedulerBackend::kHeap);
  EventId fired = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  q.run_until(1.0);  // fires the first event only
  // Cancelling the already-fired event must not disturb live accounting.
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_EQ(q.events_processed(), 2u);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  Simulator q(SchedulerBackend::kHeap);
  EventId early = q.schedule_at(1.0, [] {});
  q.schedule_at(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_event_time(), 5.0);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s;
  Time seen = -1.0;
  s.schedule_at(2.5, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<Time>(i), [&] { ++count; });
  }
  s.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run_until(20.0);
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(1.0 * kUsec, recurse);
  };
  s.schedule_in(0.0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.events_processed(), 100u);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<Time>(i), [&] {
      if (++count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.fork();
  // The fork must not mirror the parent.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(100), 12.5e9);
  EXPECT_DOUBLE_EQ(serialization_delay(12500, gbps(100)), 1.0 * kUsec);
}

}  // namespace
}  // namespace aeq::sim
