// Tests for the calendar event queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace aeq {
namespace {

// Dispatches the earliest pending event of `store` and returns its time.
double pop_and_run(sim::EventStore& store) {
  const std::uint32_t slot = store.head();
  EXPECT_NE(slot, sim::kNoSlot);
  if (slot == sim::kNoSlot) return -1.0;
  store.pop_head();
  const double t = store.key(slot).t;
  store.run(slot);
  return t;
}

TEST(CalendarQueueTest, PopsInTimeOrder) {
  sim::Simulator q(sim::SchedulerBackend::kCalendar);
  std::vector<int> order;
  q.schedule_at(3e-6, [&] { order.push_back(3); });
  q.schedule_at(1e-6, [&] { order.push_back(1); });
  q.schedule_at(2e-6, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueueTest, TieBreaksByInsertionOrder) {
  sim::Simulator q(sim::SchedulerBackend::kCalendar);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(5e-6, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarQueueTest, MatchesHeapQueueOnRandomWorkload) {
  sim::EventStore calendar(std::make_unique<sim::CalendarQueue>());
  sim::EventStore heap(std::make_unique<sim::EventQueue>());
  sim::Rng rng(42);
  double now = 0.0;
  std::vector<double> calendar_times, heap_times;
  int pending = 0;
  for (int round = 0; round < 20000; ++round) {
    if (pending == 0 || (rng.bernoulli(0.55) && pending < 5000)) {
      // Mixed horizons: dense near-term + sparse far-future events.
      const double t =
          now + (rng.bernoulli(0.9) ? rng.exponential(2e-6)
                                    : rng.uniform(1e-3, 5e-3));
      calendar.schedule(t, [] {}, sim::kTieRankDefault);
      heap.schedule(t, [] {}, sim::kTieRankDefault);
      ++pending;
    } else {
      const double tc = pop_and_run(calendar);
      const double th = pop_and_run(heap);
      ASSERT_DOUBLE_EQ(tc, th) << "divergence at round " << round;
      now = th;
      --pending;
      calendar_times.push_back(tc);
      heap_times.push_back(th);
    }
    ASSERT_EQ(calendar.size(), heap.size());
  }
  EXPECT_TRUE(std::is_sorted(calendar_times.begin(), calendar_times.end()));
}

TEST(CalendarQueueTest, CancelSkipsEvent) {
  sim::Simulator q(sim::SchedulerBackend::kCalendar);
  bool ran = false;
  auto id = q.schedule_at(1e-6, [&] { ran = true; });
  q.schedule_at(2e-6, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(CalendarQueueTest, ResizesUnderLoadAndStaysCorrect) {
  // Tiny start: forces several doublings.
  auto calendar = std::make_unique<sim::CalendarQueue>(1e-6, 4);
  const sim::CalendarQueue& layout = *calendar;
  sim::EventStore q(std::move(calendar));
  sim::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    q.schedule(rng.uniform(0, 1e-3), [] {}, sim::kTieRankDefault);
  }
  EXPECT_GT(layout.num_buckets(), 4u);
  double last = -1.0;
  while (q.size() != 0) {
    const double t = pop_and_run(q);
    EXPECT_GE(t, last);
    last = t;
  }
}

}  // namespace
}  // namespace aeq
