// Tests for the calendar event queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace aeq {
namespace {

TEST(CalendarQueueTest, PopsInTimeOrder) {
  sim::CalendarQueue q;
  std::vector<int> order;
  q.schedule(3e-6, [&] { order.push_back(3); });
  q.schedule(1e-6, [&] { order.push_back(1); });
  q.schedule(2e-6, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().handler();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueueTest, TieBreaksByInsertionOrder) {
  sim::CalendarQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(5e-6, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().handler();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarQueueTest, MatchesHeapQueueOnRandomWorkload) {
  sim::CalendarQueue calendar;
  sim::EventQueue heap;
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
      calendar.schedule(t, [] {});
      heap.schedule(t, [] {});
      ++pending;
    } else {
      const double tc = calendar.pop().time;
      const double th = heap.pop().time;
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
  sim::CalendarQueue q;
  bool ran = false;
  auto id = q.schedule(1e-6, [&] { ran = true; });
  q.schedule(2e-6, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().handler();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, ResizesUnderLoadAndStaysCorrect) {
  sim::CalendarQueue q(1e-6, 4);  // tiny start: forces several doublings
  sim::Rng rng(7);
  for (int i = 0; i < 5000; ++i) q.schedule(rng.uniform(0, 1e-3), [] {});
  EXPECT_GT(q.num_buckets(), 4u);
  double last = -1.0;
  while (!q.empty()) {
    const double t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
}

}  // namespace
}  // namespace aeq
