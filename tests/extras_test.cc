// Tests for the later substrate additions: the calendar event queue,
// Pareto sizes and Zipf destination picking.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

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

TEST(ParetoSizeTest, BoundsAndMeanMatchSamples) {
  workload::ParetoSize dist(1.2, 1024, 1 << 20);
  sim::Rng rng(3);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const auto x = dist.sample(rng);
    ASSERT_GE(x, 1024u);
    ASSERT_LE(x, static_cast<std::uint64_t>(1) << 20);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / n / dist.mean_bytes(), 1.0, 0.05);
}

TEST(ParetoSizeTest, HeavierAlphaMeansLighterTail) {
  workload::ParetoSize heavy(1.1, 1024, 1 << 20);
  workload::ParetoSize light(2.5, 1024, 1 << 20);
  EXPECT_GT(heavy.mean_bytes(), light.mean_bytes());
}

TEST(ZipfDestinationsTest, SkewsTowardLowRanksAndAvoidsSelf) {
  sim::Rng rng(11);
  auto pick = workload::zipf_destinations(16, /*self=*/0, 1.0);
  std::map<net::HostId, int> counts;
  for (int i = 0; i < 40000; ++i) {
    const net::HostId dst = pick(rng);
    ASSERT_NE(dst, 0);
    ASSERT_GE(dst, 0);
    ASSERT_LT(dst, 16);
    ++counts[dst];
  }
  // Rank 1 (self=0 redirects its mass to host 1) must dominate rank 15.
  EXPECT_GT(counts[1], 5 * counts[15]);
  // Monotone-ish decay across a few ranks.
  EXPECT_GT(counts[2], counts[8]);
}

}  // namespace
}  // namespace aeq
