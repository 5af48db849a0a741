// Unit + property tests for percentile tracking, summaries, histograms and
// time series.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/summary.h"
#include "stats/timeseries.h"

namespace aeq::stats {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, MergeMatchesCombinedStream) {
  sim::Rng rng(3);
  Summary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

// Nearest-rank over a sorted copy: the definition the tracker implements.
double nearest_rank(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (pct <= 0.0) return values.front();
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

constexpr double kPercentiles[] = {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0};

void expect_nearest_rank(const PercentileTracker& tracker,
                         const std::vector<double>& values) {
  ASSERT_EQ(tracker.count(), values.size());
  for (const double pct : kPercentiles) {
    EXPECT_EQ(tracker.percentile(pct), nearest_rank(values, pct))
        << "n=" << values.size() << " pct=" << pct;
  }
}

// Samples live in 512-sample chunks and the first query sorts them in place
// across chunk boundaries: every percentile must equal nearest-rank over a
// plain sorted vector at sizes on and around the chunk edges, reserved or
// not, and still after further adds (the sorted cache is invalidated).
TEST(PercentileTest, MatchesSortExactly) {
  sim::Rng rng(17);
  const std::size_t random_size = 1 + rng.index(4000);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{511}, std::size_t{512},
        std::size_t{513}, std::size_t{1025}, std::size_t{10000},
        random_size}) {
    for (const bool reserved : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "size " << size << (reserved ? " reserved" : ""));
      PercentileTracker tracker;
      if (reserved) tracker.reserve(size);
      std::vector<double> values;
      // Coarse values so ties (equal samples in different chunks) occur.
      const auto draw = [&rng] { return std::floor(rng.uniform(0, 300)); };
      for (std::size_t i = 0; i < size; ++i) {
        values.push_back(draw());
        tracker.add(values.back());
      }
      expect_nearest_rank(tracker, values);
      for (std::size_t i = 0; i < 700; ++i) {
        values.push_back(draw());
        tracker.add(values.back());
      }
      expect_nearest_rank(tracker, values);
      EXPECT_EQ(tracker.min(), nearest_rank(values, 0.0));
      EXPECT_EQ(tracker.max(), nearest_rank(values, 100.0));
    }
  }
}

TEST(PercentileTest, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_DOUBLE_EQ(t.p999(), 0.0);
  EXPECT_EQ(t.count(), 0u);
}

TEST(PercentileTest, SingleValue) {
  PercentileTracker t;
  t.add(42.0);
  EXPECT_DOUBLE_EQ(t.p50(), 42.0);
  EXPECT_DOUBLE_EQ(t.p999(), 42.0);
}

TEST(HistogramTest, BinningAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);   // underflow
  h.add(100.0);  // overflow
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bin(i), 1u);
  EXPECT_NEAR(h.cdf_at(4), 6.0 / 12.0, 1e-12);  // underflow + bins 0..4
  EXPECT_NEAR(h.cdf_at(9), 11.0 / 12.0, 1e-12);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5, 10);
  EXPECT_EQ(h.bin(1), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(TimeSeriesTest, ValueAtUsesLastBefore) {
  TimeSeries ts;
  ts.record(1.0, 10.0);
  ts.record(2.0, 20.0);
  ts.record(3.0, 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(2.5), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 30.0);
}

TEST(TimeSeriesTest, AverageInWindow) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.record(i, i);
  EXPECT_DOUBLE_EQ(ts.average_in(0.0, 5.0), 2.0);  // 0..4
}

TEST(TimeSeriesTest, ResampleEndpoints) {
  TimeSeries ts;
  ts.record(0.0, 1.0);
  ts.record(10.0, 2.0);
  const auto points = ts.resample(3);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.front().t, 0.0);
  EXPECT_DOUBLE_EQ(points.back().t, 10.0);
  EXPECT_DOUBLE_EQ(points.back().value, 2.0);
}

TEST(RateMeterTest, WindowedRates) {
  RateMeter meter(1.0);
  meter.add(0.5, 100.0);
  meter.add(1.5, 200.0);  // closes window [0,1) with 100 bytes
  meter.finish(2.0);
  const auto& pts = meter.series().points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].value, 100.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 200.0);
}

TEST(PercentileTest, UnboundedMergeIsExact) {
  sim::Rng rng(21);
  PercentileTracker whole;
  PercentileTracker parts[4];
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.exponential(1.0) * 50.0;
    whole.add(x);
    parts[i % 4].add(x);
  }
  PercentileTracker merged;
  for (PercentileTracker& part : parts) merged.merge(std::move(part));
  EXPECT_EQ(merged.count(), whole.count());
  for (double pct : {1.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.percentile(pct), whole.percentile(pct))
        << "pct " << pct;
  }
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(PercentileTest, MergeIntoEmptyCopies) {
  PercentileTracker src;
  for (int i = 1; i <= 100; ++i) src.add(i);
  const double median = src.percentile(50.0);
  PercentileTracker dst;
  dst.merge(std::move(src));
  EXPECT_EQ(dst.count(), 100u);
  EXPECT_DOUBLE_EQ(dst.percentile(50.0), median);
}

// Merging moves the operand's samples across chunk boundaries (sizes that
// are not multiples of 512, in both operand orders) and equals feeding one
// tracker; the operand is left empty and usable.
TEST(PercentileTest, MergeAcrossChunksEqualsOneTrackerAndEmptiesOperand) {
  sim::Rng rng(37);
  std::vector<double> first(700), second(1300);
  for (double& x : first) x = rng.exponential(1.0);
  for (double& x : second) x = rng.exponential(3.0);
  std::vector<double> all = first;
  all.insert(all.end(), second.begin(), second.end());
  for (const bool first_is_target : {true, false}) {
    SCOPED_TRACE(first_is_target ? "first.merge(second)"
                                 : "second.merge(first)");
    PercentileTracker a, b;
    for (const double x : first) a.add(x);
    for (const double x : second) b.add(x);
    PercentileTracker& target = first_is_target ? a : b;
    PercentileTracker& operand = first_is_target ? b : a;
    target.p50();  // a cached sort must be invalidated by the merge
    target.merge(std::move(operand));
    expect_nearest_rank(target, all);
    EXPECT_EQ(target.min(), nearest_rank(all, 0.0));
    EXPECT_EQ(target.max(), nearest_rank(all, 100.0));
    EXPECT_EQ(operand.count(), 0u);
    EXPECT_EQ(operand.p999(), 0.0);
    operand.add(4.0);
    EXPECT_EQ(operand.p50(), 4.0);
  }
}

// A moved-from tracker is empty and usable, like a new one, whether it was
// moved by construction or by assignment.
TEST(PercentileTest, MovedFromTrackerIsEmptyAndUsable) {
  std::vector<double> values;
  PercentileTracker source;
  for (int i = 0; i < 600; ++i) {
    values.push_back(600 - i);
    source.add(values.back());
  }
  PercentileTracker constructed(std::move(source));
  expect_nearest_rank(constructed, values);
  PercentileTracker assigned;
  assigned.add(1.0);
  assigned = std::move(constructed);
  expect_nearest_rank(assigned, values);
  for (PercentileTracker* moved_from : {&source, &constructed}) {
    EXPECT_EQ(moved_from->count(), 0u);
    EXPECT_EQ(moved_from->p999(), 0.0);
    for (int i = 0; i < 600; ++i) moved_from->add(2.0);
    EXPECT_EQ(moved_from->p50(), 2.0);
  }
}

}  // namespace
}  // namespace aeq::stats
