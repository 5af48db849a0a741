// Unit + property tests for percentile tracking, summaries, histograms and
// time series.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

TEST(PercentileTest, MatchesSortExactly) {
  sim::Rng rng(17);
  PercentileTracker tracker;
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(0.0, 1000.0);
    tracker.add(x);
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  for (double pct : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * values.size()));
    EXPECT_DOUBLE_EQ(tracker.percentile(pct), values[rank - 1])
        << "pct=" << pct;
  }
  EXPECT_DOUBLE_EQ(tracker.percentile(100.0), values.back());
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
  for (const PercentileTracker& part : parts) merged.merge(part);
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
  PercentileTracker dst;
  dst.merge(src);
  EXPECT_EQ(dst.count(), 100u);
  EXPECT_DOUBLE_EQ(dst.percentile(50.0), src.percentile(50.0));
}

}  // namespace
}  // namespace aeq::stats
