// Logarithmically-bucketed histogram (HDR-style): bounded memory with
// bounded relative error, for recording latencies over very long runs where
// the exact-sample PercentileTracker would grow too large.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/assert.h"

namespace aeq::stats {

class LogHistogram {
 public:
  // Values in [min_value, max_value] are recorded with relative error
  // <= `precision` (e.g. 0.01 => 1%); out-of-range values clamp.
  LogHistogram(double min_value, double max_value, double precision = 0.01);

  void add(double value, std::uint64_t weight = 1);

  // Zeroes every bucket, keeping the binning. Windowed consumers (e.g.
  // obs::TimeseriesSink) reuse one histogram per window instead of
  // reallocating the bucket array each window.
  void reset();

  std::uint64_t count() const { return total_; }
  // Percentile in [0, 100]; returns the upper edge of the matched bucket
  // (a <= precision overestimate). 0 when empty.
  double percentile(double pct) const;
  double p99() const { return percentile(99.0); }

 private:
  std::size_t index_of(double value) const;

  double min_value_;
  double max_value_;
  double log_base_;  // log(1 + 2*precision)
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace aeq::stats
