#include "stats/log_histogram.h"

#include <algorithm>

namespace aeq::stats {

LogHistogram::LogHistogram(double min_value, double max_value,
                           double precision)
    : min_value_(min_value), max_value_(max_value) {
  AEQ_CHECK_GT(min_value, 0.0);
  AEQ_CHECK_GT(max_value, min_value);
  AEQ_CHECK_GT(precision, 0.0);
  AEQ_CHECK_LT(precision, 1.0);
  log_base_ = std::log1p(2.0 * precision);
  const auto buckets = static_cast<std::size_t>(
      std::ceil(std::log(max_value / min_value) / log_base_)) + 1;
  buckets_.assign(buckets, 0);
}

std::size_t LogHistogram::index_of(double value) const {
  const double clamped = std::clamp(value, min_value_, max_value_);
  const auto index = static_cast<std::size_t>(
      std::log(clamped / min_value_) / log_base_);
  return std::min(index, buckets_.size() - 1);
}

void LogHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
}

void LogHistogram::add(double value, std::uint64_t weight) {
  buckets_[index_of(value)] += weight;
  total_ += weight;
}

double LogHistogram::percentile(double pct) const {
  if (total_ == 0) return 0.0;
  AEQ_CHECK_GE(pct, 0.0);
  AEQ_CHECK_LE(pct, 100.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Upper edge of bucket i.
      return min_value_ * std::exp(log_base_ * static_cast<double>(i + 1));
    }
  }
  return max_value_;
}

}  // namespace aeq::stats
