#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "sim/assert.h"

namespace aeq::stats {

void PercentileTracker::add(double x) {
  summary_.add(x);
  samples_.push_back(x);
  sorted_ = false;
}

void PercentileTracker::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileTracker::percentile(double pct) const {
  if (samples_.empty()) return 0.0;
  AEQ_CHECK_GE(pct, 0.0);
  AEQ_CHECK_LE(pct, 100.0);
  ensure_sorted();
  if (pct <= 0.0) return samples_.front();
  // Nearest-rank: the smallest value with at least pct% of mass at or below.
  const auto n = samples_.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples_[rank - 1];
}

void PercentileTracker::merge(const PercentileTracker& other) {
  if (other.summary_.count() == 0) return;
  summary_.merge(other.summary_);
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

}  // namespace aeq::stats
