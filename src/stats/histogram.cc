#include "stats/histogram.h"

namespace aeq::stats {

void Histogram::add(double x, std::uint64_t weight) {
  total_ += weight;
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(counts_.size()));
  counts_[i < counts_.size() ? i : counts_.size() - 1] += weight;
}

double Histogram::cdf_at(std::size_t i) const {
  AEQ_CHECK_LT(i, counts_.size());
  if (total_ == 0) return 0.0;
  std::uint64_t below = underflow_;
  for (std::size_t j = 0; j <= i; ++j) below += counts_[j];
  return static_cast<double>(below) / static_cast<double>(total_);
}

}  // namespace aeq::stats
