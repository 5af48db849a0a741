// Fixed-bin linear histogram plus a CDF helper, used for distribution plots
// (e.g. outstanding-RPC CDFs in Figure 13 and the size CDFs of Figure 1).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/assert.h"

namespace aeq::stats {

class Histogram {
 public:
  // Bins span [lo, hi) divided into `bins` equal cells, with underflow and
  // overflow counted separately.
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {
    AEQ_CHECK_GT(hi, lo);
    AEQ_CHECK_GT(bins, 0u);
  }

  void add(double x, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  // Fraction of mass at or below the upper edge of bin i (underflow included).
  double cdf_at(std::size_t i) const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace aeq::stats
