#include "stats/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ranges>

#include "sim/assert.h"

namespace aeq::stats {

namespace {

constexpr std::size_t kChunk = PercentileTracker::kChunkSamples;

}  // namespace

void PercentileTracker::push(double x) {
  if (size_ / kChunk == chunks_.size()) {
    chunks_.push_back(std::make_unique_for_overwrite<double[]>(kChunk));
  }
  chunks_[size_ / kChunk][size_ % kChunk] = x;
  ++size_;
  sorted_ = false;
}

void PercentileTracker::add(double x) {
  push(x);
  summary_.add(x);
}

void PercentileTracker::ensure_sorted() const {
  if (!sorted_) {
    // A 32-bit index keeps the view's difference type a plain integer,
    // which std::sort needs; 2^32 samples would be 32 GiB.
    AEQ_CHECK_LE(size_, std::numeric_limits<std::uint32_t>::max());
    std::ranges::sort(
        std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(size_)) |
        std::views::transform([this](std::uint32_t i) -> double& {
          return chunks_[i / kChunk][i % kChunk];
        }));
    sorted_ = true;
  }
}

double PercentileTracker::percentile(double pct) const {
  if (size_ == 0) return 0.0;
  AEQ_CHECK_GE(pct, 0.0);
  AEQ_CHECK_LE(pct, 100.0);
  ensure_sorted();
  if (pct <= 0.0) return at(0);
  // Nearest-rank: the smallest value with at least pct% of mass at or below.
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(size_)));
  if (rank == 0) rank = 1;
  if (rank > size_) rank = size_;
  return at(rank - 1);
}

void PercentileTracker::merge(PercentileTracker&& other) {
  AEQ_ASSERT(&other != this);
  PercentileTracker source(std::move(other));
  std::size_t left = source.size_;
  for (std::unique_ptr<double[]>& chunk : source.chunks_) {
    if (left == 0) break;
    const std::size_t take = std::min(left, kChunk);
    for (std::size_t j = 0; j < take; ++j) push(chunk[j]);
    left -= take;
    chunk.reset();
  }
  summary_.merge(source.summary_);
}

}  // namespace aeq::stats
