// Exact percentile tracking over collected samples.
//
// Tail percentiles (p99.9) are the paper's headline metric, so we keep exact
// samples rather than sketches. Samples live in fixed chunks that are never
// copied: an add never moves earlier samples, so a long run holds each
// sample once, not a doubling array plus the old one it copies from.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "stats/summary.h"

namespace aeq::stats {

// Cache-line aligned for the same reason as rpc::RpcMetrics, whose
// per-shard sinks hold these trackers.
class alignas(64) PercentileTracker {
 public:
  static constexpr std::size_t kChunkSamples = 512;  // 4 KiB per chunk

  PercentileTracker() = default;
  // A moved-from tracker is empty, as a new one is.
  PercentileTracker(PercentileTracker&& other) noexcept
      : summary_(std::exchange(other.summary_, Summary())),
        chunks_(std::exchange(other.chunks_, {})),
        size_(std::exchange(other.size_, 0)),
        sorted_(std::exchange(other.sorted_, true)) {}
  PercentileTracker& operator=(PercentileTracker&& other) noexcept {
    PercentileTracker moved(std::move(other));
    std::swap(summary_, moved.summary_);
    std::swap(chunks_, moved.chunks_);
    std::swap(size_, moved.size_);
    std::swap(sorted_, moved.sorted_);
    return *this;
  }

  void add(double x);

  // Percentile in [0, 100]; e.g. 99.9 for p99.9. Returns 0 when empty.
  // Uses the nearest-rank method; the first query after an add sorts the
  // samples in place across the chunks (lazy, cached).
  double percentile(double pct) const;

  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  std::uint64_t count() const { return summary_.count(); }
  double mean() const { return summary_.mean(); }
  double max() const { return summary_.max(); }
  double min() const { return summary_.min(); }
  const Summary& summary() const { return summary_; }

  // Allocates the chunks for n samples up front so a bounded run adds
  // samples without touching the allocator (the steady-state allocation
  // regression test depends on this). A tracker that is never reserved and
  // never gets a sample allocates nothing.
  void reserve(std::size_t n) {
    while (chunks_.size() * kChunkSamples < n) {
      chunks_.push_back(std::make_unique_for_overwrite<double[]>(
          kChunkSamples));
    }
  }

  // Moves another tracker's samples into this one (for fan-in aggregation,
  // e.g. the per-shard sinks of a sharded run) and leaves `other` empty.
  // Each of its chunks is freed as soon as it is copied, so the two never
  // hold every sample twice. The merge is exact: merge-of-parts equals
  // feeding every sample to one tracker (up to sample order, which
  // percentiles ignore).
  void merge(PercentileTracker&& other);

 private:
  void push(double x);  // stores a sample; the caller updates summary_
  void ensure_sorted() const;
  double at(std::size_t i) const {
    return chunks_[i / kChunkSamples][i % kChunkSamples];
  }

  Summary summary_;
  // Sample i is chunks_[i / kChunkSamples][i % kChunkSamples], i < size_.
  // Chunks past the last sample's are reserved and unused.
  mutable std::vector<std::unique_ptr<double[]>> chunks_;
  std::size_t size_ = 0;
  mutable bool sorted_ = true;
};

}  // namespace aeq::stats
