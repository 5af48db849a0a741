// Exact percentile tracking over collected samples.
//
// Tail percentiles (p99.9) are the paper's headline metric, so we keep exact
// samples rather than sketches.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/summary.h"

namespace aeq::stats {

// Cache-line aligned for the same reason as rpc::RpcMetrics, whose
// per-shard sinks hold these trackers.
class alignas(64) PercentileTracker {
 public:
  void add(double x);

  // Percentile in [0, 100]; e.g. 99.9 for p99.9. Returns 0 when empty.
  // Uses the nearest-rank method on a sorted copy (lazy, cached).
  double percentile(double pct) const;

  double p50() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double p999() const { return percentile(99.9); }

  std::uint64_t count() const { return summary_.count(); }
  double mean() const { return summary_.mean(); }
  double max() const { return summary_.max(); }
  double min() const { return summary_.min(); }
  const Summary& summary() const { return summary_; }

  // Pre-sizes sample storage so a bounded run adds samples without touching
  // the allocator (the steady-state allocation regression test depends on
  // this).
  void reserve(std::size_t n) { samples_.reserve(n); }

  // Folds another tracker into this one (for fan-out/fan-in aggregation of
  // multi-trial sweep points). The merge is exact: merge-of-parts equals
  // feeding every sample to one tracker (up to sample order, which
  // percentiles ignore).
  void merge(const PercentileTracker& other);

 private:
  void ensure_sorted() const;

  Summary summary_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace aeq::stats
