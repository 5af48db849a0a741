// RPC size distributions: a fixed synthetic plus
// empirical CDFs shaped like the paper's production storage workload
// (Figure 1), where PC RPCs are small-biased but have a genuine large tail —
// the size/priority misalignment that defeats SJF-style schedulers (§2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rpc/priority.h"
#include "sim/rng.h"

namespace aeq::workload {

class SizeDistribution {
 public:
  virtual ~SizeDistribution() = default;
  virtual std::uint64_t sample(sim::Rng& rng) const = 0;
  virtual double mean_bytes() const = 0;
};

class FixedSize final : public SizeDistribution {
 public:
  explicit FixedSize(std::uint64_t bytes) : bytes_(bytes) {
    AEQ_ASSERT(bytes > 0);
  }
  std::uint64_t sample(sim::Rng&) const override { return bytes_; }
  double mean_bytes() const override {
    return static_cast<double>(bytes_);
  }

 private:
  std::uint64_t bytes_;
};

// Piecewise-linear inverse-CDF sampling: points are (cumulative probability,
// bytes) with the first probability 0 and the last 1.
class EmpiricalSize final : public SizeDistribution {
 public:
  struct Point {
    double cum_prob;
    std::uint64_t bytes;
  };
  explicit EmpiricalSize(std::vector<Point> points);
  std::uint64_t sample(sim::Rng& rng) const override;
  double mean_bytes() const override { return mean_; }

 private:
  std::vector<Point> points_;
  double mean_;
};

// Production-like storage RPC size CDFs per priority class (Figure 1).
// READs use response payloads, WRITEs request payloads; both shapes are
// synthesized to preserve the paper's qualitative properties.
std::unique_ptr<SizeDistribution> production_size_dist(rpc::Priority priority,
                                                       bool write = true);

}  // namespace aeq::workload
