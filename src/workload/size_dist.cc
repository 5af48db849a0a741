#include "workload/size_dist.h"

#include <algorithm>

namespace aeq::workload {

EmpiricalSize::EmpiricalSize(std::vector<Point> points)
    : points_(std::move(points)) {
  AEQ_ASSERT(points_.size() >= 2);
  AEQ_ASSERT(points_.front().cum_prob == 0.0);
  AEQ_ASSERT(points_.back().cum_prob == 1.0);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    AEQ_ASSERT(points_[i].cum_prob >= points_[i - 1].cum_prob);
    AEQ_ASSERT(points_[i].bytes >= points_[i - 1].bytes);
  }
  // Mean of the piecewise-linear (in bytes) interpolation: each segment
  // contributes its probability mass times the segment's average size.
  double mean = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double mass = points_[i].cum_prob - points_[i - 1].cum_prob;
    mean += mass * 0.5 *
            static_cast<double>(points_[i].bytes + points_[i - 1].bytes);
  }
  mean_ = mean;
}

std::uint64_t EmpiricalSize::sample(sim::Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::lower_bound(
      points_.begin(), points_.end(), u,
      [](const Point& p, double value) { return p.cum_prob < value; });
  if (it == points_.begin()) return points_.front().bytes;
  if (it == points_.end()) return points_.back().bytes;
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.cum_prob - lo.cum_prob;
  const double frac = span > 0 ? (u - lo.cum_prob) / span : 1.0;
  const double bytes = static_cast<double>(lo.bytes) +
                       frac * static_cast<double>(hi.bytes - lo.bytes);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(bytes));
}

std::unique_ptr<SizeDistribution> production_size_dist(rpc::Priority priority,
                                                       bool write) {
  using P = EmpiricalSize::Point;
  // Synthesized to match Figure 1's qualitative shape: PC is small-biased
  // with a real large tail; NC is mid-sized; BE is bulk. WRITE requests skew
  // slightly smaller than READ responses in the paper's CDFs.
  const double shrink = write ? 0.5 : 1.0;
  auto scale = [shrink](double bytes) {
    return static_cast<std::uint64_t>(std::max(128.0, bytes * shrink));
  };
  // Figure 1's normalized sizes span ~5 decades and the PC CDF reaches the
  // same maximum as BE — large performance-critical RPCs are real. The
  // heavy upper tail also drives the multi-ms hotspot episodes that defeat
  // SRPT-style schedulers on large RPCs (§6.10).
  std::vector<P> points;
  switch (priority) {
    case rpc::Priority::kPC:
      points = {{0.0, scale(256)},        {0.30, scale(1024)},
                {0.55, scale(4096)},      {0.75, scale(16 << 10)},
                {0.90, scale(64 << 10)},  {0.97, scale(512 << 10)},
                {0.995, scale(2 << 20)},  {1.0, scale(4 << 20)}};
      break;
    case rpc::Priority::kNC:
      points = {{0.0, scale(1024)},       {0.25, scale(8 << 10)},
                {0.50, scale(64 << 10)},  {0.80, scale(512 << 10)},
                {0.95, scale(2 << 20)},   {1.0, scale(8 << 20)}};
      break;
    case rpc::Priority::kBE:
      points = {{0.0, scale(4096)},       {0.30, scale(64 << 10)},
                {0.55, scale(512 << 10)}, {0.80, scale(2 << 20)},
                {0.95, scale(8 << 20)},   {1.0, scale(16 << 20)}};
      break;
  }
  return std::make_unique<EmpiricalSize>(std::move(points));
}

}  // namespace aeq::workload
