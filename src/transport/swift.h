// Swift congestion control (Kumar et al., SIGCOMM 2020), simplified.
//
// Delay-based AIMD on a target RTT: additive increase while measured delay is
// under target, multiplicative decrease proportional to the overshoot (capped
// by max_mdf, at most once per RTT). Supports fractional windows with pacing,
// which is essential at the incast ratios in the paper's experiments.
//
// Simplifications vs the paper: no topology-based target scaling and no
// flow-count scaling term; the target is a constant per fabric, which is
// adequate for single-switch and two-tier topologies at a fixed hop count.
#pragma once

#include <algorithm>

#include "sim/units.h"
#include "transport/congestion_control.h"

namespace aeq::transport {

struct SwiftConfig {
  sim::Time target_delay = 10 * sim::kUsec;
  double additive_increase = 0.5;  // packets per RTT
  double beta = 0.8;               // scales MD with relative overshoot
  double max_mdf = 0.5;            // largest single multiplicative decrease
  double min_cwnd = 0.01;          // packets (Swift's pacing regime)
  double max_cwnd = 256.0;         // packets
  // Window restored on idle restart (stale congestion state is forgotten,
  // as in Swift's production behaviour for intermittent flows).
  double restart_cwnd = 16.0;
};

// Every flow of a run points at one SwiftConfig, which must outlive them
// (a temporary does not compile).
class SwiftCC final : public CongestionControl {
 public:
  explicit SwiftCC(const SwiftConfig& config)
      : config_(&config), cwnd_(config.max_cwnd) {}
  explicit SwiftCC(SwiftConfig&&) = delete;

  void on_ack(sim::Time now, sim::Time rtt, double acked_packets,
              bool ecn_echo) override;
  void on_loss(sim::Time now) override;
  void on_idle_restart() override {
    cwnd_ = std::max(cwnd_, config_->restart_cwnd);
  }
  double cwnd_packets() const override { return cwnd_; }

  // Swift window-bounds/pacing sanity: cwnd within [min_cwnd,
  // max(max_cwnd, restart_cwnd)] (idle restart may legitimately place the
  // window at restart_cwnd even when an operator sets it above max_cwnd),
  // and a non-negative RTT estimate — a negative or NaN srtt would corrupt
  // both the pacing gap (rtt/cwnd for cwnd < 1) and the once-per-RTT
  // decrease gate.
  void audit_invariants() const override;

 private:
  void clamp();
  bool can_decrease(sim::Time now) const {
    return now - last_decrease_ >= srtt_;
  }

  const SwiftConfig* config_;
  double cwnd_;
  sim::Time srtt_ = 0.0;
  sim::Time last_decrease_ = -1.0;
};

}  // namespace aeq::transport
