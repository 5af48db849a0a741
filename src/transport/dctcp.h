// DCTCP congestion control (Alizadeh et al., SIGCOMM 2010), simplified.
//
// Switch queues mark packets past a threshold (QueueConfig::
// ecn_threshold_bytes); receivers echo the mark per ACK; the sender keeps an
// EWMA `alpha` of the marked fraction per window and cuts the window by
// alpha/2 once per window, growing one packet per RTT otherwise.
//
// Included as an alternative substrate for Aequitas (the paper's position:
// Aequitas "relies on a well-functioning congestion control" but is not
// married to Swift) and for the abl_cc_choice ablation bench.
#pragma once

#include "sim/units.h"
#include "transport/congestion_control.h"

namespace aeq::transport {

struct DctcpConfig {
  double min_cwnd = 1.0;    // packets
  double max_cwnd = 256.0;  // packets
  double initial_cwnd = 16.0;
  double restart_cwnd = 16.0;
};

// Every flow of a run points at one DctcpConfig, which must outlive them
// (a temporary does not compile).
class DctcpCC final : public CongestionControl {
 public:
  explicit DctcpCC(const DctcpConfig& config)
      : config_(&config), cwnd_(config.initial_cwnd) {}
  explicit DctcpCC(DctcpConfig&&) = delete;

  void on_ack(sim::Time now, sim::Time rtt, double acked_packets,
              bool ecn_echo) override;
  void on_loss(sim::Time now) override;
  void on_idle_restart() override;
  double cwnd_packets() const override { return cwnd_; }

  // DCTCP estimator sanity: alpha (the EWMA of the marked fraction) must
  // stay in [0, 1], the per-window mark count can never exceed the ACK
  // count, and cwnd stays within [min_cwnd, max(max_cwnd, initial_cwnd,
  // restart_cwnd)] (restart/initial may legitimately sit above max_cwnd
  // under operator overrides).
  void audit_invariants() const override;

  double alpha() const { return alpha_; }

 private:
  void clamp();
  void end_window(sim::Time now);

  const DctcpConfig* config_;
  double cwnd_;
  double alpha_ = 0.0;
  // Per-window mark bookkeeping (a window ~= cwnd worth of ACKed packets).
  double window_acked_ = 0.0;
  double window_marked_ = 0.0;
  sim::Time last_loss_cut_ = -1.0;
  sim::Time srtt_ = 0.0;
};

}  // namespace aeq::transport
