#include "transport/dctcp.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::transport {

namespace {
constexpr double kAlphaGain = 0.0625;  // EWMA gain g for alpha
}  // namespace

void DctcpCC::clamp() {
  cwnd_ = std::clamp(cwnd_, config_->min_cwnd, config_->max_cwnd);
}

void DctcpCC::end_window(sim::Time /*now*/) {
  const double fraction =
      window_acked_ > 0.0 ? window_marked_ / window_acked_ : 0.0;
  alpha_ = (1.0 - kAlphaGain) * alpha_ + kAlphaGain * fraction;
  if (window_marked_ > 0.0) {
    cwnd_ *= 1.0 - alpha_ / 2.0;  // the DCTCP cut
  }
  window_acked_ = 0.0;
  window_marked_ = 0.0;
}

void DctcpCC::on_ack(sim::Time now, sim::Time rtt, double acked_packets,
                     bool ecn_echo) {
  AEQ_DCHECK(rtt >= 0.0 && acked_packets >= 0.0);
  srtt_ = srtt_ == 0.0 ? rtt : 0.875 * srtt_ + 0.125 * rtt;
  window_acked_ += acked_packets;
  if (ecn_echo) window_marked_ += acked_packets;
  // Standard additive increase: one packet per RTT.
  cwnd_ += acked_packets / std::max(cwnd_, 1.0);
  clamp();  // before the window check so the boundary compares clamped cwnd
  if (window_acked_ >= cwnd_) end_window(now);
  clamp();
}

void DctcpCC::on_loss(sim::Time now) {
  // At most one halving per RTT, like the Swift guard.
  if (srtt_ > 0.0 && now - last_loss_cut_ < srtt_) return;
  last_loss_cut_ = now;
  cwnd_ *= 0.5;
  clamp();
}

void DctcpCC::on_idle_restart() {
  cwnd_ = std::max(cwnd_, config_->restart_cwnd);
  window_acked_ = 0.0;
  window_marked_ = 0.0;
}

void DctcpCC::audit_invariants() const {
  AEQ_CHECK_GE_MSG(alpha_, 0.0, "DCTCP alpha negative");
  AEQ_CHECK_LE_MSG(alpha_, 1.0, "DCTCP alpha above 1");
  AEQ_CHECK_LE_MSG(window_marked_, window_acked_,
                   "more marked than acked packets in window");
  AEQ_CHECK_GE_MSG(cwnd_, config_->min_cwnd, "DCTCP cwnd under min_cwnd");
  AEQ_CHECK_LE_MSG(
      cwnd_,
      std::max({config_->max_cwnd, config_->initial_cwnd, config_->restart_cwnd}),
      "DCTCP cwnd above max_cwnd");
  AEQ_CHECK_GE_MSG(srtt_, 0.0, "DCTCP srtt negative");
}

}  // namespace aeq::transport
