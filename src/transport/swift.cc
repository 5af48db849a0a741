#include "transport/swift.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::transport {

void SwiftCC::clamp() {
  cwnd_ = std::clamp(cwnd_, config_->min_cwnd, config_->max_cwnd);
}

void SwiftCC::on_ack(sim::Time now, sim::Time rtt, double acked_packets,
                     bool /*ecn_echo*/) {
  AEQ_DCHECK(rtt >= 0.0 && acked_packets >= 0.0);
  srtt_ = srtt_ == 0.0 ? rtt : 0.875 * srtt_ + 0.125 * rtt;
  if (rtt < config_->target_delay) {
    if (cwnd_ >= 1.0) {
      cwnd_ += config_->additive_increase * acked_packets / cwnd_;
    } else {
      cwnd_ += config_->additive_increase * acked_packets;
    }
  } else if (can_decrease(now)) {
    const double overshoot = (rtt - config_->target_delay) / rtt;
    const double factor =
        std::max(1.0 - config_->beta * overshoot, 1.0 - config_->max_mdf);
    cwnd_ *= factor;
    last_decrease_ = now;
  }
  clamp();
}

void SwiftCC::on_loss(sim::Time now) {
  if (!can_decrease(now)) return;
  cwnd_ *= 1.0 - config_->max_mdf;
  last_decrease_ = now;
  clamp();
}

void SwiftCC::audit_invariants() const {
  AEQ_CHECK_GE_MSG(cwnd_, config_->min_cwnd, "Swift cwnd under min_cwnd");
  AEQ_CHECK_LE_MSG(cwnd_, std::max(config_->max_cwnd, config_->restart_cwnd),
                   "Swift cwnd above max_cwnd");
  AEQ_CHECK_GE_MSG(srtt_, 0.0, "Swift srtt negative");
}

}  // namespace aeq::transport
