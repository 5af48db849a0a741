#include "policy/windowed.h"

#include <utility>

#include "sim/assert.h"

namespace aeq::policy {

WindowedController::WindowedController(std::size_t num_qos,
                                       rpc::SloConfig slo)
    : slo_(std::move(slo)) {
  AEQ_CHECK_GE(num_qos, 2u);
  AEQ_CHECK_EQ(slo_.num_qos(), num_qos);
}

void WindowedController::roll_to(sim::Time now) {
  // Close every window whose end is <= now, delivering each (including
  // empty ones across idle gaps) so window-indexed adaptation tracks
  // simulated time.
  while (now >=
         static_cast<double>(window_index_ + 1) * kDefaultPolicyWindow) {
    ++window_index_;
    on_window();
  }
}

rpc::AdmissionDecision WindowedController::admit(sim::Time now,
                                                 net::HostId src,
                                                 net::HostId dst,
                                                 net::QoSLevel qos_requested,
                                                 std::uint64_t bytes) {
  roll_to(now);
  return decide(now, src, dst, qos_requested, bytes);
}

void WindowedController::on_completion(sim::Time now, net::HostId /*src*/,
                                       net::HostId dst,
                                       net::QoSLevel qos_requested,
                                       net::QoSLevel qos_run, sim::Time rnl,
                                       std::uint64_t size_mtus) {
  roll_to(now);
  AEQ_CHECK_GE(size_mtus, 1u);
  on_feedback(now, dst, qos_requested, qos_run, rnl, size_mtus,
              slo_.met(qos_requested, rnl, size_mtus));
}

void WindowedController::on_feedback(sim::Time /*now*/, net::HostId /*dst*/,
                                     net::QoSLevel /*qos_requested*/,
                                     net::QoSLevel /*qos_run*/,
                                     sim::Time /*rnl*/,
                                     std::uint64_t /*size_mtus*/,
                                     bool /*slo_met*/) {}

}  // namespace aeq::policy
