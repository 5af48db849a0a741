#include "policy/windowed.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::policy {

namespace {
// RNL histogram shape, matching the telemetry sink's defaults: <= 2%
// relative error within [0.1us, 1s], clamping outside.
constexpr double kRnlMin = 0.1 * sim::kUsec;
constexpr double kRnlMax = 1.0;
constexpr double kRnlPrecision = 0.02;
}  // namespace

WindowedController::WindowedController(std::size_t num_qos,
                                       rpc::SloConfig slo)
    : num_qos_(num_qos), slo_(std::move(slo)) {
  AEQ_CHECK_GE(num_qos_, 2u);
  AEQ_CHECK_EQ(slo_.num_qos(), num_qos_);
  qos_.resize(num_qos_);
  rnl_.reserve(num_qos_);
  for (std::size_t q = 0; q < num_qos_; ++q) {
    rnl_.emplace_back(kRnlMin, kRnlMax, kRnlPrecision);
  }
}

void WindowedController::roll_to(sim::Time now) {
  // Close every window whose end is <= now, delivering each (including
  // empty ones across idle gaps) so window-indexed adaptation tracks
  // simulated time.
  while (now >=
         static_cast<double>(window_index_ + 1) * kDefaultPolicyWindow) {
    close_window();
  }
}

void WindowedController::close_window() {
  obs::WindowStats window;
  window.index = window_index_;
  window.start = static_cast<double>(window_index_) * kDefaultPolicyWindow;
  window.end = static_cast<double>(window_index_ + 1) * kDefaultPolicyWindow;
  window.qos.resize(num_qos_);
  for (std::size_t q = 0; q < num_qos_; ++q) {
    obs::WindowStats::QosStats& out = window.qos[q];
    out.completed = qos_[q].completed;
    out.terminated = qos_[q].terminated;
    out.slo_met = qos_[q].slo_met;
    out.slo_compliance =
        out.completed == 0
            ? 1.0
            : static_cast<double>(out.slo_met) /
                  static_cast<double>(out.completed);
    out.rnl_p50 = rnl_[q].p50();
    out.rnl_p90 = rnl_[q].percentile(90.0);
    out.rnl_p99 = rnl_[q].p99();
    out.bytes = qos_[q].bytes;
    out.byte_share = bytes_total_ == 0
                         ? 0.0
                         : static_cast<double>(out.bytes) /
                               static_cast<double>(bytes_total_);
  }
  window.admits = admits_;
  window.downgrades = downgrades_;
  window.admission_drops = drops_;
  const std::uint64_t decisions = admits_ + downgrades_ + drops_;
  window.p_admit_mean =
      decisions == 0 ? 1.0 : p_admit_sum_ / static_cast<double>(decisions);
  window.p_admit_min = p_admit_min_;
  window.generated = generated_;
  window.completed_total = completed_total_;
  window.terminated_total = drops_;
  window.bytes_total = bytes_total_;
  window.cum_generated = cum_generated_;
  window.cum_finished = cum_finished_;

  // Reset before delivering: a policy reacting to the window must observe
  // a clean accumulator for the next one even if it re-enters (it cannot —
  // decide()/on_feedback() run strictly after roll_to — but cheap safety).
  for (auto& q : qos_) q = QosAccum{};
  for (auto& h : rnl_) h.reset();
  admits_ = downgrades_ = drops_ = 0;
  generated_ = completed_total_ = bytes_total_ = 0;
  p_admit_sum_ = 0.0;
  p_admit_min_ = 1.0;
  ++window_index_;

  on_window(window);
}

void WindowedController::note_decision(
    const rpc::AdmissionDecision& decision, net::QoSLevel qos_requested,
    std::uint64_t bytes) {
  ++generated_;
  ++cum_generated_;
  p_admit_sum_ += decision.p_admit;
  p_admit_min_ = std::min(p_admit_min_, decision.p_admit);
  if (decision.dropped) {
    ++drops_;
    ++cum_finished_;  // rejected on the spot: never outstanding
    qos_[qos_requested].terminated++;
    return;
  }
  if (decision.downgraded) {
    ++downgrades_;
  } else {
    ++admits_;
  }
  qos_[decision.qos_run].bytes += bytes;
  bytes_total_ += bytes;
}

rpc::AdmissionDecision WindowedController::admit(sim::Time now,
                                                 net::HostId src,
                                                 net::HostId dst,
                                                 net::QoSLevel qos_requested,
                                                 std::uint64_t bytes) {
  roll_to(now);
  const rpc::AdmissionDecision decision =
      decide(now, src, dst, qos_requested, bytes);
  note_decision(decision, qos_requested, bytes);
  return decision;
}

void WindowedController::on_completion(sim::Time now, net::HostId /*src*/,
                                       net::HostId dst,
                                       net::QoSLevel qos_requested,
                                       net::QoSLevel qos_run, sim::Time rnl,
                                       std::uint64_t size_mtus) {
  roll_to(now);
  AEQ_CHECK_GE(size_mtus, 1u);
  ++completed_total_;
  ++cum_finished_;
  qos_[qos_requested].completed++;
  rnl_[qos_requested].add(rnl);
  bool slo_met = false;
  if (slo_.has_slo(qos_requested)) {
    slo_met = rnl < slo_.absolute_target(qos_requested, size_mtus);
    if (slo_met) qos_[qos_requested].slo_met++;
  }
  on_feedback(now, dst, qos_requested, qos_run, rnl, size_mtus, slo_met);
}

void WindowedController::on_feedback(sim::Time /*now*/, net::HostId /*dst*/,
                                     net::QoSLevel /*qos_requested*/,
                                     net::QoSLevel /*qos_run*/,
                                     sim::Time /*rnl*/,
                                     std::uint64_t /*size_mtus*/,
                                     bool /*slo_met*/) {}

}  // namespace aeq::policy
