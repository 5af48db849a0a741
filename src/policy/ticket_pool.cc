#include "policy/ticket_pool.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::policy {

namespace {
constexpr double kMaxConcurrency = 4096.0;
constexpr double kProbeStep = 0.125;  // relative probe size per window
constexpr double kEmaWeight = 0.3;    // goodput moving-average weight (newest)
// Relative goodput improvement a probe must show to be adopted.
constexpr double kAdoptMargin = 0.02;
static_assert(kProbeStep > 0.0);
static_assert(kEmaWeight > 0.0 && kEmaWeight <= 1.0);
}  // namespace

TicketPoolController::TicketPoolController(const TicketPoolConfig& config,
                                           std::size_t num_qos,
                                           rpc::SloConfig slo)
    : WindowedController(num_qos, std::move(slo)),
      config_(config),
      limit_(config.initial_concurrency),
      stable_limit_(config.initial_concurrency) {
  AEQ_CHECK_GT(config_.min_concurrency, 0.0);
  AEQ_CHECK_GE(kMaxConcurrency, config_.min_concurrency);
  limit_ = clamp_limit(limit_);
  stable_limit_ = limit_;
}

double TicketPoolController::clamp_limit(double limit) const {
  return std::min(std::max(limit, config_.min_concurrency),
                  kMaxConcurrency);
}

rpc::AdmissionDecision TicketPoolController::decide(
    sim::Time /*now*/, net::HostId /*src*/, net::HostId /*dst*/,
    net::QoSLevel qos_requested, std::uint64_t /*bytes*/) {
  if (!slo().has_slo(qos_requested)) {
    // Scavenger class: never ticketed, never gated.
    return {qos_requested, false, false};
  }
  const double available =
      limit_ - static_cast<double>(in_flight_);
  if (available >= 1.0) {
    ++in_flight_;
    return {qos_requested, false, false,
            std::min(available / limit_, 1.0)};
  }
  // Pool exhausted: reject to the scavenger class (the RejectionAdapter
  // turns this into a drop under drop_rejects).
  return {lowest_qos(), true, false, 0.0};
}

void TicketPoolController::on_feedback(sim::Time /*now*/,
                                       net::HostId /*dst*/,
                                       net::QoSLevel /*qos_requested*/,
                                       net::QoSLevel qos_run,
                                       sim::Time /*rnl*/,
                                       std::uint64_t /*size_mtus*/,
                                       bool /*slo_met*/) {
  // Only RPCs that ran on an SLO class held a ticket (downgraded ones run
  // on the scavenger class and took none).
  if (!slo().has_slo(qos_run)) return;
  AEQ_CHECK_GT(in_flight_, 0);
  --in_flight_;
  ++ticketed_completions_;
}

void TicketPoolController::on_window() {
  const double observed = static_cast<double>(ticketed_completions_);
  ticketed_completions_ = 0;
  goodput_ema_ = kEmaWeight * observed +
                 (1.0 - kEmaWeight) * goodput_ema_;

  switch (probe_) {
    case Probe::kStable:
      // Launch an upward probe from the adopted limit.
      best_goodput_ = goodput_ema_;
      limit_ = clamp_limit(stable_limit_ * (1.0 + kProbeStep));
      probe_ = limit_ > stable_limit_ ? Probe::kUp : Probe::kDown;
      if (probe_ == Probe::kDown) {
        // Already pinned at max: probe downward instead.
        limit_ = clamp_limit(stable_limit_ * (1.0 - kProbeStep));
      }
      break;
    case Probe::kUp:
      if (goodput_ema_ > best_goodput_ * (1.0 + kAdoptMargin)) {
        // More concurrency bought more goodput: adopt and keep climbing.
        stable_limit_ = limit_;
        best_goodput_ = goodput_ema_;
        limit_ = clamp_limit(stable_limit_ * (1.0 + kProbeStep));
        if (limit_ == stable_limit_) probe_ = Probe::kStable;
      } else {
        // No improvement: try shedding concurrency below the stable point.
        limit_ = clamp_limit(stable_limit_ * (1.0 - kProbeStep));
        probe_ = limit_ < stable_limit_ ? Probe::kDown : Probe::kStable;
      }
      break;
    case Probe::kDown:
      if (goodput_ema_ >= best_goodput_ * (1.0 - kAdoptMargin)) {
        // Same goodput with fewer tickets: the smaller pool wins (less
        // in-flight work, same throughput — MongoDB's adopt-down rule).
        stable_limit_ = limit_;
        best_goodput_ = std::max(best_goodput_, goodput_ema_);
      } else {
        limit_ = stable_limit_;  // revert
      }
      probe_ = Probe::kStable;
      break;
  }
}

std::vector<rpc::Gauge> TicketPoolController::gauges() const {
  return {
      {"tickets_limit", limit_, config_.min_concurrency,
       kMaxConcurrency},
      {"tickets_in_flight", static_cast<double>(in_flight_), 0.0,
       rpc::kGaugeUnbounded},
      {"goodput_ema", goodput_ema_, 0.0, rpc::kGaugeUnbounded},
      {"probe_state", static_cast<double>(static_cast<int>(probe_)), 0.0,
       2.0},
  };
}

void TicketPoolController::audit_invariants(sim::Time /*now*/) const {
  AEQ_CHECK_GE_MSG(in_flight_, 0, "ticket pool released more than it took");
  AEQ_CHECK_GE_MSG(limit_, config_.min_concurrency,
                   "concurrency limit below its floor");
  AEQ_CHECK_LE_MSG(limit_, kMaxConcurrency,
                   "concurrency limit above its ceiling");
  AEQ_CHECK_GE_MSG(goodput_ema_, 0.0, "negative goodput average");
}

}  // namespace aeq::policy
