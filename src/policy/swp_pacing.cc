#include "policy/swp_pacing.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::policy {

namespace {
// Normalized (per-MTU) RNL histogram shape: targets are microseconds per
// MTU, so [10ns, 10ms] covers everything observable at 2% error.
constexpr double kNormRnlMin = 0.01 * sim::kUsec;
constexpr double kNormRnlMax = 10.0 * sim::kMsec;
constexpr double kNormRnlPrecision = 0.02;

// Pacing AIMD on the fraction of the host link rate.
constexpr double kMinRateFraction = 0.05;
constexpr double kMaxRateFraction = 1.0;
constexpr double kIncreasePerWindow = 0.01;  // additive
constexpr double kDecreaseFactor = 0.8;      // multiplicative on violation
constexpr double kBurstWindows = 2.0;  // bucket depth, in windows at rate
static_assert(kMinRateFraction > 0.0 && kMinRateFraction <= kMaxRateFraction &&
              kMaxRateFraction <= 1.0);
static_assert(kDecreaseFactor > 0.0 && kDecreaseFactor < 1.0);
static_assert(kBurstWindows > 0.0);

// The single class all admitted traffic runs on. Everything shares one
// queue — SWP's "no priorities" premise expressed inside a QoS fabric. It
// is never the scavenger class, which over-budget RPCs spill onto.
constexpr net::QoSLevel kRunQos = net::kQoSHigh;
}  // namespace

SwpPacingController::SwpPacingController(const SwpPacingConfig& config,
                                         std::size_t num_qos,
                                         rpc::SloConfig slo,
                                         sim::Rate link_rate,
                                         bool drop_rejects)
    : WindowedController(num_qos, slo),
      link_rate_(link_rate),
      drop_rejects_(drop_rejects),
      rate_fraction_(config.initial_rate_fraction),
      norm_rnl_(kNormRnlMin, kNormRnlMax, kNormRnlPrecision) {
  AEQ_CHECK_GT(link_rate_, 0.0);
  rate_fraction_ = std::min(
      std::max(rate_fraction_, kMinRateFraction),
      kMaxRateFraction);
  min_target_per_mtu_ = 0.0;
  for (std::size_t q = 0; q + 1 < this->slo().num_qos(); ++q) {
    const double target = this->slo().latency_target_per_mtu[q];
    AEQ_CHECK_GT(target, 0.0);
    min_target_per_mtu_ =
        min_target_per_mtu_ == 0.0 ? target
                                   : std::min(min_target_per_mtu_, target);
  }
  tokens_ = bucket_capacity();
}

double SwpPacingController::bucket_capacity() const {
  // Bucket depth: kBurstWindows windows' worth of bytes at the current
  // pacing rate — deep enough to absorb one burst period, shallow enough
  // that sustained overload hits the gate within a few windows.
  return kBurstWindows * rate_fraction_ * link_rate_ *
         kDefaultPolicyWindow;
}

void SwpPacingController::refill(sim::Time now) {
  const sim::Time elapsed = now - last_refill_;
  last_refill_ = now;
  if (elapsed <= 0.0) return;
  // link_rate is bytes/sec (sim::Rate); tokens are payload bytes.
  tokens_ = std::min(tokens_ + elapsed * rate_fraction_ * link_rate_,
                     bucket_capacity());
}

rpc::AdmissionDecision SwpPacingController::decide(
    sim::Time now, net::HostId /*src*/, net::HostId /*dst*/,
    net::QoSLevel qos_requested, std::uint64_t bytes) {
  refill(now);
  const double cost = static_cast<double>(bytes);
  if (tokens_ >= cost) {
    tokens_ -= cost;
    // One class for everything: the no-priority collapse. `downgraded` is
    // reserved for actual rejections so admitted-share accounting reads
    // "paced in" vs "paced out", not the class remap.
    return {kRunQos, false, false, rate_fraction_};
  }
  if (drop_rejects_) {
    return {qos_requested, false, true, rate_fraction_};
  }
  // Over budget without drops: spill onto the true scavenger class.
  return {lowest_qos(), true, false, rate_fraction_};
}

void SwpPacingController::on_feedback(sim::Time /*now*/, net::HostId /*dst*/,
                                      net::QoSLevel /*qos_requested*/,
                                      net::QoSLevel qos_run, sim::Time rnl,
                                      std::uint64_t size_mtus,
                                      bool /*slo_met*/) {
  // Pace against what the paced class actually delivers; scavenger
  // spillover is already outside the budget.
  if (qos_run != kRunQos) return;
  norm_rnl_.add(rnl / static_cast<double>(size_mtus));
}

void SwpPacingController::on_window() {
  const bool violating =
      norm_rnl_.count() > 0 && norm_rnl_.p99() >= min_target_per_mtu_;
  norm_rnl_.reset();
  if (violating) {
    ++violating_windows_;
    rate_fraction_ = std::max(rate_fraction_ * kDecreaseFactor,
                              kMinRateFraction);
    // Shrink the bucket with the rate: stale burst credit must not carry
    // the old rate into the new window.
    tokens_ = std::min(tokens_, bucket_capacity());
  } else {
    rate_fraction_ = std::min(
        rate_fraction_ + kIncreasePerWindow,
        kMaxRateFraction);
  }
}

std::vector<rpc::Gauge> SwpPacingController::gauges() const {
  return {
      {"rate_fraction", rate_fraction_, kMinRateFraction,
       kMaxRateFraction},
      {"bucket_tokens", tokens_, 0.0, rpc::kGaugeUnbounded},
      {"violating_windows", static_cast<double>(violating_windows_), 0.0,
       rpc::kGaugeUnbounded},
  };
}

void SwpPacingController::audit_invariants(sim::Time now) const {
  AEQ_CHECK_GE_MSG(rate_fraction_, kMinRateFraction,
                   "pacing rate below its floor");
  AEQ_CHECK_LE_MSG(rate_fraction_, kMaxRateFraction,
                   "pacing rate above its ceiling");
  AEQ_CHECK_GE_MSG(tokens_, 0.0, "negative token balance");
  AEQ_CHECK_LE_MSG(last_refill_, now, "token refill timestamp in the future");
}

}  // namespace aeq::policy
