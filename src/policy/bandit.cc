#include "policy/bandit.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::policy {

namespace {
constexpr double kEpsilonDecay = 0.99;  // per closed window
constexpr double kLearningRate = 0.2;
constexpr double kRejectPenalty = 0.5;  // reward -= penalty * rejected share
// Optimistic initial action value: explore every (state, action) once.
constexpr double kQInit = 1.0;
static_assert(kLearningRate > 0.0 && kLearningRate <= 1.0);
static_assert(kEpsilonDecay > 0.0 && kEpsilonDecay <= 1.0);
}  // namespace

BanditController::BanditController(const BanditConfig& config,
                                   std::size_t num_qos, rpc::SloConfig slo,
                                   sim::Rng rng)
    : WindowedController(num_qos, slo),
      config_(config),
      rng_(rng),
      epsilon_(config.epsilon0) {
  AEQ_ASSERT_MSG(!config_.actions.empty(),
                 "bandit needs at least one admit-probability action");
  for (double action : config_.actions) {
    AEQ_ASSERT_MSG(action >= 0.0 && action <= 1.0,
                   "bandit actions are admit probabilities in [0, 1]");
  }
  AEQ_ASSERT_MSG(config_.epsilon_min <= config_.epsilon0 &&
                     config_.epsilon0 <= 1.0 && config_.epsilon_min >= 0.0,
                 "bandit epsilon must satisfy 0 <= min <= initial <= 1");
  min_target_per_mtu_ = 0.0;
  for (std::size_t q = 0; q + 1 < this->slo().num_qos(); ++q) {
    const double target = this->slo().latency_target_per_mtu[q];
    AEQ_CHECK_GT(target, 0.0);
    min_target_per_mtu_ =
        min_target_per_mtu_ == 0.0 ? target
                                   : std::min(min_target_per_mtu_, target);
  }
  window_.resize(num_qos);
  q_.assign(kStates * config_.actions.size(), kQInit);
  // Start on the most permissive action: the empty-state prior is "admit",
  // matching every other policy's cold start.
  action_ = config_.actions.size() - 1;
}

rpc::AdmissionDecision BanditController::decide(
    sim::Time /*now*/, net::HostId /*src*/, net::HostId /*dst*/,
    net::QoSLevel qos_requested, std::uint64_t bytes) {
  rpc::AdmissionDecision decision{qos_requested, false, false};
  if (slo().has_slo(qos_requested)) {  // scavenger: never gated
    decision.p_admit = config_.actions[action_];
    // Strict comparison, as in core/aequitas.cc: p == 0 never admits.
    if (rng_.uniform() >= decision.p_admit) {
      decision.qos_run = lowest_qos();
      decision.downgraded = true;
      ++rejections_;
    }
  }
  ++decisions_;
  window_[decision.qos_run].offered_bytes += bytes;
  offered_bytes_ += bytes;
  return decision;
}

void BanditController::on_feedback(sim::Time /*now*/, net::HostId /*dst*/,
                                   net::QoSLevel qos_requested,
                                   net::QoSLevel /*qos_run*/, sim::Time rnl,
                                   std::uint64_t size_mtus, bool slo_met) {
  if (!slo().has_slo(qos_requested)) return;
  ++window_[qos_requested].completed;
  if (slo_met) ++window_[qos_requested].slo_met;
  norm_rnl_sum_ += rnl / static_cast<double>(size_mtus);
  ++norm_rnl_count_;
}

std::size_t BanditController::classify() const {
  // RNL band: mean normalized RNL vs the tightest per-MTU target.
  std::size_t rnl_band = 0;
  if (norm_rnl_count_ > 0) {
    const double ratio = norm_rnl_sum_ /
                         static_cast<double>(norm_rnl_count_) /
                         min_target_per_mtu_;
    rnl_band = ratio < 0.8 ? 0 : (ratio < 1.2 ? 1 : 2);
  }
  // Mix band: share of offered bytes admitted onto SLO classes.
  double slo_share = 0.0;
  if (offered_bytes_ > 0) {
    for (std::size_t q = 0; q + 1 < window_.size(); ++q) {
      slo_share += static_cast<double>(window_[q].offered_bytes) /
                   static_cast<double>(offered_bytes_);
    }
  }
  const std::size_t mix_band =
      slo_share < 0.4 ? 0 : (slo_share < 0.7 ? 1 : 2);
  return rnl_band * kMixBands + mix_band;
}

void BanditController::on_window() {
  // 1. Score the action that was live during this window.
  double worst_compliance = 1.0;
  std::uint64_t completed = 0;
  for (std::size_t q = 0; q + 1 < window_.size(); ++q) {
    if (window_[q].completed == 0) continue;
    completed += window_[q].completed;
    worst_compliance =
        std::min(worst_compliance,
                 static_cast<double>(window_[q].slo_met) /
                     static_cast<double>(window_[q].completed));
  }
  const double rejected_share =
      decisions_ == 0 ? 0.0
                      : static_cast<double>(rejections_) /
                            static_cast<double>(decisions_);
  if (completed > 0 || decisions_ > 0) {
    const double reward =
        worst_compliance - kRejectPenalty * rejected_share;
    double& value = q(state_, action_);
    value += kLearningRate * (reward - value);
  }

  // 2. Observe the next state and pick the next action.
  state_ = classify();
  for (ClassCounts& counts : window_) counts = ClassCounts{};
  offered_bytes_ = decisions_ = rejections_ = 0;
  norm_rnl_sum_ = 0.0;
  norm_rnl_count_ = 0;
  if (rng_.uniform() < epsilon_) {
    action_ = rng_.index(config_.actions.size());
  } else {
    action_ = 0;
    for (std::size_t a = 1; a < config_.actions.size(); ++a) {
      // Strict >: ties resolve to the lowest-index (most conservative)
      // action, deterministically.
      if (q(state_, a) > q(state_, action_)) action_ = a;
    }
  }
  epsilon_ = std::max(epsilon_ * kEpsilonDecay, config_.epsilon_min);
}

std::vector<rpc::Gauge> BanditController::gauges() const {
  // Rewards live in [-kRejectPenalty, 1]; Q-values are convex combinations
  // of rewards and kQInit, so they stay inside the hull of both.
  const double q_lo = std::min(-kRejectPenalty, kQInit);
  const double q_hi = std::max(1.0, kQInit);
  return {
      {"p_admit_action", config_.actions[action_], 0.0, 1.0},
      {"epsilon", epsilon_, config_.epsilon_min, config_.epsilon0},
      {"state", static_cast<double>(state_), 0.0,
       static_cast<double>(kStates - 1)},
      {"q_current", q(state_, action_), q_lo, q_hi},
  };
}

void BanditController::audit_invariants(sim::Time /*now*/) const {
  const double q_lo = std::min(-kRejectPenalty, kQInit);
  const double q_hi = std::max(1.0, kQInit);
  for (double value : q_) {
    AEQ_CHECK_GE_MSG(value, q_lo, "bandit Q-value below the reward hull");
    AEQ_CHECK_LE_MSG(value, q_hi, "bandit Q-value above the reward hull");
  }
  AEQ_CHECK_GE_MSG(epsilon_, config_.epsilon_min, "epsilon under its floor");
  AEQ_CHECK_LE_MSG(epsilon_, config_.epsilon0, "epsilon above its start");
}

}  // namespace aeq::policy
