// Tabular contextual bandit over (window RNL band, qos-mix band) state,
// per Raeis et al.'s learned admission control (PAPERS.md, arXiv
// 2008.09590), reduced to the simplest deterministic form that can still
// adapt: epsilon-greedy action selection over discrete admit-probability
// levels, one action per observation window.
//
// State (9 cells by default):
//   * RNL band — the window's mean size-normalized RNL of SLO-class
//     completions relative to the tightest per-MTU target: under (< 0.8x),
//     near ([0.8x, 1.2x)), over (>= 1.2x).
//   * Mix band — the share of offered bytes admitted onto SLO classes:
//     low (< 0.4), mid ([0.4, 0.7)), high (>= 0.7).
// Action: the admit probability applied to SLO-class requests until the
// next window closes. Reward: the window's worst SLO-class compliance
// minus a penalty (kRejectPenalty) times the rejected share. Q-learning
// without a bootstrap term (a bandit, not full RL): Q += lr * (r - Q).
//
// All randomness (Bernoulli admit draws, epsilon exploration) comes from
// the controller's own forked sim::Rng stream, so runs are reproducible
// across backends and shard counts.
#pragma once

#include <cstdint>
#include <vector>

#include "policy/spec.h"
#include "policy/windowed.h"
#include "sim/rng.h"

namespace aeq::policy {

class BanditController final : public WindowedController {
 public:
  BanditController(const BanditConfig& config, std::size_t num_qos,
                   rpc::SloConfig slo, sim::Rng rng);

  std::vector<rpc::Gauge> gauges() const override;
  void audit_invariants(sim::Time now) const override;

  double current_p_admit() const { return config_.actions[action_]; }
  double epsilon() const { return epsilon_; }

 protected:
  void on_window() override;

  rpc::AdmissionDecision decide(sim::Time now, net::HostId src,
                                net::HostId dst, net::QoSLevel qos_requested,
                                std::uint64_t bytes) override;

  void on_feedback(sim::Time now, net::HostId dst,
                   net::QoSLevel qos_requested, net::QoSLevel qos_run,
                   sim::Time rnl, std::uint64_t size_mtus,
                   bool slo_met) override;

 private:
  static constexpr std::size_t kRnlBands = 3;
  static constexpr std::size_t kMixBands = 3;
  static constexpr std::size_t kStates = kRnlBands * kMixBands;

  std::size_t classify() const;
  double& q(std::size_t state, std::size_t action) {
    return q_[state * config_.actions.size() + action];
  }
  double q(std::size_t state, std::size_t action) const {
    return q_[state * config_.actions.size() + action];
  }

  BanditConfig config_;
  sim::Rng rng_;
  double min_target_per_mtu_;  // tightest SLO-class per-MTU target

  std::vector<double> q_;  // kStates x actions, row-major
  std::size_t state_ = 0;
  std::size_t action_;     // index into config_.actions
  double epsilon_;

  // The current window's observations. Completions count by requested
  // SLO class; offered payload counts by the class the RPC was admitted
  // onto, at decision time.
  struct ClassCounts {
    std::uint64_t completed = 0;
    std::uint64_t slo_met = 0;
    std::uint64_t offered_bytes = 0;
  };
  std::vector<ClassCounts> window_;  // by QoS level
  std::uint64_t offered_bytes_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t rejections_ = 0;
  // Size-normalized RNL of SLO-class completions.
  double norm_rnl_sum_ = 0.0;
  std::uint64_t norm_rnl_count_ = 0;
};

}  // namespace aeq::policy
