// AdmissionSpec: the structured description of which admission policy an
// experiment runs and how it is parameterized — the admission-plane
// counterpart of ExperimentConfig::cc_kind + per-CC config blocks.
//
// A spec names a policy `kind` (a key in the policy registry,
// policy/registry.h) plus the Aequitas AIMD knobs, read only when `kind` is
// "aequitas". The other built-in policies run on their default configs
// below. ExperimentConfig::admission is the only way to choose or tune an
// experiment's admission policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "rpc/admission.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace aeq::sim {
class Simulator;
}  // namespace aeq::sim

namespace aeq::policy {

// Registry keys of the built-in policies.
inline constexpr const char* kAequitas = "aequitas";
inline constexpr const char* kAlwaysAdmit = "always-admit";
inline constexpr const char* kTicketPool = "ticket-pool";
inline constexpr const char* kBandit = "bandit";
inline constexpr const char* kSwpPacing = "swp-pacing";

// Width of the self-clocked observation windows every feedback-driven
// policy rolls (policy/windowed.h). Matches the telemetry default.
inline constexpr sim::Time kDefaultPolicyWindow = 100 * sim::kUsec;

// Aequitas AIMD knobs (core/aequitas.h, Algorithm 1). The SLO comes from
// ExperimentConfig::slo, not the spec.
struct AequitasParams {
  double alpha = 0.01;          // additive increment
  double beta_per_mtu = 0.01;   // multiplicative decrement per MTU of size
  double p_admit_floor = 0.01;  // starvation guard (§5.1)
};

// MongoDB-style throughput-probing ticket pool (SNIPPETS.md §3): a dynamic
// concurrency limit on in-flight SLO-class RPCs, probed up/down against a
// moving average of windowed ticketed goodput.
struct TicketPoolConfig {
  double initial_concurrency = 32.0;
  double min_concurrency = 4.0;
};

// Tabular epsilon-greedy bandit over (window RNL band, qos-mix band) state
// per Raeis et al. (PAPERS.md): each window closes an observation, scores
// the last action by SLO compliance minus a rejection penalty, and picks
// the next admit-probability level.
struct BanditConfig {
  // Discrete admit-probability actions, lowest to highest.
  std::vector<double> actions = {0.25, 0.5, 0.75, 1.0};
  double epsilon0 = 0.2;  // initial exploration rate
  double epsilon_min = 0.02;
};

// SWP-style workload-aware pacing without priorities (Zhao et al.,
// PAPERS.md): every RPC is collapsed onto one class and admission is a
// token bucket over payload bytes whose rate fraction adapts per window —
// multiplicative decrease when the window's normalized tail RNL violates
// the tightest SLO, additive increase otherwise.
struct SwpPacingConfig {
  double initial_rate_fraction = 0.9;  // of the host link rate
};

struct AdmissionSpec {
  // Registry key of the policy every host runs: "aequitas" (default,
  // Algorithm 1), "always-admit", "ticket-pool", "bandit" or "swp-pacing".
  // Other policies are installed through `factory`.
  std::string kind = kAequitas;

  // Read only when `kind` is "aequitas".
  AequitasParams aequitas;

  // Rejections become hard drops instead of scavenger downgrades (the
  // downgrade-vs-drop ablation): policies that natively downgrade are
  // wrapped in policy::RejectionAdapter; swp-pacing already drops.
  bool drop_rejects = false;

  // Escape hatch: when set, overrides `kind` and installs a caller-built
  // controller per host (ablations, quota policies, misalignment models).
  std::function<std::unique_ptr<rpc::AdmissionController>(
      sim::Simulator&, net::HostId, sim::Rng)>
      factory;
};

}  // namespace aeq::policy
