// Admission-control interface the RPC stack consults on every issue, and the
// trivial pass-through used for "w/o Aequitas" baselines. Policies live in
// src/policy/ (registry + competing controllers) and core/aequitas.h
// (Algorithm 1, the paper's policy).
//
// Contract
// --------
//  * admit() runs once per RPC issue and returns where the RPC runs (or
//    that it is rejected outright).
//  * on_completion() runs once per *admitted* RPC when it finishes —
//    including deadline-terminated RPCs, whose RNL is measured at the kill.
//    A decision with `dropped == true` never generates completion feedback:
//    the RPC never entered the network, so there is no RNL to learn from.
//    Controllers that convert downgrades into drops (the downgrade-vs-drop
//    ablation, quota hard limits) must not expect feedback for them either;
//    the regression suite in tests/policy_test.cc pins this down.
//  * gauges() / audit_invariants() are read-only introspection: the audit
//    and telemetry layers call them mid-run, so they must not mutate state
//    or consume randomness (results are bit-identical with auditing on or
//    off).
//  * admit() and on_completion() are a policy's only inputs. A policy that
//    adapts per window clocks its windows from these calls
//    (policy/windowed.h), so it creates no scheduler events and leaves the
//    schedule digest unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/packet.h"
#include "sim/units.h"

namespace aeq::rpc {

struct AdmissionDecision {
  net::QoSLevel qos_run;
  bool downgraded = false;
  // Classic admission control: reject outright instead of downgrading.
  // Aequitas never sets this; it exists for the downgrade-vs-drop ablation
  // and for quota policies that enforce hard limits. A dropped RPC is
  // terminated on the spot and MUST NOT be reported back through
  // on_completion (see the contract above).
  bool dropped = false;
  // The (dst, qos_requested) channel's admit probability at decision time;
  // 1.0 for controllers without probabilistic admission. Surfaced to the
  // observability layer (obs::AdmissionDecision) so traces can correlate
  // downgrades with the AIMD state that caused them.
  double p_admit = 1.0;
};

// One named scalar a controller exposes for introspection, with its
// documented bounds. The audit layer asserts lo <= value <= hi on every
// sweep; benches render gauge tables from the same surface. Use
// kGaugeUnbounded for a side with no meaningful limit.
inline constexpr double kGaugeUnbounded =
    std::numeric_limits<double>::infinity();

struct Gauge {
  const char* name;  // stable identifier, e.g. "p_admit_min"
  double value = 0.0;
  double lo = 0.0;
  double hi = 1.0;
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  // Decides the QoS an RPC of `bytes` payload requested at `qos_requested`
  // actually runs at (or whether it is rejected).
  virtual AdmissionDecision admit(sim::Time now, net::HostId src,
                                  net::HostId dst,
                                  net::QoSLevel qos_requested,
                                  std::uint64_t bytes) = 0;

  // Feedback on completion: measured RNL of an RPC that was *admitted*
  // (possibly downgraded: qos_run != qos_requested) and finished at `now`.
  // Never called for dropped decisions.
  virtual void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                             net::QoSLevel qos_requested,
                             net::QoSLevel qos_run, sim::Time rnl,
                             std::uint64_t size_mtus) = 0;

  // Read-only introspection: named scalars with documented bounds. The
  // audit catalogue's admission/gauge-bounds check asserts each value sits
  // inside [lo, hi]; benches print them as per-policy columns.
  virtual std::vector<Gauge> gauges() const { return {}; }

  // Read-only invariant sweep (audit catalogue, admission/invariants).
  // Aborts via AEQ_CHECK_* on violation; the default has nothing to check.
  virtual void audit_invariants(sim::Time now) const { (void)now; }
};

// Admits everything on its requested QoS (the pre-Aequitas world).
class AlwaysAdmit final : public AdmissionController {
 public:
  AdmissionDecision admit(sim::Time, net::HostId, net::HostId,
                          net::QoSLevel qos_requested,
                          std::uint64_t) override {
    return {qos_requested, false, false};
  }
  void on_completion(sim::Time, net::HostId, net::HostId, net::QoSLevel,
                     net::QoSLevel, sim::Time, std::uint64_t) override {}
};

}  // namespace aeq::rpc
