// WindowedController: base class for admission policies that adapt once per
// fixed observation window.
//
// Windows are host-local and SELF-CLOCKED: the controller closes every
// window [k*W, (k+1)*W) lazily, when the first admit/on_completion call at
// or past the window's end arrives, and calls on_window() once per closed
// window. No scheduler events are ever created, so
//   * enabling a windowed policy adds nothing to the schedule digest,
//   * behavior is identical at any shard count (each host's stream is
//     bit-identical under the PDES executive), and
//   * the policy works with telemetry off — it never depends on the
//     obs::TimeseriesSink, whose windowed pipeline is read-only by contract
//     and unavailable at shards > 1.
//
// The base keeps only the clock and the SLO verdict: each policy counts
// what it adapts on itself, in decide() and on_feedback(), and folds it in
// on_window(). Empty windows across idle gaps are closed one by one, so
// window-indexed adaptation (EMA decay, epsilon decay, additive increase)
// sees simulated time, not call counts.
#pragma once

#include <cstdint>

#include "policy/spec.h"
#include "rpc/admission.h"
#include "rpc/slo.h"

namespace aeq::policy {

class WindowedController : public rpc::AdmissionController {
 public:
  // Windows are kDefaultPolicyWindow wide.
  WindowedController(std::size_t num_qos, rpc::SloConfig slo);

  rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                               net::HostId dst, net::QoSLevel qos_requested,
                               std::uint64_t bytes) final;

  void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                     net::QoSLevel qos_requested, net::QoSLevel qos_run,
                     sim::Time rnl, std::uint64_t size_mtus) final;

  std::uint64_t windows_closed() const { return window_index_; }

 protected:
  // Called once per closed window, in window order, before the call that
  // closed it reaches decide() or on_feedback().
  virtual void on_window() = 0;

  // The per-RPC decision, called after every window up to `now` has been
  // closed.
  virtual rpc::AdmissionDecision decide(sim::Time now, net::HostId src,
                                        net::HostId dst,
                                        net::QoSLevel qos_requested,
                                        std::uint64_t bytes) = 0;

  // Per-completion feedback, after window rolling; default ignores it.
  // `slo_met` is the verdict against the *requested* class's normalized
  // target (false for scavenger-requested completions, which have no SLO).
  virtual void on_feedback(sim::Time now, net::HostId dst,
                           net::QoSLevel qos_requested, net::QoSLevel qos_run,
                           sim::Time rnl, std::uint64_t size_mtus,
                           bool slo_met);

  const rpc::SloConfig& slo() const { return slo_; }
  net::QoSLevel lowest_qos() const {
    return static_cast<net::QoSLevel>(slo_.num_qos() - 1);
  }

 private:
  void roll_to(sim::Time now);

  rpc::SloConfig slo_;
  // The open window is [window_index_ * kDefaultPolicyWindow, ...).
  std::uint64_t window_index_ = 0;
};

}  // namespace aeq::policy
