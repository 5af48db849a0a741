// MongoDB-style throughput-probing ticket pool (SNIPPETS.md §3).
//
// Admission to any SLO-carrying QoS requires a ticket from a host-wide pool
// whose size (the concurrency limit) is not fixed but *probed*: each closed
// window measures ticketed goodput (completions of RPCs that held a
// ticket), folds it into an exponential moving average, and a three-state
// machine — stable / probing up / probing down — moves the limit by a
// relative step (kProbeStep) and keeps the probe only if the measured
// goodput improved (up) or at least did not degrade (down). When the pool
// is empty the RPC is rejected to the scavenger class (or dropped under
// drop_rejects), so the pool bounds host-local in-flight SLO work the way
// MongoDB's execution control bounds storage-engine concurrency.
//
// Scavenger-requested RPCs bypass the pool entirely: tickets exist to
// protect the SLO classes, and a downgraded RPC holds no ticket (its
// completion releases nothing).
#pragma once

#include <cstdint>

#include "policy/spec.h"
#include "policy/windowed.h"

namespace aeq::policy {

class TicketPoolController final : public WindowedController {
 public:
  TicketPoolController(const TicketPoolConfig& config, std::size_t num_qos,
                       rpc::SloConfig slo);

  std::vector<rpc::Gauge> gauges() const override;
  void audit_invariants(sim::Time now) const override;

  double concurrency_limit() const { return limit_; }
  std::int64_t tickets_in_flight() const { return in_flight_; }

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
  enum class Probe { kStable, kUp, kDown };

  double clamp_limit(double limit) const;

  TicketPoolConfig config_;
  double limit_;         // current (probed) concurrency limit
  double stable_limit_;  // last adopted limit to revert to
  std::int64_t in_flight_ = 0;
  Probe probe_ = Probe::kStable;
  double goodput_ema_ = 0.0;  // ticketed completions per window, smoothed
  double best_goodput_ = 0.0;
  std::uint64_t ticketed_completions_ = 0;  // current window
};

}  // namespace aeq::policy
