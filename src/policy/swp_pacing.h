// SWP-style workload-aware pacing without priorities (Zhao et al.,
// PAPERS.md, arXiv 2103.01314) — the strong no-QoS baseline.
//
// SWP's premise is that microsecond-scale SLOs are achievable without any
// priority fabric if hosts pace what they inject. Expressed inside this
// simulator's QoS machinery: every admitted RPC, whatever it requested,
// runs on ONE class (the top class, so the whole fabric degenerates to a
// single queue), and admission is a token bucket over
// payload bytes refilled at `rate_fraction * link_rate`. The rate adapts
// per window — AIMD on the pacing fraction: multiplicative decrease when
// the window's p99 size-normalized RNL violates the tightest configured
// SLO target, additive increase otherwise. Over-budget RPCs are rejected:
// dropped under drop_rejects (classic pacing/limiting), otherwise admitted
// onto the true scavenger class as unpaced spillover — the only "lower
// than everyone" escape a no-priority design can offer.
#pragma once

#include <cstdint>

#include "policy/spec.h"
#include "policy/windowed.h"
#include "stats/log_histogram.h"

namespace aeq::policy {

class SwpPacingController final : public WindowedController {
 public:
  SwpPacingController(const SwpPacingConfig& config, std::size_t num_qos,
                      rpc::SloConfig slo, sim::Rate link_rate,
                      bool drop_rejects);

  std::vector<rpc::Gauge> gauges() const override;
  void audit_invariants(sim::Time now) const override;

  double rate_fraction() const { return rate_fraction_; }

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
  double bucket_capacity() const;
  void refill(sim::Time now);

  sim::Rate link_rate_;
  bool drop_rejects_;
  double min_target_per_mtu_;  // tightest SLO-class per-MTU target

  double rate_fraction_;
  double tokens_;  // bytes
  sim::Time last_refill_ = 0.0;
  std::uint64_t violating_windows_ = 0;

  // Size-normalized RNL of the current window's completions.
  stats::LogHistogram norm_rnl_;
};

}  // namespace aeq::policy
