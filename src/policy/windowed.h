// WindowedController: base class for admission policies driven by periodic
// window feedback (rpc::AdmissionController::on_window).
//
// Windows are host-local and SELF-CLOCKED: the controller accumulates its
// own admit/on_completion stream and closes every window [k*W, (k+1)*W)
// lazily, when the first call at or past the window's end arrives. No
// scheduler events are ever created, so
//   * enabling a windowed policy adds nothing to the schedule digest,
//   * behavior is identical at any shard count (each host's stream is
//     bit-identical under the PDES executive), and
//   * the policy works with telemetry off — it never depends on the
//     obs::TimeseriesSink, whose windowed pipeline is read-only by contract
//     and unavailable at shards > 1.
//
// The observation vocabulary is obs::WindowStats — the same record the
// telemetry sink emits — restricted to what the controller itself can see:
// RPC-level stats are attributed to the *requested* QoS, `bytes` counts
// *offered* payload by the QoS the RPC was admitted onto (at decision time;
// the controller never learns payload sizes at completion), and port stats
// stay empty. Empty windows across idle gaps are closed one by one, so
// window-indexed adaptation (EMA decay, epsilon decay, additive increase)
// sees simulated time, not call counts.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/timeseries_sink.h"
#include "policy/spec.h"
#include "rpc/admission.h"
#include "rpc/slo.h"
#include "stats/log_histogram.h"

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
  // The per-RPC decision, called after every window up to `now` has been
  // closed and delivered through on_window().
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
  std::size_t num_qos() const { return num_qos_; }
  net::QoSLevel lowest_qos() const {
    return static_cast<net::QoSLevel>(num_qos_ - 1);
  }

 private:
  void roll_to(sim::Time now);
  void close_window();
  void note_decision(const rpc::AdmissionDecision& decision,
                     net::QoSLevel qos_requested, std::uint64_t bytes);

  std::size_t num_qos_;
  rpc::SloConfig slo_;

  // Accumulators of the currently open window
  // [window_index_ * kDefaultPolicyWindow, ...).
  std::uint64_t window_index_ = 0;
  struct QosAccum {
    std::uint64_t completed = 0;  // by requested QoS
    std::uint64_t slo_met = 0;
    std::uint64_t terminated = 0;  // admission rejections (drops)
    std::uint64_t bytes = 0;       // offered payload admitted onto this QoS
  };
  std::vector<QosAccum> qos_;
  std::vector<stats::LogHistogram> rnl_;  // per requested QoS
  std::uint64_t admits_ = 0;
  std::uint64_t downgrades_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t bytes_total_ = 0;
  double p_admit_sum_ = 0.0;
  double p_admit_min_ = 1.0;
  std::uint64_t cum_generated_ = 0;
  std::uint64_t cum_finished_ = 0;
};

}  // namespace aeq::policy
