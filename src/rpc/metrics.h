// Cluster-wide RPC metrics sink shared by all hosts in an experiment.
//
// Tracks, per QoS level: RNL percentiles (by the QoS the RPC ran at; per
// MTU too, on request), admitted/downgraded counts and bytes, SLO
// compliance, and outstanding-RPC gauges per destination (for Figure 13).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "rpc/priority.h"
#include "rpc/slo.h"
#include "sim/units.h"
#include "stats/percentile.h"

namespace aeq::rpc {

struct RpcRecord {
  std::uint64_t rpc_id = 0;
  net::HostId src = net::kNoHost;
  net::HostId dst = net::kNoHost;
  Priority priority = Priority::kPC;
  net::QoSLevel qos_requested = net::kQoSHigh;
  net::QoSLevel qos_run = net::kQoSHigh;
  bool downgraded = false;
  bool terminated = false;  // killed by a deadline protocol (D3/PDQ)
  std::uint64_t bytes = 0;
  std::uint64_t size_mtus = 1;
  sim::Time issued = 0.0;
  sim::Time completed = 0.0;
  sim::Time rnl = 0.0;
};

// Cache-line aligned: each shard of a sharded run writes its own sink
// concurrently, so a sink must not share a line with another shard's data.
// The per-QoS counters the hot path bumps are inline arrays, so they sit
// inside the sink's own lines by construction rather than in separate heap
// blocks whose placement depends on allocation order.
class alignas(64) RpcMetrics {
 public:
  // `rnl_per_mtu` also keeps every RNL divided by the RPC's size in MTUs
  // (a second exact sample per RPC), for rnl_per_mtu_by_run_qos.
  RpcMetrics(std::size_t num_qos, const SloConfig& slo, std::size_t num_hosts,
             bool rnl_per_mtu);

  // Called by RpcStack when an RPC is issued / completes. Traffic-mix
  // accounting (requested/admitted bytes) happens at issue time so the
  // shares reflect offered traffic even when large messages are still in
  // flight at the end of a run. `admission_dropped` marks an RPC the
  // admission controller rejected outright: its bytes count as requested
  // but never as admitted (they do not enter the network).
  void on_issue(net::HostId dst, net::QoSLevel qos_requested,
                net::QoSLevel qos_run, std::uint64_t bytes,
                bool admission_dropped = false);
  void record(const RpcRecord& record);

  // Measurement window: records outside [t_start, inf) are counted for
  // traffic accounting but excluded from latency percentiles.
  void set_warmup(sim::Time t_start) { warmup_end_ = t_start; }

  // Pre-sizes every percentile tracker for ~n samples per QoS level so the
  // steady-state run window performs no allocator traffic (see
  // tests/alloc_test.cc).
  void reserve_samples(std::size_t n) {
    for (auto& t : rnl_run_) t.reserve(n);
    for (auto& t : rnl_per_mtu_run_) t.reserve(n);
  }

  // --- latency ---
  const stats::PercentileTracker& rnl_by_run_qos(net::QoSLevel qos) const {
    return rnl_run_[qos];
  }
  // RNL divided by size in MTUs (the normalized quantity SLOs are set on).
  // Kept only when constructed with `rnl_per_mtu`; aborts otherwise.
  const stats::PercentileTracker& rnl_per_mtu_by_run_qos(
      net::QoSLevel qos) const;

  // --- traffic mix ---
  std::uint64_t bytes_requested(net::QoSLevel qos) const {
    return bytes_requested_[qos];
  }
  std::uint64_t bytes_admitted(net::QoSLevel qos) const {
    return bytes_admitted_[qos];
  }
  // Payload bytes of successfully completed (non-terminated) RPCs.
  std::uint64_t bytes_completed(net::QoSLevel qos_run) const {
    return bytes_completed_[qos_run];
  }
  // Fraction of issued bytes that ran on `qos` (the admitted QoS-mix).
  double admitted_share(net::QoSLevel qos) const;

  std::uint64_t completed(net::QoSLevel qos_run) const {
    return completed_[qos_run];
  }
  // Downgrade counts are kept under both attributions: by the QoS the RPC
  // asked for (who suffered the downgrade — the paper's per-class
  // accounting) and by the QoS it was delivered on (where the traffic
  // actually ran, matching the rnl_by_run_qos percentiles).
  std::uint64_t downgraded(net::QoSLevel qos_requested) const {
    return downgraded_[qos_requested];
  }
  std::uint64_t downgraded_delivered(net::QoSLevel qos_run) const {
    return downgraded_delivered_[qos_run];
  }
  std::uint64_t terminated(net::QoSLevel qos_requested) const {
    return terminated_[qos_requested];
  }

  // --- SLO compliance (by requested QoS; paper §6.10) ---
  std::uint64_t slo_eligible(net::QoSLevel qos_requested) const {
    return slo_eligible_[qos_requested];
  }
  std::uint64_t slo_met(net::QoSLevel qos_requested) const {
    return slo_met_[qos_requested];
  }
  double slo_met_fraction(net::QoSLevel qos_requested) const;
  // Byte-weighted variant: fraction of SLO-bearing *traffic* meeting its
  // target (large RPCs weigh more, as in the paper's Figure 22).
  double slo_met_fraction_bytes(net::QoSLevel qos_requested) const;

  // --- outstanding RPC gauges (per destination host) ---
  // Group 0: all SLO-bearing QoS levels; group 1: the lowest QoS.
  int outstanding(net::HostId dst, int group) const {
    return outstanding_[static_cast<std::size_t>(dst)][group];
  }
  std::size_t num_hosts() const { return outstanding_.size(); }

  std::uint64_t total_completed() const;
  const SloConfig& slo() const { return slo_; }

  // Folds another sink (same num_qos / num_hosts / rnl_per_mtu shape) into
  // this one. All counters sum and the percentile trackers merge
  // sample-exactly (each shard of a sharded run records its own hosts' RPCs
  // into a private sink; the runner merges them in shard-id order
  // afterwards). `other`'s samples move here: its trackers are left empty,
  // its counters as they were. Percentiles and counts of the merged sink
  // equal the serial run's bit-for-bit; only mean() can differ in the last
  // ulp, since summation order changes.
  void merge(RpcMetrics&& other);

 private:
  std::size_t num_qos_;
  SloConfig slo_;
  sim::Time warmup_end_ = 0.0;

  std::vector<stats::PercentileTracker> rnl_run_;
  std::vector<stats::PercentileTracker> rnl_per_mtu_run_;  // empty when off

  // Levels at or past num_qos_ stay zero.
  using PerQos = std::array<std::uint64_t, net::kMaxQoSLevels>;
  PerQos bytes_requested_{};
  PerQos bytes_admitted_{};
  PerQos bytes_completed_{};

  PerQos completed_{};
  PerQos downgraded_{};
  PerQos downgraded_delivered_{};
  PerQos terminated_{};
  PerQos slo_eligible_{};
  PerQos slo_met_{};
  PerQos slo_eligible_bytes_{};
  PerQos slo_met_bytes_{};
  std::vector<std::array<int, 2>> outstanding_;
};

}  // namespace aeq::rpc
