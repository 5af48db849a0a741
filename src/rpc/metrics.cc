#include "rpc/metrics.h"

#include <utility>

#include "sim/assert.h"

namespace aeq::rpc {

RpcMetrics::RpcMetrics(std::size_t num_qos, const SloConfig& slo,
                       std::size_t num_hosts, bool rnl_per_mtu)
    : num_qos_(num_qos),
      slo_(slo),
      rnl_run_(num_qos),
      rnl_per_mtu_run_(rnl_per_mtu ? num_qos : 0),
      outstanding_(num_hosts, {0, 0}) {
  AEQ_CHECK_GE(num_qos, 2u);
  AEQ_CHECK_LE(num_qos, net::kMaxQoSLevels);
}

void RpcMetrics::on_issue(net::HostId dst, net::QoSLevel qos_requested,
                          net::QoSLevel qos_run, std::uint64_t bytes,
                          bool admission_dropped) {
  AEQ_CHECK_LT(qos_requested, num_qos_);
  AEQ_CHECK_LT(qos_run, num_qos_);
  bytes_requested_[qos_requested] += bytes;
  // Admission-rejected RPCs never enter the network, so their bytes are not
  // admitted traffic; crediting them would overstate the admitted mix of
  // hard-drop policies.
  if (!admission_dropped) bytes_admitted_[qos_run] += bytes;
  const int group =
      static_cast<std::size_t>(qos_run) + 1 == num_qos_ ? 1 : 0;
  ++outstanding_[static_cast<std::size_t>(dst)][group];
}

void RpcMetrics::record(const RpcRecord& record) {
  AEQ_CHECK_LT(record.qos_requested, num_qos_);
  AEQ_CHECK_LT(record.qos_run, num_qos_);
  if (record.downgraded) {
    ++downgraded_[record.qos_requested];
    ++downgraded_delivered_[record.qos_run];
  }

  const int group =
      static_cast<std::size_t>(record.qos_run) + 1 == num_qos_ ? 1 : 0;
  auto& gauge = outstanding_[static_cast<std::size_t>(record.dst)][group];
  --gauge;
  AEQ_DCHECK(gauge >= 0);

  if (record.terminated) {
    ++terminated_[record.qos_requested];
    if (slo_.has_slo(record.qos_requested)) {
      // A killed RPC misses its SLO.
      ++slo_eligible_[record.qos_requested];
      slo_eligible_bytes_[record.qos_requested] += record.bytes;
    }
    return;
  }

  ++completed_[record.qos_run];
  bytes_completed_[record.qos_run] += record.bytes;

  if (slo_.has_slo(record.qos_requested)) {
    ++slo_eligible_[record.qos_requested];
    slo_eligible_bytes_[record.qos_requested] += record.bytes;
    if (slo_.met(record.qos_requested, record.rnl, record.size_mtus)) {
      ++slo_met_[record.qos_requested];
      slo_met_bytes_[record.qos_requested] += record.bytes;
    }
  }

  if (record.issued >= warmup_end_) {
    rnl_run_[record.qos_run].add(record.rnl);
    if (!rnl_per_mtu_run_.empty()) {
      rnl_per_mtu_run_[record.qos_run].add(
          record.rnl / static_cast<double>(record.size_mtus));
    }
  }
}

const stats::PercentileTracker& RpcMetrics::rnl_per_mtu_by_run_qos(
    net::QoSLevel qos) const {
  AEQ_ASSERT_MSG(!rnl_per_mtu_run_.empty(),
                 "RpcMetrics::rnl_per_mtu_by_run_qos needs "
                 "ExperimentConfig::rnl_per_mtu (per-MTU RNL samples are "
                 "kept only on request)");
  return rnl_per_mtu_run_[qos];
}

double RpcMetrics::admitted_share(net::QoSLevel qos) const {
  std::uint64_t total = 0;
  for (auto b : bytes_admitted_) total += b;
  return total ? static_cast<double>(bytes_admitted_[qos]) /
                     static_cast<double>(total)
               : 0.0;
}

double RpcMetrics::slo_met_fraction(net::QoSLevel qos_requested) const {
  const auto eligible = slo_eligible_[qos_requested];
  return eligible ? static_cast<double>(slo_met_[qos_requested]) /
                        static_cast<double>(eligible)
                  : 0.0;
}

double RpcMetrics::slo_met_fraction_bytes(
    net::QoSLevel qos_requested) const {
  const auto eligible = slo_eligible_bytes_[qos_requested];
  return eligible ? static_cast<double>(slo_met_bytes_[qos_requested]) /
                        static_cast<double>(eligible)
                  : 0.0;
}

void RpcMetrics::merge(RpcMetrics&& other) {
  AEQ_CHECK_EQ(num_qos_, other.num_qos_);
  AEQ_CHECK_EQ(outstanding_.size(), other.outstanding_.size());
  AEQ_CHECK_EQ(rnl_per_mtu_run_.size(), other.rnl_per_mtu_run_.size());
  for (std::size_t q = 0; q < rnl_per_mtu_run_.size(); ++q) {
    rnl_per_mtu_run_[q].merge(std::move(other.rnl_per_mtu_run_[q]));
  }
  for (std::size_t q = 0; q < num_qos_; ++q) {
    rnl_run_[q].merge(std::move(other.rnl_run_[q]));
    bytes_requested_[q] += other.bytes_requested_[q];
    bytes_admitted_[q] += other.bytes_admitted_[q];
    bytes_completed_[q] += other.bytes_completed_[q];
    completed_[q] += other.completed_[q];
    downgraded_[q] += other.downgraded_[q];
    downgraded_delivered_[q] += other.downgraded_delivered_[q];
    terminated_[q] += other.terminated_[q];
    slo_eligible_[q] += other.slo_eligible_[q];
    slo_met_[q] += other.slo_met_[q];
    slo_eligible_bytes_[q] += other.slo_eligible_bytes_[q];
    slo_met_bytes_[q] += other.slo_met_bytes_[q];
  }
  for (std::size_t h = 0; h < outstanding_.size(); ++h) {
    outstanding_[h][0] += other.outstanding_[h][0];
    outstanding_[h][1] += other.outstanding_[h][1];
  }
}

std::uint64_t RpcMetrics::total_completed() const {
  std::uint64_t total = 0;
  for (auto c : completed_) total += c;
  return total;
}

}  // namespace aeq::rpc
