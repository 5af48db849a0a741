// Per-QoS RNL SLO targets, provided by the operator (paper §3.2).
//
// Targets are *normalized per MTU* (paper §5.1, "Handling different RPC
// sizes"): an RPC of `size` MTUs meets its SLO when
// rnl / size < latency_target_per_mtu[qos]. The lowest QoS is a scavenger
// class with no SLO.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/assert.h"
#include "sim/units.h"

namespace aeq::rpc {

struct SloConfig {
  // Index = QoS level. Entries for the lowest level are ignored.
  std::vector<sim::Time> latency_target_per_mtu;
  // Percentile each SLO is defined at (e.g. 99.9); same indexing.
  std::vector<double> target_percentile;

  std::size_t num_qos() const { return latency_target_per_mtu.size(); }

  bool has_slo(net::QoSLevel qos) const {
    // All but the lowest level carry an SLO.
    return static_cast<std::size_t>(qos) + 1 < latency_target_per_mtu.size();
  }

  // Absolute RNL target for an RPC of `size_mtus` MTUs at `qos`.
  sim::Time absolute_target(net::QoSLevel qos, std::uint64_t size_mtus) const {
    AEQ_CHECK_LT(qos, latency_target_per_mtu.size());
    return latency_target_per_mtu[qos] * static_cast<double>(size_mtus);
  }

  // Convenience: uniform percentile for all levels.
  static SloConfig make(std::vector<sim::Time> per_mtu_targets,
                        double percentile) {
    SloConfig slo;
    slo.target_percentile.assign(per_mtu_targets.size(), percentile);
    slo.latency_target_per_mtu = std::move(per_mtu_targets);
    return slo;
  }
};

// RPC size in MTUs, as used by Algorithm 1 (minimum 1).
inline std::uint64_t size_in_mtus(std::uint64_t bytes) {
  return bytes == 0 ? 1 : (bytes + net::kMtuBytes - 1) / net::kMtuBytes;
}

}  // namespace aeq::rpc
