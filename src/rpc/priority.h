// RPC priority classes and their bijective mapping onto network QoS levels
// (Phase 1 of Aequitas, paper §5): PC -> QoS_h, NC -> QoS_m, BE -> QoS_l.
// With two QoS levels, PC -> QoS_h and both NC/BE -> lowest.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/assert.h"

namespace aeq::rpc {

enum class Priority : std::uint8_t {
  kPC = 0,  // performance-critical: tail latency SLOs
  kNC = 1,  // non-critical: less stringent SLOs
  kBE = 2,  // best-effort: scavenger, no SLO
};

// Phase-1 mapping of priority to requested QoS for a fabric with
// `num_qos_levels` WFQ classes.
inline net::QoSLevel qos_for_priority(Priority priority,
                                      std::size_t num_qos_levels) {
  AEQ_ASSERT(num_qos_levels >= 2 && num_qos_levels <= net::kMaxQoSLevels);
  const auto index = static_cast<std::size_t>(priority);
  const auto lowest = static_cast<net::QoSLevel>(num_qos_levels - 1);
  return index >= num_qos_levels - 1 ? lowest
                                     : static_cast<net::QoSLevel>(index);
}

}  // namespace aeq::rpc
