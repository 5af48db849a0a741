// Configuration-driven construction of queue disciplines, so topologies and
// experiments can switch scheduler types without code changes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/queue.h"

namespace aeq::net {

enum class SchedulerType {
  kFifo,
  kWfq,      // virtual-time WFQ (default; what the paper assumes)
  kDwrr,     // deficit weighted round robin
  kSpq,      // strict priority
  kPfabric,  // remaining-size priority queue with eviction
};

struct QueueConfig {
  SchedulerType type = SchedulerType::kWfq;
  // Per-QoS weights (WFQ/DWRR) or class count (SPQ). Index 0 = highest QoS.
  std::vector<double> weights = {4.0, 1.0};
  std::uint64_t capacity_bytes = 0;  // 0 = unbounded (except pFabric)
  // ECN marking threshold for DCTCP-style senders (0 = no marking).
  std::uint64_t ecn_threshold_bytes = 0;
  // Pre-sizes each class's packet ring for this many queued packets, so a
  // run whose queue depths stay below the hint performs no steady-state
  // ring growth (see QueueDiscipline::reserve_packets and the allocation
  // regression test). 0 = grow on demand.
  std::size_t reserve_packets = 0;
};

std::unique_ptr<QueueDiscipline> make_queue(const QueueConfig& config);

}  // namespace aeq::net
