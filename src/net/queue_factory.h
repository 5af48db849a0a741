// Configuration-driven construction of queue disciplines, so topologies and
// experiments can switch scheduler types without code changes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/queue.h"
#include "util/block_fifo.h"

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
};

// The discipline of `config`, queueing its packets in blocks of `buffer`
// (pFabric's priority queue does not use it).
std::unique_ptr<QueueDiscipline> make_queue(const QueueConfig& config,
                                            util::BlockPool& buffer);

}  // namespace aeq::net
