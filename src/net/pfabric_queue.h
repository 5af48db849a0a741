// pFabric switch queue (Alizadeh et al., SIGCOMM'13).
//
// Packets carry their message's remaining size in `priority` (lower value =
// more urgent). The queue is tiny (≈2 BDP); dequeue picks the packet with the
// minimum priority (earliest arrival among ties, which approximates
// pFabric's same-flow-earliest rule since a flow's packets arrive in order),
// and overflow drops the packet with the maximum priority — possibly the
// arriving one.
#pragma once

#include <cstdint>
#include <vector>

#include "net/queue.h"

namespace aeq::net {

class PfabricQueue final : public QueueDiscipline {
 public:
  explicit PfabricQueue(std::uint64_t capacity_bytes);

  bool enqueue(const Packet& packet) override;
  std::optional<Packet> dequeue() override;

  bool empty() const override { return queue_.empty(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return queue_.size(); }

 private:
  struct Entry {
    Packet packet;  // sort key: packet.priority
    std::uint64_t arrival_seq;
  };

  std::size_t min_priority_index() const;
  std::size_t max_priority_index() const;

  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t next_arrival_seq_ = 0;
  std::vector<Entry> queue_;  // linear scan: the buffer is tiny by design
};

}  // namespace aeq::net
