// Strict Priority Queuing: the lowest-index non-empty class always sends.
// Used for the SPQ comparison (paper §6.7) and as the network substrate for
// QJump and Homa.
#pragma once

#include <cstdint>
#include <vector>

#include "net/queue.h"
#include "util/block_fifo.h"

namespace aeq::net {

class SpqQueue final : public QueueDiscipline {
 public:
  // Packets queue in blocks of `buffer`, which must outlive the queue.
  SpqQueue(util::BlockPool& buffer, std::size_t num_classes,
           std::uint64_t capacity_bytes = 0);

  bool enqueue(const Packet& packet) override;
  std::optional<Packet> dequeue() override;

  bool empty() const override { return backlog_packets_ == 0; }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return backlog_packets_; }
  std::size_t buffer_blocks() const override;

 private:
  // Per-class backlog/drop counters live in the QueueDiscipline base.
  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t backlog_packets_ = 0;
  std::vector<util::BlockFifo<Packet>> classes_;
};

}  // namespace aeq::net
