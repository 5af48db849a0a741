// Single tail-drop FIFO queue (the baseline discipline).
#pragma once

#include <cstdint>

#include "net/queue.h"
#include "util/block_fifo.h"

namespace aeq::net {

class FifoQueue final : public QueueDiscipline {
 public:
  // capacity_bytes == 0 means unbounded. Packets queue in blocks of
  // `buffer`, which must outlive the queue.
  explicit FifoQueue(util::BlockPool& buffer, std::uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes), queue_(buffer) {}

  bool enqueue(const Packet& packet) override;
  std::optional<Packet> dequeue() override;

  bool empty() const override { return queue_.empty(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return queue_.size(); }
  std::size_t buffer_blocks() const override { return queue_.blocks(); }

 private:
  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  util::BlockFifo<Packet> queue_;
};

}  // namespace aeq::net
