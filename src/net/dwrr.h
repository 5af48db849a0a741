// Deficit Weighted Round Robin (Shreedhar & Varghese, SIGCOMM'95).
//
// An alternative WFQ realization (paper footnote 1): quantum per class
// proportional to its weight; a class may send while its deficit counter
// covers the head packet. Coarser short-term fairness than virtual-time WFQ
// but O(1) per packet.
#pragma once

#include <cstdint>
#include <vector>

#include "net/queue.h"
#include "util/block_fifo.h"

namespace aeq::net {

class DwrrQueue final : public QueueDiscipline {
 public:
  // `quantum_scale` sets the quantum of a weight-1.0 class, in bytes; it
  // should be at least one MTU for O(1) operation. Packets queue in blocks
  // of `buffer`, which must outlive the queue.
  DwrrQueue(util::BlockPool& buffer, std::vector<double> weights,
            std::uint64_t capacity_bytes = 0,
            std::uint64_t quantum_scale = 4096);

  bool enqueue(const Packet& packet) override;
  std::optional<Packet> dequeue() override;

  bool empty() const override { return backlog_packets_ == 0; }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return backlog_packets_; }
  std::size_t buffer_blocks() const override;

 private:
  // Per-class backlog/drop counters live in the QueueDiscipline base; only
  // the round-robin scheduling state is kept here.
  struct ClassState {
    ClassState(double q, util::BlockPool& buffer) : quantum(q), fifo(buffer) {}
    double quantum;
    double deficit = 0.0;
    util::BlockFifo<Packet> fifo;
  };

  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t backlog_packets_ = 0;
  std::size_t round_cursor_ = 0;  // class currently holding the round
  bool cursor_fresh_ = true;      // true when the cursor needs a new quantum
  std::vector<ClassState> classes_;
};

}  // namespace aeq::net
