#include "net/dwrr.h"

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::net {

DwrrQueue::DwrrQueue(util::BlockPool& buffer, std::vector<double> weights,
                     std::uint64_t capacity_bytes,
                     std::uint64_t quantum_scale)
    : capacity_bytes_(capacity_bytes) {
  AEQ_ASSERT(!weights.empty());
  classes_.reserve(weights.size());
  for (const double weight : weights) {
    AEQ_CHECK_GT(weight, 0.0);
    classes_.emplace_back(weight * static_cast<double>(quantum_scale), buffer);
  }
}

std::size_t DwrrQueue::buffer_blocks() const {
  std::size_t blocks = 0;
  for (const ClassState& cls : classes_) blocks += cls.fifo.blocks();
  return blocks;
}

bool DwrrQueue::enqueue(const Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueDwrr);
  AEQ_CHECK_LT(packet.qos, classes_.size());
  count_offered(packet);
  ClassState& cls = classes_[packet.qos];
  if (capacity_bytes_ != 0 &&
      backlog_bytes_ + packet.size_bytes > capacity_bytes_) {
    count_dropped(packet);
    return false;
  }
  cls.fifo.push_back(packet);
  backlog_bytes_ += packet.size_bytes;
  ++backlog_packets_;
  count_enqueued(packet);
  return true;
}

std::optional<Packet> DwrrQueue::dequeue() {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueDwrr);
  if (backlog_packets_ == 0) return std::nullopt;
  // Walk classes round-robin; a class with backlog whose deficit covers the
  // head packet sends. A visited empty class forfeits its deficit.
  for (std::size_t scanned = 0; scanned < 2 * classes_.size() + 1; ++scanned) {
    ClassState& cls = classes_[round_cursor_];
    if (cls.fifo.empty()) {
      cls.deficit = 0.0;
      round_cursor_ = (round_cursor_ + 1) % classes_.size();
      cursor_fresh_ = true;
      continue;
    }
    if (cursor_fresh_) {
      cls.deficit += cls.quantum;
      cursor_fresh_ = false;
    }
    const Packet& head = cls.fifo.front();
    if (cls.deficit >= static_cast<double>(head.size_bytes)) {
      Packet p = head;
      cls.fifo.pop_front();
      cls.deficit -= static_cast<double>(p.size_bytes);
      backlog_bytes_ -= p.size_bytes;
      --backlog_packets_;
      count_dequeued(p);
      if (cls.fifo.empty()) cls.deficit = 0.0;
      maybe_mark_ecn(p);
      return p;
    }
    round_cursor_ = (round_cursor_ + 1) % classes_.size();
    cursor_fresh_ = true;
  }
  // Deficits grow by a full quantum per visit, so one extra lap always
  // releases a packet; reaching here would be a logic error.
  AEQ_ASSERT_MSG(false, "DWRR failed to release a packet");
  return std::nullopt;
}

}  // namespace aeq::net
