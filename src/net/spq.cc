#include "net/spq.h"

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::net {

SpqQueue::SpqQueue(util::BlockPool& buffer, std::size_t num_classes,
                   std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  AEQ_CHECK_GT(num_classes, 0u);
  AEQ_CHECK_LE(num_classes, kMaxQoSLevels);
  classes_.reserve(num_classes);
  for (std::size_t i = 0; i < num_classes; ++i) classes_.emplace_back(buffer);
}

std::size_t SpqQueue::buffer_blocks() const {
  std::size_t blocks = 0;
  for (const auto& fifo : classes_) blocks += fifo.blocks();
  return blocks;
}

bool SpqQueue::enqueue(const Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueSpq);
  AEQ_CHECK_LT(packet.qos, classes_.size());
  count_offered(packet);
  if (capacity_bytes_ != 0 &&
      backlog_bytes_ + packet.size_bytes > capacity_bytes_) {
    count_dropped(packet);
    return false;
  }
  classes_[packet.qos].push_back(packet);
  backlog_bytes_ += packet.size_bytes;
  ++backlog_packets_;
  count_enqueued(packet);
  return true;
}

std::optional<Packet> SpqQueue::dequeue() {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueSpq);
  for (auto& fifo : classes_) {
    if (fifo.empty()) continue;
    Packet p = fifo.front();
    fifo.pop_front();
    backlog_bytes_ -= p.size_bytes;
    --backlog_packets_;
    count_dequeued(p);
    maybe_mark_ecn(p);
    return p;
  }
  return std::nullopt;
}

}  // namespace aeq::net
