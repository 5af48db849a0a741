#include "net/pfabric_queue.h"

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::net {

PfabricQueue::PfabricQueue(std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  AEQ_CHECK_GT_MSG(capacity_bytes_, 0u, "pFabric requires a finite buffer");
}

std::size_t PfabricQueue::min_priority_index() const {
  AEQ_DCHECK(!queue_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const auto& a = queue_[i];
    const auto& b = queue_[best];
    if (a.packet.priority < b.packet.priority ||
        (a.packet.priority == b.packet.priority &&
         a.arrival_seq < b.arrival_seq)) {
      best = i;
    }
  }
  return best;
}

std::size_t PfabricQueue::max_priority_index() const {
  AEQ_DCHECK(!queue_.empty());
  std::size_t worst = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const auto& a = queue_[i];
    const auto& b = queue_[worst];
    if (a.packet.priority > b.packet.priority ||
        (a.packet.priority == b.packet.priority &&
         a.arrival_seq > b.arrival_seq)) {
      worst = i;
    }
  }
  return worst;
}

bool PfabricQueue::enqueue(const Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueuePfabric);
  count_offered(packet);
  Entry incoming{packet, next_arrival_seq_++};
  // Evict lowest-urgency packets until the newcomer fits; if the newcomer is
  // itself the least urgent, it is the one dropped. Evicted residents count
  // as drops (they were offered and accepted earlier), so conservation
  // (offered == dequeued + dropped + resident) holds across evictions.
  while (backlog_bytes_ + incoming.packet.size_bytes > capacity_bytes_) {
    if (queue_.empty()) {
      count_dropped(incoming.packet);
      return false;
    }
    const std::size_t worst = max_priority_index();
    if (queue_[worst].packet.priority >= incoming.packet.priority) {
      count_evicted(queue_[worst].packet);
      backlog_bytes_ -= queue_[worst].packet.size_bytes;
      queue_[worst] = queue_.back();
      queue_.pop_back();
    } else {
      count_dropped(incoming.packet);
      return false;
    }
  }
  backlog_bytes_ += incoming.packet.size_bytes;
  queue_.push_back(incoming);
  count_enqueued(incoming.packet);
  return true;
}

std::optional<Packet> PfabricQueue::dequeue() {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueuePfabric);
  if (queue_.empty()) return std::nullopt;
  const std::size_t best = min_priority_index();
  Packet p = queue_[best].packet;
  queue_[best] = queue_.back();
  queue_.pop_back();
  backlog_bytes_ -= p.size_bytes;
  count_dequeued(p);
  maybe_mark_ecn(p);
  return p;
}

}  // namespace aeq::net
