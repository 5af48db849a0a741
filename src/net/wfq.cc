#include "net/wfq.h"

#include <algorithm>
#include <limits>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::net {

WfqQueue::WfqQueue(util::BlockPool& buffer, std::vector<double> weights,
                   std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  AEQ_ASSERT_MSG(!weights.empty(), "WFQ needs at least one class");
  AEQ_CHECK_LE(weights.size(), kMaxQoSLevels);
  classes_.reserve(weights.size());
  for (const double weight : weights) {
    AEQ_CHECK_GT_MSG(weight, 0.0, "WFQ weights must be positive");
    classes_.emplace_back(weight, buffer);
  }
}

bool WfqQueue::enqueue(const Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueWfq);
  AEQ_CHECK_LT_MSG(packet.qos, classes_.size(), "packet QoS out of range");
  count_offered(packet);
  ClassState& cls = classes_[packet.qos];
  if (capacity_bytes_ != 0 &&
      backlog_bytes_ + packet.size_bytes > capacity_bytes_) {
    count_dropped(packet);
    return false;
  }
  const double start = std::max(virtual_time_, cls.last_finish);
  const double finish = finish_tag(start, packet, cls.weight);
  // Finish tags within a class are non-decreasing by construction; the
  // audit layer re-derives this from the pending packets (audit_tags).
  AEQ_AUDIT_ONLY(AEQ_CHECK_GE(finish, cls.last_finish);)
  cls.last_finish = finish;
  if (cls.fifo.empty()) cls.head_finish = finish;
  cls.fifo.push_back(Tagged{packet, start});
  backlog_bytes_ += packet.size_bytes;
  ++backlog_packets_;
  count_enqueued(packet);
  return true;
}

std::optional<Packet> WfqQueue::dequeue() {
  const obs::prof::ProfRegion prof(obs::prof::Region::kQueueWfq);
  if (backlog_packets_ == 0) return std::nullopt;
  // The smallest head finish tag, the lowest class on a tie. An empty
  // class's +infinity never wins while any class holds a packet.
  std::size_t best = 0;
  for (std::size_t i = 1; i < classes_.size(); ++i) {
    if (classes_[i].head_finish < classes_[best].head_finish) best = i;
  }
  ClassState& cls = classes_[best];
  AEQ_ASSERT(!cls.fifo.empty());
  Tagged tagged = cls.fifo.front();
  cls.fifo.pop_front();
  cls.head_finish = std::numeric_limits<double>::infinity();
  if (!cls.fifo.empty()) {
    const Tagged& next = cls.fifo.front();
    cls.head_finish = finish_tag(next.start_tag, next.packet, cls.weight);
  }
  // Advance the virtual clock to the service start of the selected packet so
  // that newly arriving classes do not accrue credit while idle. Taking the
  // max keeps the clock monotone; the audit registry independently verifies
  // monotonicity across dequeues (wfq/virtual-time-monotone).
  virtual_time_ = std::max(virtual_time_, tagged.start_tag);
  backlog_bytes_ -= tagged.packet.size_bytes;
  --backlog_packets_;
  count_dequeued(tagged.packet);
  maybe_mark_ecn(tagged.packet);
  return tagged.packet;
}

std::size_t WfqQueue::buffer_blocks() const {
  std::size_t blocks = 0;
  for (const ClassState& cls : classes_) blocks += cls.fifo.blocks();
  return blocks;
}

void WfqQueue::audit_tags() const {
  std::uint64_t pending_bytes = 0;
  std::uint64_t pending_packets = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const ClassState& cls = classes_[i];
    std::uint64_t class_bytes = 0;
    double prev_finish = -std::numeric_limits<double>::infinity();
    cls.fifo.for_each([&](const Tagged& tagged) {
      const double finish = finish_tag(tagged.start_tag, tagged.packet,
                                       cls.weight);
      AEQ_CHECK_LE_MSG(tagged.start_tag, finish,
                       "WFQ start tag past its finish tag");
      AEQ_CHECK_LE_MSG(prev_finish, finish,
                       "WFQ finish tags out of order within a class");
      prev_finish = finish;
      class_bytes += tagged.packet.size_bytes;
    });
    if (cls.fifo.empty()) {
      AEQ_CHECK_EQ_MSG(cls.head_finish,
                       std::numeric_limits<double>::infinity(),
                       "WFQ empty class caches a head finish tag");
    } else {
      const Tagged& head = cls.fifo.front();
      AEQ_CHECK_EQ_MSG(cls.head_finish,
                       finish_tag(head.start_tag, head.packet, cls.weight),
                       "WFQ cached head finish does not match head packet");
      AEQ_CHECK_EQ_MSG(cls.last_finish, prev_finish,
                       "WFQ last_finish does not match newest pending tag");
    }
    AEQ_CHECK_EQ_MSG(class_backlog_bytes(static_cast<QoSLevel>(i)),
                     class_bytes,
                     "WFQ per-class backlog out of sync with pending bytes");
    pending_bytes += class_bytes;
    pending_packets += cls.fifo.size();
  }
  AEQ_CHECK_EQ(backlog_bytes_, pending_bytes);
  AEQ_CHECK_EQ(backlog_packets_, pending_packets);
}

}  // namespace aeq::net
