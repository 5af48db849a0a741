// Weighted Fair Queuing via virtual-time packet tagging.
//
// Implementation follows the Parekh–Gallager PGPS / start-time fair queueing
// family: each arriving packet gets a start tag S = max(V, F_class) and a
// finish tag F = S + size/weight; the scheduler serves the packet with the
// smallest finish tag and advances the virtual clock V to the start tag of
// the packet entering service. Under continuous backlog every class receives
// at least weight_i / sum(weights) of the link rate, which is the property
// Aequitas' delay analysis builds on (paper §4.1).
//
// A queued packet stores only its start tag: its finish tag is a function
// of that tag, its size and its class weight. Each class caches the finish
// tag of its head packet, the only packet of the class a dequeue compares.
//
// The buffer is shared across classes with tail drop, matching commodity
// switch behaviour described in the paper (footnote 2).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/queue.h"
#include "util/block_fifo.h"

namespace aeq::net {

class WfqQueue final : public QueueDiscipline {
 public:
  // `weights[i]` is the WFQ weight of QoS level i (i == 0 highest priority).
  // capacity_bytes == 0 means unbounded. Packets queue in blocks of
  // `buffer`, which must outlive the queue.
  WfqQueue(util::BlockPool& buffer, std::vector<double> weights,
           std::uint64_t capacity_bytes = 0);

  bool enqueue(const Packet& packet) override;
  std::optional<Packet> dequeue() override;

  bool empty() const override { return backlog_packets_ == 0; }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return backlog_packets_; }
  std::size_t buffer_blocks() const override;

  double virtual_time() const { return virtual_time_; }

  // Audit hook (src/audit/checks.h): asserts the virtual-time/tag
  // invariants the paper's delay bound (§4, Appendix B) is derived from —
  // per-class finish tags non-decreasing in FIFO order, start <= finish for
  // every pending packet, the class's last_finish equal to its newest
  // pending tag, each class's cached head finish equal to its head packet's
  // tag, and per-class backlog consistent with the pending packets.
  // Aborts via AEQ_CHECK_* on violation.
  void audit_tags() const;

 private:
  friend struct WfqQueueTestPeer;  // corrupts the head cache in a death test

  struct Tagged {
    Packet packet;
    double start_tag;
  };
  static_assert(sizeof(Tagged) == 72, "a WFQ slot is a packet plus one tag");

  // Per-class backlog and drop counters live in the QueueDiscipline base
  // (ClassCounters); only the scheduling state is per-discipline.
  struct ClassState {
    ClassState(double w, util::BlockPool& buffer) : weight(w), fifo(buffer) {}
    double weight;
    double last_finish = 0.0;  // finish tag of the newest packet in class
    // Finish tag of the head packet; +infinity while the class is empty, so
    // an empty class never wins a dequeue.
    double head_finish = std::numeric_limits<double>::infinity();
    util::BlockFifo<Tagged> fifo;
  };

  // The one expression every finish tag comes from, so a head's tag
  // recomputed after a pop is its enqueue-time tag, bit for bit.
  static double finish_tag(double start, const Packet& packet,
                           double weight) {
    return start + static_cast<double>(packet.size_bytes) / weight;
  }

  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t backlog_packets_ = 0;
  double virtual_time_ = 0.0;
  std::vector<ClassState> classes_;
};

}  // namespace aeq::net
