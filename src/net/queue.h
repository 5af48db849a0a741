// Queue-discipline interface for egress ports.
//
// A discipline decides the order packets leave a port and which packets are
// dropped when the (shared) buffer is full. Implementations: FIFO, WFQ
// (virtual-time), DWRR, SPQ, and pFabric's priority queue. All but pFabric
// keep their packets in FIFOs over the port's packet buffer (a
// util::BlockPool shared by every port of a topology shard).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "net/packet.h"

namespace aeq::net {

struct QueueStats {
  // Every packet presented to enqueue(), accepted or not. The audit layer's
  // conservation invariant (src/audit/checks.h) is stated over these:
  //   offered == dequeued + dropped + resident
  // holds for every discipline, including pFabric whose drops can evict
  // packets that were previously accepted.
  std::uint64_t offered_packets = 0;
  std::uint64_t offered_bytes = 0;
  // Packets accepted into the queue (offered minus rejected arrivals).
  std::uint64_t enqueued_packets = 0;
  std::uint64_t enqueued_bytes = 0;
  // Rejected arrivals plus (pFabric) evicted residents.
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dequeued_bytes = 0;
};

// Per-QoS-class slices of the queue counters, maintained by the base class
// alongside QueueStats: the count_*() helpers attribute every packet to its
// QoS class, so every discipline — classful or not — reports per-class
// backlog and drops through one accessor set (the counter sink and the
// audit layer read these instead of five discipline-specific APIs).
struct ClassCounters {
  std::array<std::uint64_t, kMaxQoSLevels> backlog_bytes{};
  std::array<std::uint64_t, kMaxQoSLevels> dropped_packets{};
  std::array<std::uint64_t, kMaxQoSLevels> dropped_bytes{};
};

class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  // Admits a packet; returns false when the packet was dropped.
  virtual bool enqueue(const Packet& packet) = 0;

  // Removes and returns the next packet to transmit, or nullopt when empty.
  // Implementations must route the result through maybe_mark_ecn() so ECN
  // marking applies uniformly.
  virtual std::optional<Packet> dequeue() = 0;

  // Enables ECN: packets dequeued while the backlog exceeds the threshold
  // get the congestion-experienced mark (DCTCP-style instantaneous
  // threshold marking). 0 disables marking.
  void set_ecn_threshold(std::uint64_t threshold_bytes) {
    ecn_threshold_bytes_ = threshold_bytes;
  }

  // Blocks of the packet buffer (util::BlockPool) this discipline's FIFOs
  // hold; the buffer audit sums them. pFabric keeps no FIFO there.
  virtual std::size_t buffer_blocks() const { return 0; }

  virtual bool empty() const = 0;
  virtual std::uint64_t backlog_bytes() const = 0;
  virtual std::uint64_t backlog_packets() const = 0;

  // Per-QoS backlog, for instrumentation. The base class maintains these
  // from the count_*() calls, so they are exact for every discipline.
  std::uint64_t class_backlog_bytes(QoSLevel qos) const {
    return class_counters_.backlog_bytes[class_index(qos)];
  }

  // Per-QoS drop accounting (tail drops attributed to the class of the
  // dropped packet), needed to recover per-class drop rates from a shared
  // buffer.
  std::uint64_t class_dropped_packets(QoSLevel qos) const {
    return class_counters_.dropped_packets[class_index(qos)];
  }
  std::uint64_t class_dropped_bytes(QoSLevel qos) const {
    return class_counters_.dropped_bytes[class_index(qos)];
  }

  const QueueStats& stats() const { return stats_; }

 protected:
  // Applies the ECN mark if the (post-dequeue) backlog is past threshold.
  void maybe_mark_ecn(Packet& packet) const {
    if (ecn_threshold_bytes_ != 0 &&
        backlog_bytes() >= ecn_threshold_bytes_) {
      packet.ecn_ce = true;
    }
  }

  // All valid QoS levels index directly; out-of-range levels (foreign to
  // the experiment's plane) collapse into the last slot instead of reading
  // out of bounds.
  static std::size_t class_index(QoSLevel qos) {
    return qos < kMaxQoSLevels ? qos : kMaxQoSLevels - 1;
  }

  // Stats bookkeeping shared by the disciplines. Every enqueue() must call
  // count_offered() exactly once, then exactly one of count_enqueued() /
  // count_dropped() per packet outcome — the audit layer's conservation
  // check is stated over these counters. A discipline that removes an
  // already-accepted resident to make room (pFabric eviction) must use
  // count_evicted() so the class backlog tracks the residents exactly.
  void count_offered(const Packet& packet) {
    ++stats_.offered_packets;
    stats_.offered_bytes += packet.size_bytes;
  }
  void count_enqueued(const Packet& packet) {
    ++stats_.enqueued_packets;
    stats_.enqueued_bytes += packet.size_bytes;
    class_counters_.backlog_bytes[class_index(packet.qos)] +=
        packet.size_bytes;
  }
  void count_dropped(const Packet& packet) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += packet.size_bytes;
    const std::size_t cls = class_index(packet.qos);
    ++class_counters_.dropped_packets[cls];
    class_counters_.dropped_bytes[cls] += packet.size_bytes;
  }
  void count_evicted(const Packet& packet) {
    count_dropped(packet);
    class_counters_.backlog_bytes[class_index(packet.qos)] -=
        packet.size_bytes;
  }
  void count_dequeued(const Packet& packet) {
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += packet.size_bytes;
    class_counters_.backlog_bytes[class_index(packet.qos)] -=
        packet.size_bytes;
  }

  QueueStats stats_;
  ClassCounters class_counters_;
  std::uint64_t ecn_threshold_bytes_ = 0;
};

}  // namespace aeq::net
