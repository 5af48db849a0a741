// Packet model shared by every protocol in the simulator.
//
// One concrete struct (rather than a class hierarchy) keeps the hot path
// allocation-free and copyable; protocol-specific fields are documented and
// ignored by components that do not use them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/units.h"

namespace aeq::net {

// Host identifier within a topology. Switches use a separate id space.
using HostId = std::int32_t;
inline constexpr HostId kNoHost = -1;

// QoS level index: 0 is the highest priority (QoS_h). The number of levels
// in play is a property of the experiment (2 or 3 in the paper).
using QoSLevel = std::uint8_t;
inline constexpr QoSLevel kQoSHigh = 0;
inline constexpr QoSLevel kQoSMid = 1;
inline constexpr QoSLevel kQoSLow = 2;
inline constexpr std::size_t kMaxQoSLevels = 8;

// Every stack segments messages into packets of at most kMtuBytes (the
// paper's 4 KB MTU; RPC sizes are normalized by it) and acknowledges with
// header-only packets of kAckBytes.
inline constexpr std::uint32_t kMtuBytes = 4096;
inline constexpr std::uint32_t kAckBytes = 64;

enum class PacketType : std::uint8_t {
  kData,   // payload-carrying segment
  kAck,    // transport acknowledgment
  kGrant,  // Homa receiver grant
};

// One cache line: every queue and link copies packets, and a backlogged
// switch holds millions of them. `seq` means one thing per packet type, so
// no type carries a field only another type reads.
struct Packet {
  std::uint64_t flow_id = 0;  // (src, dst, qos) stream the packet belongs to
  std::uint64_t rpc_id = 0;   // RPC/message the payload belongs to
  // kData: offset of the first payload byte (HostStack) or packet index
  // within the message (message-based stacks). kAck: cumulative next
  // expected byte (HostStack) or the acked packet index (message-based
  // stacks). kGrant: the byte offset granted up to (Homa).
  std::uint64_t seq = 0;
  std::uint64_t msg_bytes = 0;  // total message size (message-based stacks)
  sim::Time sent_time = 0.0;  // stamped by sender; echoed by ACKs for RTT
  // pFabric: remaining bytes of the message at send time (lower = higher
  // priority), read by the pFabric queue on every enqueue. Homa grants: the
  // scheduled network priority level chosen by the receiver.
  double priority = 0.0;
  HostId src = kNoHost;
  HostId dst = kNoHost;
  std::uint32_t size_bytes = 0;
  QoSLevel qos = kQoSHigh;
  PacketType type = PacketType::kData;

  // ECN: congestion-experienced mark set by queues past their marking
  // threshold; echoed back by ACKs for DCTCP-style senders.
  bool ecn_ce = false;
  bool ecn_echo = false;
};

// A packet buffer block holds 63 of these (or 56 WFQ slots, which add a
// start tag), and each byte here is a megabyte of RSS per million queued
// packets: a new field must displace one.
static_assert(sizeof(Packet) == 64, "Packet must stay one cache line");

// Receives packets delivered by a link. Implemented by switches and by the
// host-side demultiplexer.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(const Packet& packet) = 0;
};

}  // namespace aeq::net
