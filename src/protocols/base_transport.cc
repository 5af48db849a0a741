#include "protocols/base_transport.h"

#include <algorithm>
#include <utility>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::protocols {

BaseTransport::BaseTransport(sim::Simulator& simulator, net::Host& host,
                             const BaseTransportConfig& config)
    : sim_(simulator), host_(host), config_(config) {
  host_.set_delivery_handler(
      [this](const net::Packet& packet) { on_packet(packet); });
}

void BaseTransport::send_message(const transport::SendRequest& request,
                                 transport::CompletionHandler on_complete) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kTransportTx);
  AEQ_ASSERT(request.bytes > 0);
  OutMessage message;
  message.request = request;
  message.on_complete = std::move(on_complete);
  message.issued = sim_.now();
  message.num_pkts = static_cast<std::uint32_t>(
      (request.bytes + net::kMtuBytes - 1) / net::kMtuBytes);
  message.acked.assign(message.num_pkts, false);
  auto [it, inserted] = outgoing_.emplace(request.rpc_id, std::move(message));
  AEQ_ASSERT_MSG(inserted, "duplicate rpc id");
  arm_rto();
  on_message_start(it->second);
}

std::uint32_t BaseTransport::payload_of(const OutMessage& message,
                                        std::uint32_t index) const {
  AEQ_ASSERT(index < message.num_pkts);
  const std::uint64_t offset =
      static_cast<std::uint64_t>(index) * net::kMtuBytes;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      net::kMtuBytes, message.request.bytes - offset));
}

void BaseTransport::emit_packet(OutMessage& message, std::uint32_t index) {
  net::Packet p;
  p.src = host_.id();
  p.dst = message.request.dst;
  p.size_bytes = payload_of(message, index);
  p.qos = packet_qos(message);
  p.type = net::PacketType::kData;
  p.rpc_id = message.request.rpc_id;
  p.seq = index;
  p.msg_bytes = message.request.bytes;
  p.sent_time = sim_.now();
  p.priority = packet_priority(message);
  host_.send(p);
}

void BaseTransport::send_control(net::Packet packet) {
  packet.src = host_.id();
  packet.sent_time = sim_.now();
  host_.send(packet);
}

void BaseTransport::terminate(OutMessage& message) { finish(message, true); }

void BaseTransport::finish(OutMessage& message, bool terminated) {
  if (message.done) return;
  message.done = true;
  transport::MessageCompletion completion;
  completion.rpc_id = message.request.rpc_id;
  completion.src = host_.id();
  completion.dst = message.request.dst;
  completion.qos = message.request.qos;
  completion.bytes = message.request.bytes;
  completion.issued = message.issued;
  completion.completed = sim_.now();
  completion.terminated = terminated;
  auto handler = std::move(message.on_complete);
  on_message_finished(message.request.rpc_id);
  outgoing_.erase(message.request.rpc_id);  // invalidates `message`
  if (handler) handler(completion);
}

void BaseTransport::on_packet(const net::Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kTransportRx);
  switch (packet.type) {
    case net::PacketType::kData:
      handle_data(packet);
      break;
    case net::PacketType::kAck:
      handle_ack(packet);
      break;
    default:
      on_control_packet(packet);
      break;
  }
}

void BaseTransport::handle_data(const net::Packet& packet) {
  InMessage& in = incoming_[packet.rpc_id];
  if (in.num_pkts == 0) {
    in.num_pkts = static_cast<std::uint32_t>(
        (packet.msg_bytes + net::kMtuBytes - 1) / net::kMtuBytes);
    in.received.assign(in.num_pkts, false);
    in.msg_bytes = packet.msg_bytes;
    in.src = packet.src;
    in.qos = packet.qos;
  }
  const auto index = static_cast<std::uint32_t>(packet.seq);
  AEQ_ASSERT(index < in.num_pkts);
  if (!in.received[index]) {
    in.received[index] = true;
    ++in.received_count;
  }
  on_receiver_data(packet, in);

  net::Packet ack;
  ack.src = host_.id();
  ack.dst = packet.src;
  ack.size_bytes = net::kAckBytes;
  ack.qos = packet.qos;
  ack.type = net::PacketType::kAck;
  ack.rpc_id = packet.rpc_id;
  ack.seq = packet.seq;  // selective per-packet ACK
  ack.sent_time = packet.sent_time;
  host_.send(ack);

  // Forget completed messages. If a late retransmission recreates partial
  // state (lost-ACK race) it is bounded: the sender keeps retransmitting
  // until each packet is ACKed, and the recreated state is re-erased once
  // every packet has been seen again.
  if (in.complete()) incoming_.erase(packet.rpc_id);
}

void BaseTransport::handle_ack(const net::Packet& packet) {
  auto it = outgoing_.find(packet.rpc_id);
  if (it == outgoing_.end()) return;  // duplicate ACK after completion
  OutMessage& message = it->second;
  const auto index = static_cast<std::uint32_t>(packet.seq);
  AEQ_ASSERT(index < message.num_pkts);
  if (message.acked[index]) return;
  message.acked[index] = true;
  ++message.acked_count;
  if (message.acked_count == message.num_pkts) {
    finish(message, false);
    return;
  }
  on_message_acked(message);
}

void BaseTransport::arm_rto() {
  if (rto_event_ || outgoing_.empty()) return;
  rto_event_ = sim_.schedule_in(config_.rto, [this] {
    rto_event_ = sim::EventId{};
    on_rto();
  });
}

void BaseTransport::on_message_rto(OutMessage& message) {
  // Conservative default: re-emit the lowest unacked, already-sent packet.
  // One packet per period keeps retransmissions from defeating a subclass's
  // rate policy.
  for (std::uint32_t i = 0; i < message.next_unsent; ++i) {
    if (!message.acked[i]) {
      emit_packet(message, i);
      return;
    }
  }
}

void BaseTransport::on_rto() {
  std::vector<std::uint64_t> ids;
  ids.reserve(outgoing_.size());
  // Key collection is a commutative fill; the sort below fixes the
  // retransmission order. detlint:allow(unordered-iter)
  for (const auto& [id, message] : outgoing_) {
    (void)message;
    ids.push_back(id);
  }
  // Retransmit in ascending rpc-id order: map iteration order is
  // unspecified and must not decide which packet hits the NIC first.
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    auto it = outgoing_.find(id);
    if (it == outgoing_.end()) continue;
    on_message_rto(it->second);
  }
  arm_rto();
}

}  // namespace aeq::protocols
