#include "transport/host_stack.h"

#include <algorithm>
#include <utility>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::transport {

HostStack::HostStack(sim::Simulator& simulator, net::Host& host,
                     std::size_t num_hosts, const TransportConfig& config,
                     CcFactory cc_factory)
    : sim_(simulator),
      host_(host),
      num_hosts_(num_hosts),
      config_(config),
      cc_factory_(std::move(cc_factory)) {
  AEQ_ASSERT(cc_factory_ != nullptr);
  host_.set_delivery_handler(
      [this](const net::Packet& packet) { on_packet(packet); });
}

std::uint64_t HostStack::flow_key(net::HostId dst, net::QoSLevel qos) const {
  AEQ_CHECK_GE(dst, 0);
  AEQ_CHECK_LT(static_cast<std::size_t>(dst), num_hosts_);
  AEQ_CHECK_LT(qos, net::kMaxQoSLevels);
  const std::uint64_t channel =
      (static_cast<std::uint64_t>(host_.id()) * num_hosts_ +
       static_cast<std::uint64_t>(dst)) *
          net::kMaxQoSLevels +
      qos;
  // Odd ids at stride 2 keep ECMP paths and traced flow ids stable.
  return channel * 2 + 1;
}

Flow& HostStack::flow_to(net::HostId dst, net::QoSLevel qos) {
  const std::uint64_t key = flow_key(dst, qos);
  if (std::unique_ptr<Flow>* found = flows_.find(key)) return **found;
  std::unique_ptr<Flow>& created = flows_[key];
  created =
      std::make_unique<Flow>(sim_, host_, dst, qos, key, config_, messages_,
                             cc_factory_());
  if (obs_ != nullptr) created->set_observer(obs_);
  return *created;
}

void HostStack::send_message(const SendRequest& request,
                             CompletionHandler on_complete) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kTransportTx);
  flow_to(request.dst, request.qos)
      .send_message(request.bytes, request.rpc_id, std::move(on_complete));
}

void HostStack::on_packet(const net::Packet& packet) {
  const obs::prof::ProfRegion prof(obs::prof::Region::kTransportRx);
  switch (packet.type) {
    case net::PacketType::kData:
      handle_data(packet);
      break;
    case net::PacketType::kAck: {
      if (std::unique_ptr<Flow>* flow = flows_.find(packet.flow_id)) {
        (*flow)->handle_ack(packet);
      }
      break;
    }
    default:
      // Grants and rate messages belong to the baseline transports.
      break;
  }
}

void HostStack::handle_data(const net::Packet& packet) {
  ReceiverState& r = receivers_[packet.flow_id];
  const std::uint64_t begin = packet.seq;
  const std::uint64_t end = packet.seq + packet.size_bytes;
  const std::uint64_t before = r.next_expected;

  if (end > r.next_expected) {
    auto& held = r.out_of_order;
    if (begin <= r.next_expected) {
      r.next_expected = end;
      // Absorb buffered segments now contiguous.
      auto it = held.begin();
      for (; it != held.end() && it->first <= r.next_expected; ++it) {
        r.next_expected = std::max(r.next_expected, it->second);
      }
      held.erase(held.begin(), it);
    } else {
      auto it = std::lower_bound(held.begin(), held.end(), Segment{begin, 0});
      if (it != held.end() && it->first == begin) {
        it->second = std::max(it->second, end);
      } else {
        held.insert(it, {begin, end});
      }
    }
  }

  const std::uint64_t advanced = r.next_expected - before;
  bytes_delivered_ += advanced;
  bytes_delivered_per_qos_[packet.qos] += advanced;

  net::Packet ack;
  ack.src = host_.id();
  ack.dst = packet.src;
  ack.size_bytes = net::kAckBytes;
  ack.qos = packet.qos;
  ack.type = net::PacketType::kAck;
  ack.flow_id = packet.flow_id;
  ack.seq = r.next_expected;  // cumulative: next expected byte
  ack.sent_time = packet.sent_time;  // echo for RTT
  ack.ecn_echo = packet.ecn_ce;
  host_.send(ack);
}

}  // namespace aeq::transport
