#include "protocols/homa.h"

#include <algorithm>
#include <limits>

namespace aeq::protocols {

namespace {

// Unscheduled window: the first RTTbytes of a message go out ungranted.
constexpr std::uint64_t kRttBytes = 64 * 1024;
static_assert(kRttBytes >= net::kMtuBytes);

}  // namespace

HomaTransport::HomaTransport(sim::Simulator& simulator, net::Host& host,
                             const BaseTransportConfig& config)
    : BaseTransport(simulator, host, config) {}

net::QoSLevel HomaTransport::unscheduled_level(
    std::uint64_t msg_bytes) const {
  for (std::size_t i = 0; i < kUnscheduledCutoffs.size(); ++i) {
    if (msg_bytes <= kUnscheduledCutoffs[i]) {
      return static_cast<net::QoSLevel>(i);
    }
  }
  return static_cast<net::QoSLevel>(kUnscheduledCutoffs.size());
}

net::QoSLevel HomaTransport::scheduled_level(std::size_t srpt_rank) const {
  // Scheduled data rides below all unscheduled levels; the SRPT leader gets
  // the better of the remaining classes.
  const std::size_t base = kUnscheduledCutoffs.size() + 1;
  const std::size_t level = std::min(base + srpt_rank, kHomaLevels - 1);
  return static_cast<net::QoSLevel>(level);
}

net::QoSLevel HomaTransport::packet_qos(const OutMessage& message) const {
  // grant_limit_bytes carries the level for scheduled packets via
  // `granted_rate` (see on_control_packet); unscheduled prefix uses the
  // static size-based level.
  const std::uint64_t offset =
      static_cast<std::uint64_t>(message.next_unsent) * net::kMtuBytes;
  if (offset < kRttBytes) {
    return unscheduled_level(message.request.bytes);
  }
  return static_cast<net::QoSLevel>(message.granted_rate);
}

void HomaTransport::on_message_start(OutMessage& message) {
  message.grant_limit_bytes =
      std::min<std::uint64_t>(kRttBytes, message.request.bytes);
  message.granted_rate = scheduled_level(1);  // until a grant says otherwise
  pump(message);
}

void HomaTransport::on_message_acked(OutMessage& message) { pump(message); }

void HomaTransport::pump(OutMessage& message) {
  while (message.next_unsent < message.num_pkts &&
         static_cast<std::uint64_t>(message.next_unsent) * net::kMtuBytes <
             message.grant_limit_bytes) {
    emit_packet(message, message.next_unsent);
    ++message.next_unsent;
  }
}

void HomaTransport::on_receiver_data(const net::Packet& data,
                                     InMessage& state) {
  RxMessage& rx = rx_[data.rpc_id];
  if (rx.msg_bytes == 0) {
    rx.msg_bytes = data.msg_bytes;
    rx.num_pkts = state.num_pkts;
    rx.src = data.src;
    rx.granted = std::min<std::uint64_t>(kRttBytes, rx.msg_bytes);
  }
  rx.received_pkts = state.received_count;
  if (state.complete()) {
    rx_.erase(data.rpc_id);
    return;
  }

  // Grant one MTU to the active message with the smallest remaining bytes
  // that still has ungranted data (SRPT). Rank all grantable messages to
  // derive the scheduled priority level.
  std::uint64_t best_id = 0;
  std::uint64_t best_remaining = std::numeric_limits<std::uint64_t>::max();
  std::size_t grantable = 0;
  // Min-reduction with a total order on (remaining, rpc_id): ties on
  // remaining bytes break by id, so the winner is independent of map
  // iteration order. detlint:allow(unordered-iter)
  for (const auto& [id, candidate] : rx_) {
    if (candidate.granted >= candidate.msg_bytes) continue;
    ++grantable;
    const std::uint64_t remaining =
        candidate.msg_bytes - static_cast<std::uint64_t>(
                                  candidate.received_pkts) *
                                  net::kMtuBytes;
    if (remaining < best_remaining ||
        (remaining == best_remaining && id < best_id)) {
      best_remaining = remaining;
      best_id = id;
    }
  }
  if (grantable == 0) return;
  RxMessage& grantee = rx_[best_id];
  send_grant(best_id, grantee, 0);
}

void HomaTransport::send_grant(std::uint64_t rpc_id, RxMessage& rx,
                               std::size_t srpt_rank) {
  rx.granted =
      std::min<std::uint64_t>(rx.granted + net::kMtuBytes, rx.msg_bytes);
  net::Packet grant;
  grant.dst = rx.src;
  grant.size_bytes = net::kAckBytes;
  grant.qos = 0;  // control rides the top class
  grant.type = net::PacketType::kGrant;
  grant.rpc_id = rpc_id;
  grant.seq = rx.granted;  // a grant's seq is the offset granted up to
  grant.priority = static_cast<double>(scheduled_level(srpt_rank));
  send_control(grant);
}

void HomaTransport::on_control_packet(const net::Packet& packet) {
  if (packet.type != net::PacketType::kGrant) return;
  auto it = outgoing().find(packet.rpc_id);
  if (it == outgoing().end()) return;
  OutMessage& message = it->second;
  message.grant_limit_bytes =
      std::max(message.grant_limit_bytes, packet.seq);
  message.granted_rate = packet.priority;  // scheduled level to use
  pump(message);
}

}  // namespace aeq::protocols
