// Shared engine for the message-based baseline transports (pFabric, QJump,
// Homa, D3, PDQ): per-message packetization, selective per-packet ACKs,
// RTO-based retransmission, and receiver-side tracking. Subclasses supply
// the scheduling policy — when the next packet of which message may leave,
// which priority/QoS it carries, and any receiver-driven control (grants,
// rate allocation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/host.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/message.h"

namespace aeq::protocols {

struct BaseTransportConfig {
  sim::Time rto = 500 * sim::kUsec;
};

class BaseTransport : public transport::MessageTransport {
 public:
  BaseTransport(sim::Simulator& simulator, net::Host& host,
                const BaseTransportConfig& config);
  ~BaseTransport() override = default;

  void send_message(const transport::SendRequest& request,
                    transport::CompletionHandler on_complete) final;

 protected:
  struct OutMessage {
    transport::SendRequest request;
    transport::CompletionHandler on_complete;
    sim::Time issued = 0.0;
    std::uint32_t num_pkts = 0;
    std::vector<bool> acked;
    std::uint32_t acked_count = 0;
    std::uint32_t next_unsent = 0;  // lowest never-sent packet index
    bool done = false;

    // Protocol scratch space.
    std::uint64_t grant_limit_bytes = 0;  // Homa: bytes permitted so far
    double granted_rate = 0.0;            // D3/PDQ: bytes/sec (0 = paused)
    sim::Time next_send_time = 0.0;       // pacing
    bool pace_armed = false;              // pacing timer pending

    // Unacked payload bytes (approximating acked bytes as acked_count MTUs;
    // exact except for the final short packet, which is immaterial for
    // priority stamps).
    std::uint64_t remaining_bytes() const {
      const auto acked_bytes = std::min<std::uint64_t>(
          request.bytes,
          static_cast<std::uint64_t>(acked_count) * net::kMtuBytes);
      return request.bytes - acked_bytes;
    }
  };

  struct InMessage {
    std::uint32_t num_pkts = 0;
    std::vector<bool> received;
    std::uint32_t received_count = 0;
    std::uint64_t msg_bytes = 0;
    net::HostId src = net::kNoHost;
    net::QoSLevel qos = net::kQoSHigh;
    bool complete() const { return received_count == num_pkts; }
  };

  // --- subclass policy hooks ---
  // A new message was queued; start/refresh the subclass's send machinery.
  virtual void on_message_start(OutMessage& message) = 0;
  // An ACK advanced `message`; subclass may send more / reschedule.
  virtual void on_message_acked(OutMessage& message) = 0;
  // Receiver saw a data packet (before the ACK is sent); e.g. Homa grants.
  virtual void on_receiver_data(const net::Packet& data,
                                InMessage& state) {
    (void)data;
    (void)state;
  }
  // Non-data, non-ACK packets (grants, rate messages).
  virtual void on_control_packet(const net::Packet& packet) {
    (void)packet;
  }
  // Message fully acked or terminated; called just before state removal.
  virtual void on_message_finished(std::uint64_t rpc_id) { (void)rpc_id; }
  // RTO recovery policy: re-emit packets of a stalled message. The default
  // re-sends only the lowest unacked packet (rate-policy friendly);
  // aggressive protocols (pFabric) resend the whole window.
  virtual void on_message_rto(OutMessage& message);
  // Per-packet priority stamp (pFabric remaining size, Homa level).
  virtual double packet_priority(const OutMessage& message) const {
    (void)message;
    return 0.0;
  }
  // QoS level data packets of `message` travel on.
  virtual net::QoSLevel packet_qos(const OutMessage& message) const {
    return message.request.qos;
  }

  // --- services for subclasses ---
  // Emits packet `index` of `message` (first send or retransmission).
  void emit_packet(OutMessage& message, std::uint32_t index);
  // Bytes of payload carried by packet `index`.
  std::uint32_t payload_of(const OutMessage& message,
                           std::uint32_t index) const;
  // Terminates a message early (D3/PDQ quench); completion fires with
  // `terminated = true`.
  void terminate(OutMessage& message);
  // Sends a control packet from this host.
  void send_control(net::Packet packet);

  sim::Simulator& sim() { return sim_; }
  std::unordered_map<std::uint64_t, OutMessage>& outgoing() {
    return outgoing_;
  }

 private:
  void on_packet(const net::Packet& packet);
  void handle_data(const net::Packet& packet);
  void handle_ack(const net::Packet& packet);
  void arm_rto();
  void on_rto();
  void finish(OutMessage& message, bool terminated);

  sim::Simulator& sim_;
  net::Host& host_;
  BaseTransportConfig config_;
  std::unordered_map<std::uint64_t, OutMessage> outgoing_;  // by rpc_id
  std::unordered_map<std::uint64_t, InMessage> incoming_;   // by rpc_id
  sim::EventId rto_event_;
};

}  // namespace aeq::protocols
