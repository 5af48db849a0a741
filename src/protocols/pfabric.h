// pFabric host transport (Alizadeh et al., SIGCOMM'13), simplified.
//
// Messages are sent aggressively with a fixed BDP-sized window per message;
// every data packet carries the message's *remaining* bytes as its priority,
// and the fabric (PfabricQueue on every port) serves smallest-remaining
// first, dropping the least urgent packets on overflow. Loss recovery is
// the BaseTransport selective-ACK + RTO machinery (pFabric's probe mode is
// approximated by the conservative one-packet RTO retransmission).
//
// pFabric ignores QoS classes entirely — scheduling is purely size-based —
// which is exactly why it underserves large-but-critical RPCs in Figure 22.
#pragma once

#include "protocols/base_transport.h"

namespace aeq::protocols {

class PfabricTransport final : public BaseTransport {
 public:
  PfabricTransport(sim::Simulator& simulator, net::Host& host,
                   const BaseTransportConfig& config)
      : BaseTransport(simulator, host, config) {}

 protected:
  void on_message_start(OutMessage& message) override { pump(message); }
  void on_message_acked(OutMessage& message) override { pump(message); }

  double packet_priority(const OutMessage& message) const override {
    return static_cast<double>(message.remaining_bytes());
  }

  // All pFabric traffic shares one queue class; urgency lives in priority.
  net::QoSLevel packet_qos(const OutMessage&) const override { return 0; }

  // pFabric retransmits the full unacked window after a timeout.
  void on_message_rto(OutMessage& message) override {
    for (std::uint32_t i = 0; i < message.next_unsent; ++i) {
      if (!message.acked[i]) emit_packet(message, i);
    }
  }

 private:
  // Packets in flight per message: ~1 BDP at 100G / 5us RTT.
  static constexpr std::uint32_t kWindowPackets = 16;

  void pump(OutMessage& message) {
    while (message.next_unsent < message.num_pkts &&
           message.next_unsent - message.acked_count < kWindowPackets) {
      emit_packet(message, message.next_unsent);
      ++message.next_unsent;
    }
  }
};

}  // namespace aeq::protocols
