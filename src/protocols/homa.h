// Homa host transport (Montazeri et al., SIGCOMM'18), simplified.
//
// Receiver-driven: a sender blasts the first RTTbytes of a message
// unscheduled, at an in-network priority level chosen from static size
// cutoffs (smaller message -> higher priority). The rest is sent only as
// the receiver grants it, one MTU per received data packet, to the active
// message with the smallest remaining bytes (SRPT); grants carry the
// scheduled priority level derived from the message's SRPT rank. The
// network runs strict priority queuing over kHomaLevels classes.
//
// Simplifications vs the full protocol: no overcommitment degree beyond the
// single SRPT grantee per incoming packet, no cutoff recomputation from
// observed workload, and retransmission via the BaseTransport RTO instead
// of Homa's RESEND/busy machinery. These keep the defining behaviour — SRPT
// favoring small messages via network priorities — which is what Figure 22
// measures.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "protocols/base_transport.h"

namespace aeq::protocols {

// SPQ classes in the fabric: ExperimentConfig::wfq_weights lists one each.
inline constexpr std::size_t kHomaLevels = 8;
static_assert(kHomaLevels >= 2 && kHomaLevels <= net::kMaxQoSLevels);

// Message-size upper bounds for unscheduled levels 0..k; larger messages
// use level k+1. Scheduled grants use the remaining (lower) levels.
inline constexpr std::array<std::uint64_t, 3> kUnscheduledCutoffs = {
    16 * 1024, 64 * 1024, 256 * 1024};
static_assert(kUnscheduledCutoffs.size() + 1 < kHomaLevels);

class HomaTransport final : public BaseTransport {
 public:
  HomaTransport(sim::Simulator& simulator, net::Host& host,
                const BaseTransportConfig& config);

 protected:
  void on_message_start(OutMessage& message) override;
  void on_message_acked(OutMessage& message) override;
  void on_receiver_data(const net::Packet& data, InMessage& state) override;
  void on_control_packet(const net::Packet& packet) override;
  net::QoSLevel packet_qos(const OutMessage& message) const override;

 private:
  struct RxMessage {
    std::uint64_t msg_bytes = 0;
    std::uint64_t granted = 0;
    std::uint64_t received_pkts = 0;
    std::uint32_t num_pkts = 0;
    net::HostId src = net::kNoHost;
  };

  net::QoSLevel unscheduled_level(std::uint64_t msg_bytes) const;
  net::QoSLevel scheduled_level(std::size_t srpt_rank) const;
  void send_grant(std::uint64_t rpc_id, RxMessage& rx,
                  std::size_t srpt_rank);
  void pump(OutMessage& message);

  std::unordered_map<std::uint64_t, RxMessage> rx_;  // by rpc_id
};

}  // namespace aeq::protocols
