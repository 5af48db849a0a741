// Sender-side transport for the deadline-aware baselines D3 and PDQ.
//
// Each message registers with the shared DeadlineFabric (which emulates the
// routers' allocation state at the bottleneck) and then paces data packets
// at whatever rate the fabric last granted — zero means paused (PDQ
// preemption). The fabric may also terminate a flow whose deadline is
// infeasible; the message then completes with `terminated = true`, which
// the RPC metrics count as an SLO miss and lost goodput (the paper's
// explanation for D3/PDQ's ~50% network utilization in Figure 22).
#pragma once

#include "protocols/base_transport.h"
#include "protocols/deadline_fabric.h"

namespace aeq::protocols {

class DeadlineTransport final : public BaseTransport {
 public:
  DeadlineTransport(sim::Simulator& simulator, net::Host& host,
                    DeadlineFabric& fabric,
                    const BaseTransportConfig& config)
      : BaseTransport(simulator, host, config), fabric_(fabric) {}

 protected:
  void on_message_start(OutMessage& message) override {
    const std::uint64_t rpc_id = message.request.rpc_id;
    fabric_.register_flow(
        rpc_id, message.request.dst, message.request.deadline,
        message.request.bytes, [this, rpc_id](double rate, bool terminate) {
          auto it = outgoing().find(rpc_id);
          if (it == outgoing().end()) return;
          if (terminate) {
            this->terminate(it->second);
            return;
          }
          it->second.granted_rate = rate;
          pump(it->second);
        });
  }

  void on_message_acked(OutMessage& message) override {
    fabric_.update_remaining(message.request.rpc_id,
                             message.remaining_bytes());
  }

  void on_message_finished(std::uint64_t rpc_id) override {
    fabric_.remove_flow(rpc_id);
  }

  // D3/PDQ do not use QoS classes; the fabric runs plain FIFO queues.
  net::QoSLevel packet_qos(const OutMessage&) const override { return 0; }

 private:
  void pump(OutMessage& message) {
    if (message.granted_rate <= 0.0) return;  // paused
    while (message.next_unsent < message.num_pkts) {
      const sim::Time now = sim().now();
      if (now < message.next_send_time) {
        if (!message.pace_armed) {
          message.pace_armed = true;
          const std::uint64_t rpc_id = message.request.rpc_id;
          sim().schedule_at(message.next_send_time, [this, rpc_id] {
            auto it = outgoing().find(rpc_id);
            if (it == outgoing().end()) return;
            it->second.pace_armed = false;
            pump(it->second);
          });
        }
        return;
      }
      const std::uint32_t payload = payload_of(message, message.next_unsent);
      emit_packet(message, message.next_unsent);
      ++message.next_unsent;
      message.next_send_time =
          std::max(message.next_send_time, now) +
          static_cast<double>(payload) / message.granted_rate;
    }
  }

  DeadlineFabric& fabric_;
};

}  // namespace aeq::protocols
