// Per-host transport stack over Swift (or any CongestionControl).
//
// Sending side: one Flow per (destination, QoS), created lazily — this
// mirrors the paper's RPC-channel-to-per-QoS-socket mapping (§6.11). The
// flows queue their pending messages in one per-host MessageSlab.
// Receiving side: per-flow reassembly with cumulative ACKs (one ACK per data
// packet, carrying the echoed timestamp for RTT measurement).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/host.h"
#include "sim/assert.h"
#include "sim/simulator.h"
#include "transport/flow.h"
#include "transport/message.h"
#include "transport/message_slab.h"
#include "util/flat_map.h"

namespace aeq::transport {

class HostStack final : public MessageTransport {
 public:
  using CcFactory = std::function<std::unique_ptr<CongestionControl>()>;

  // `num_hosts` fixes the deterministic flow-id scheme
  // ((src * num_hosts + dst) * kMaxQoSLevels + qos) * 2 + 1.
  HostStack(sim::Simulator& simulator, net::Host& host,
            std::size_t num_hosts, const TransportConfig& config,
            CcFactory cc_factory);

  void send_message(const SendRequest& request,
                    CompletionHandler on_complete) override;

  // The flow used for (dst, qos); created on first use.
  Flow& flow_to(net::HostId dst, net::QoSLevel qos);

  // Attaches the telemetry recorder to every existing and future flow of
  // this stack (CwndUpdate emission). Null detaches.
  void set_observer(obs::Recorder* recorder) {
    obs_ = recorder;
    // Same pointer stored into every flow; order-insensitive.
    // detlint:allow(unordered-iter)
    flows_.for_each([recorder](std::uint64_t, std::unique_ptr<Flow>& flow) {
      flow->set_observer(recorder);
    });
  }

  // In-order payload bytes delivered to this host (receiver-side goodput).
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t bytes_delivered(net::QoSLevel qos) const {
    return bytes_delivered_per_qos_.at(qos);
  }

  net::Host& host() { return host_; }

  // Visits every sender-side flow (iteration order is unspecified — the
  // audit layer only aggregates or asserts per-flow, never emits events).
  void for_each_flow(const std::function<void(const Flow&)>& fn) const {
    // Callers aggregate or assert per flow, never emit ordered output.
    // detlint:allow(unordered-iter)
    flows_.for_each([&fn](std::uint64_t, const std::unique_ptr<Flow>& flow) {
      fn(*flow);
    });
  }


 private:
  using Segment = std::pair<std::uint64_t, std::uint64_t>;  // [begin, end)
  struct ReceiverState {
    std::uint64_t next_expected = 0;
    // Sorted by begin, one per begin; a vector, as most receivers hold none
    // and an empty one is 24 bytes.
    std::vector<Segment> out_of_order;
  };

  void on_packet(const net::Packet& packet);
  void handle_data(const net::Packet& packet);
  std::uint64_t flow_key(net::HostId dst, net::QoSLevel qos) const;

  sim::Simulator& sim_;
  net::Host& host_;
  std::size_t num_hosts_;
  // The one instance every flow of this stack aliases, fixed at
  // construction.
  const TransportConfig config_;
  CcFactory cc_factory_;
  obs::Recorder* obs_ = nullptr;

  MessageSlab messages_;  // declared before flows_: flows point into it
  util::FlatMap64<std::unique_ptr<Flow>> flows_;
  util::FlatMap64<ReceiverState> receivers_;
  std::uint64_t bytes_delivered_ = 0;
  std::array<std::uint64_t, net::kMaxQoSLevels> bytes_delivered_per_qos_{};
};

}  // namespace aeq::transport
