// Message-level transport API shared by the Swift stack and the baseline
// protocol stacks (pFabric/QJump/D3/PDQ/Homa), so the RPC layer can run over
// any of them.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/units.h"
#include "util/inline_function.h"

namespace aeq::transport {

struct MessageCompletion {
  std::uint64_t rpc_id = 0;
  net::HostId src = net::kNoHost;
  net::HostId dst = net::kNoHost;
  net::QoSLevel qos = net::kQoSHigh;
  std::uint64_t bytes = 0;
  // Handed to the transport (t0 in Appendix A). Every transport stamps it in
  // the event that called send_message, so it is also the RPC's issue time.
  sim::Time issued = 0.0;
  sim::Time completed = 0.0;  // last byte acknowledged (t1)
  bool terminated = false;    // D3/PDQ quench: message was killed, not done

  // RPC Network Latency as defined in §2.2.1.
  sim::Time rnl() const { return completed - issued; }
};

// Inline-only (no heap fallback): one of these is queued per in-flight
// message, so a std::function here would mean an allocation per RPC. The
// 16-byte budget fits RpcStack's closure, which captures `this`, the RPC's
// priority, its requested QoS and its downgrade bit and rebuilds the rest of
// its RpcRecord from the MessageCompletion. Every pending message carries
// one, so the budget is a per-message cost: widen a capture only with a
// field the completion cannot supply.
using CompletionHandler =
    util::InlineFunction<void(const MessageCompletion&), 16>;

struct SendRequest {
  net::HostId dst = net::kNoHost;
  net::QoSLevel qos = net::kQoSHigh;
  std::uint64_t bytes = 0;
  std::uint64_t rpc_id = 0;
  sim::Time deadline = 0.0;  // absolute; 0 = none (used by D3/PDQ)
};

// Anything that can carry a message to a destination host and report
// completion. One instance per sending host.
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;
  virtual void send_message(const SendRequest& request,
                            CompletionHandler on_complete) = 0;
};

}  // namespace aeq::transport
