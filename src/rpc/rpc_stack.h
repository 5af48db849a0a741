// Per-host RPC stack (paper Figure 6): sits between the application (RPC
// issues with a priority class) and the message transport. On issue it maps
// priority -> requested QoS, consults the admission controller (Aequitas or
// pass-through), and sends on the decided QoS; on completion it measures RNL
// and feeds it back to the controller and the metrics sink. Downgrade
// information is surfaced to the application via an optional listener.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "obs/recorder.h"
#include "rpc/admission.h"
#include "rpc/metrics.h"
#include "rpc/priority.h"
#include "sim/simulator.h"
#include "transport/message.h"

namespace aeq::rpc {

struct RpcStackConfig {
  std::size_t num_qos = 3;
};

class RpcStack {
 public:
  RpcStack(sim::Simulator& simulator, net::HostId host_id,
           transport::MessageTransport& transport,
           AdmissionController& admission, RpcMetrics& metrics,
           const RpcStackConfig& config);

  // Issues one RPC of `bytes` payload at `priority` toward `dst`.
  // `deadline_budget` (0 = none) is a relative deadline hint consumed only
  // by deadline-aware transports. Returns the assigned rpc id.
  std::uint64_t issue(net::HostId dst, Priority priority, std::uint64_t bytes,
                      sim::Time deadline_budget = 0.0);

  // Application hook: invoked with the full record of every finished RPC
  // (completions and terminations), e.g. to react to downgrades.
  using CompletionListener = std::function<void(const RpcRecord&)>;
  void set_completion_listener(CompletionListener listener) {
    listener_ = std::move(listener);
  }

  // Attaches the telemetry recorder: every issue emits RpcGenerated +
  // AdmissionDecision, every finish (completion, termination, admission
  // rejection) emits RpcComplete. Null detaches.
  void set_observer(obs::Recorder* recorder) { obs_ = recorder; }

 private:
  // Completion of an admitted RPC: rebuilds its record from the transport's
  // completion plus the fields the closure kept.
  void finish(const transport::MessageCompletion& done, Priority priority,
              net::QoSLevel qos_requested, bool downgraded);
  void emit_finished(const RpcRecord& record);

  obs::Recorder* obs_ = nullptr;
  sim::Simulator& sim_;
  net::HostId host_id_;
  transport::MessageTransport& transport_;
  AdmissionController& admission_;
  RpcMetrics& metrics_;
  RpcStackConfig config_;
  CompletionListener listener_;
  std::uint64_t issued_ = 0;
};

}  // namespace aeq::rpc
