#include "rpc/rpc_stack.h"

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::rpc {

RpcStack::RpcStack(sim::Simulator& simulator, net::HostId host_id,
                   transport::MessageTransport& transport,
                   AdmissionController& admission, RpcMetrics& metrics,
                   const RpcStackConfig& config)
    : sim_(simulator),
      host_id_(host_id),
      transport_(transport),
      admission_(admission),
      metrics_(metrics),
      config_(config) {
  AEQ_CHECK_GE(config_.num_qos, 2u);
}

std::uint64_t RpcStack::issue(net::HostId dst, Priority priority,
                              std::uint64_t bytes,
                              sim::Time deadline_budget) {
  AEQ_CHECK_GT(bytes, 0u);
  AEQ_CHECK_NE(dst, host_id_);
  const std::uint64_t rpc_id =
      (static_cast<std::uint64_t>(host_id_) << 40) | ++issued_;

  const net::QoSLevel qos_requested =
      qos_for_priority(priority, config_.num_qos);

  if (obs_ != nullptr) {
    obs::RpcGenerated generated;
    generated.t = sim_.now();
    generated.rpc_id = rpc_id;
    generated.src = host_id_;
    generated.dst = dst;
    generated.qos_requested = qos_requested;
    generated.bytes = bytes;
    obs_->rpc_generated(generated);
  }

  const AdmissionDecision decision = [&] {
    const obs::prof::ProfRegion prof(obs::prof::Region::kAdmission);
    return admission_.admit(sim_.now(), host_id_, dst, qos_requested, bytes);
  }();

  if (obs_ != nullptr) {
    obs::AdmissionDecision admitted;
    admitted.t = sim_.now();
    admitted.rpc_id = rpc_id;
    admitted.src = host_id_;
    admitted.dst = dst;
    admitted.qos_from = qos_requested;
    admitted.qos_to = decision.qos_run;
    admitted.p_admit = decision.p_admit;
    admitted.downgraded = decision.downgraded;
    admitted.dropped = decision.dropped;
    obs_->admission(admitted);
  }

  if (decision.dropped) {
    // Rejected at admission: never enters the network. Accounted like a
    // terminated RPC (an SLO miss with zero goodput), and its bytes are
    // never credited as admitted traffic. Per the AdmissionController
    // contract (rpc/admission.h), a dropped RPC generates NO
    // on_completion feedback — there is no transport completion to
    // measure an RNL from.
    RpcRecord record;
    record.rpc_id = rpc_id;
    record.src = host_id_;
    record.dst = dst;
    record.priority = priority;
    record.qos_requested = qos_requested;
    record.qos_run = decision.qos_run;
    record.downgraded = decision.downgraded;
    record.bytes = bytes;
    record.size_mtus = size_in_mtus(bytes);
    record.issued = sim_.now();
    record.terminated = true;
    record.completed = record.issued;
    metrics_.on_issue(dst, qos_requested, decision.qos_run, bytes,
                      /*admission_dropped=*/true);
    metrics_.record(record);
    emit_finished(record);
    if (listener_) listener_(record);
    return rpc_id;
  }

  metrics_.on_issue(dst, qos_requested, decision.qos_run, bytes);

  transport::SendRequest request;
  request.dst = dst;
  request.qos = decision.qos_run;
  request.bytes = bytes;
  request.rpc_id = rpc_id;
  request.deadline =
      deadline_budget > 0.0 ? sim_.now() + deadline_budget : 0.0;

  // The closure is queued with the message until it completes, so it keeps
  // only what the completion does not echo back (16 bytes, see
  // transport::CompletionHandler).
  transport_.send_message(
      request, [this, priority, qos_requested,
                downgraded = decision.downgraded](
                   const transport::MessageCompletion& done) {
        finish(done, priority, qos_requested, downgraded);
      });
  return rpc_id;
}

void RpcStack::finish(const transport::MessageCompletion& done,
                      Priority priority, net::QoSLevel qos_requested,
                      bool downgraded) {
  // The transport ran the message at the decided QoS and stamped `issued`
  // in the issue() event, so the record equals the one issue() would have
  // built.
  RpcRecord record;
  record.rpc_id = done.rpc_id;
  record.src = host_id_;
  record.dst = done.dst;
  record.priority = priority;
  record.qos_requested = qos_requested;
  record.qos_run = done.qos;
  record.downgraded = downgraded;
  record.bytes = done.bytes;
  record.size_mtus = size_in_mtus(done.bytes);
  record.issued = done.issued;
  record.completed = done.completed;
  record.rnl = done.rnl();
  record.terminated = done.terminated;
  admission_.on_completion(sim_.now(), record.src, record.dst,
                           record.qos_requested, record.qos_run, record.rnl,
                           record.size_mtus);
  metrics_.record(record);
  emit_finished(record);
  if (listener_) listener_(record);
}

void RpcStack::emit_finished(const RpcRecord& record) {
  if (obs_ == nullptr) return;
  obs::RpcComplete event;
  event.t = record.completed;
  event.rpc_id = record.rpc_id;
  event.src = record.src;
  event.dst = record.dst;
  event.qos_requested = record.qos_requested;
  event.qos_run = record.qos_run;
  event.bytes = record.bytes;
  event.rnl = record.rnl;
  event.downgraded = record.downgraded;
  event.terminated = record.terminated;
  // Compliance is judged against the requested QoS's SLO, exactly as the
  // metrics sink does (§6.10); terminated RPCs always miss.
  const SloConfig& slo = metrics_.slo();
  event.slo_met = !record.terminated && slo.has_slo(record.qos_requested) &&
                  record.rnl <= slo.absolute_target(record.qos_requested,
                                                    record.size_mtus);
  obs_->rpc_complete(event);
}

}  // namespace aeq::rpc
