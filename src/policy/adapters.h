// Controller adapters: composable wrappers over rpc::AdmissionController.
//
// RejectionAdapter converts an inner policy's scavenger downgrades into
// hard drops — the downgrade-vs-drop ablation applied to ANY policy, not
// just Aequitas. A dropped decision keeps the requested QoS (the RPC never
// runs anywhere) and the inner policy's p_admit, so traces still show the
// state that caused the rejection. Everything else — completion feedback,
// gauges, audit invariants — forwards untouched.
//
// Per the admission contract (rpc/admission.h), a dropped RPC generates no
// on_completion call; policies whose downgrades carry learning signal only
// through completions (e.g. the ticket pool, which takes no ticket on a
// rejection) behave identically under this adapter by construction.
#pragma once

#include <memory>
#include <utility>

#include "rpc/admission.h"

namespace aeq::policy {

class RejectionAdapter final : public rpc::AdmissionController {
 public:
  explicit RejectionAdapter(std::unique_ptr<rpc::AdmissionController> inner)
      : inner_(std::move(inner)) {}

  rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                               net::HostId dst, net::QoSLevel qos_requested,
                               std::uint64_t bytes) override {
    rpc::AdmissionDecision decision =
        inner_->admit(now, src, dst, qos_requested, bytes);
    if (decision.downgraded) {
      decision.downgraded = false;
      decision.dropped = true;
      decision.qos_run = qos_requested;
    }
    return decision;
  }

  void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                     net::QoSLevel qos_requested, net::QoSLevel qos_run,
                     sim::Time rnl, std::uint64_t size_mtus) override {
    inner_->on_completion(now, src, dst, qos_requested, qos_run, rnl,
                          size_mtus);
  }

  std::vector<rpc::Gauge> gauges() const override {
    return inner_->gauges();
  }

  void audit_invariants(sim::Time now) const override {
    inner_->audit_invariants(now);
  }

 private:
  std::unique_ptr<rpc::AdmissionController> inner_;
};

}  // namespace aeq::policy
