// Centralized per-tenant RPC quota (the extension sketched in paper §5.2):
// Aequitas guarantees latency for *admitted* traffic but not how much each
// application/tenant gets admitted — that depends on how many co-existing
// channels share the QoS. A central quota server can add per-tenant
// admitted-rate guarantees on top.
//
// QuotaServer: tenants register with a weight; each allocation interval the
// server water-fills the per-QoS admitted-byte budget across tenants by
// weight, capped at each tenant's reported demand (the same max-min
// computation GPS uses, reusing analysis::gps_allocate).
//
// QuotaController: wraps a tenant's AequitasController. RPCs pass the
// Aequitas coin flip first; an admitted RPC must then also fit the tenant's
// token bucket for that QoS, otherwise it is downgraded. Completion
// feedback still flows to Aequitas. The tenants' controllers share
// ownership of their server; quota_tenants() wires one per host.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aequitas.h"
#include "rpc/admission.h"
#include "sim/simulator.h"

namespace aeq::core {

struct QuotaServerConfig {
  // Admitted-byte budget per QoS level (bytes/sec); index 0 = QoS_h.
  // Typically the admissible rate the operator read off the Figure-14-style
  // profile for the configured SLO.
  std::vector<double> qos_budget_bytes_per_sec;
};

class QuotaServer {
 public:
  using TenantId = std::uint32_t;

  // How often the server re-divides the budget.
  static constexpr sim::Time kAllocationInterval = 1 * sim::kMsec;

  QuotaServer(sim::Simulator& simulator, const QuotaServerConfig& config);

  // Registers a tenant with a max-min weight; returns its id.
  TenantId register_tenant(double weight);

  // Demand report (bytes offered on `qos` since the last interval);
  // called by QuotaController, accumulated until the next allocation.
  void report_demand(TenantId tenant, net::QoSLevel qos, double bytes);

  // Current allocated rate (bytes/sec) for the tenant on `qos`.
  double allocation(TenantId tenant, net::QoSLevel qos) const;

  const QuotaServerConfig& config() const { return config_; }

  // Audit hook, run by QuotaController::audit_invariants (the
  // admission/invariants check of src/audit/checks.h): asserts quota
  // conservation — per QoS, allocations are non-negative, demands are
  // non-negative, and the sum of allocated rates never exceeds the operator
  // budget (the §5.2 guarantee that quota cannot over-promise the
  // admissible region). Aborts via AEQ_CHECK_* on violation.
  void audit_invariants() const;

 private:
  struct Tenant {
    double weight = 1.0;
    std::vector<double> demand_bytes;  // accumulated this interval
    std::vector<double> allocation;    // bytes/sec
  };

  void arm();
  void allocate();

  sim::Simulator& sim_;
  QuotaServerConfig config_;
  std::vector<Tenant> tenants_;
  bool armed_ = false;
  bool allocated_once_ = false;  // guards mid-run registration (see .cc)
};

class QuotaController final : public rpc::AdmissionController {
 public:
  QuotaController(std::shared_ptr<QuotaServer> server,
                  QuotaServer::TenantId tenant,
                  std::unique_ptr<AequitasController> aequitas);

  rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                               net::HostId dst, net::QoSLevel qos_requested,
                               std::uint64_t bytes) override;

  void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                     net::QoSLevel qos_requested, net::QoSLevel qos_run,
                     sim::Time rnl, std::uint64_t size_mtus) override;

  // Inner AIMD gauges plus the quota plane's over-quota rejection count.
  std::vector<rpc::Gauge> gauges() const override;
  // The inner Aequitas sweep plus the shared quota server's conservation.
  void audit_invariants(sim::Time now) const override {
    aequitas_->audit_invariants(now);
    server_->audit_invariants();
  }

  std::uint64_t over_quota_count() const { return over_quota_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    sim::Time last_refill = 0.0;
  };

  bool take_tokens(sim::Time now, net::QoSLevel qos, double bytes);
  net::QoSLevel lowest_qos() const {
    return static_cast<net::QoSLevel>(
        aequitas_->config().slo.num_qos() - 1);
  }

  std::shared_ptr<QuotaServer> server_;
  QuotaServer::TenantId tenant_;
  std::unique_ptr<AequitasController> aequitas_;
  std::vector<Bucket> buckets_;
  std::uint64_t over_quota_ = 0;
};

// The per-host admission factory (policy::AdmissionSpec::factory) that
// makes every host a quota tenant: the first call, for host 0, builds one
// QuotaServer with `server` on the experiment's simulator, and each host
// registers with weight `weights[host]` and runs Aequitas with `aequitas`
// under the server's quota. The hosts share the server, so they must share
// one simulator too: the experiment runs on one shard.
std::function<std::unique_ptr<rpc::AdmissionController>(
    sim::Simulator&, net::HostId, sim::Rng)>
quota_tenants(const QuotaServerConfig& server, const AequitasConfig& aequitas,
              std::vector<double> weights);

}  // namespace aeq::core
