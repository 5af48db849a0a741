#include "core/quota.h"

#include <algorithm>

#include "analysis/fluid.h"
#include "sim/assert.h"

namespace aeq::core {

namespace {
// Token bucket burst allowance of a QuotaController, as a multiple of one
// allocation interval at the granted rate.
constexpr double kBurstIntervals = 2.0;
}  // namespace

QuotaServer::QuotaServer(sim::Simulator& simulator,
                         const QuotaServerConfig& config)
    : sim_(simulator), config_(config) {
  AEQ_ASSERT(!config_.qos_budget_bytes_per_sec.empty());
}

QuotaServer::TenantId QuotaServer::register_tenant(double weight) {
  AEQ_CHECK_GT(weight, 0.0);
  Tenant tenant;
  tenant.weight = weight;
  tenant.demand_bytes.assign(config_.qos_budget_bytes_per_sec.size(), 0.0);
  // Until the first allocation, grant the weighted fair share so tenants
  // are not stalled at startup.
  double total_weight = weight;
  for (const Tenant& t : tenants_) total_weight += t.weight;
  tenant.allocation.resize(config_.qos_budget_bytes_per_sec.size());
  for (std::size_t q = 0; q < tenant.allocation.size(); ++q) {
    tenant.allocation[q] =
        config_.qos_budget_bytes_per_sec[q] * weight / total_weight;
  }
  tenants_.push_back(std::move(tenant));
  if (!allocated_once_) {
    // Before the first allocate() there is no demand-aware state to
    // preserve: rescale every tenant's startup share to the new weight sum.
    // Afterwards a mid-interval registration must leave the max-min
    // allocations computed by allocate() untouched until the next interval.
    for (Tenant& t : tenants_) {
      for (std::size_t q = 0; q < t.allocation.size(); ++q) {
        t.allocation[q] =
            config_.qos_budget_bytes_per_sec[q] * t.weight / total_weight;
      }
    }
  }
  arm();
  return static_cast<TenantId>(tenants_.size() - 1);
}

void QuotaServer::report_demand(TenantId tenant, net::QoSLevel qos,
                                double bytes) {
  AEQ_CHECK_LT(tenant, tenants_.size());
  AEQ_AUDIT_ONLY(AEQ_CHECK_GE(bytes, 0.0);)
  if (qos >= tenants_[tenant].demand_bytes.size()) return;
  tenants_[tenant].demand_bytes[qos] += bytes;
}

double QuotaServer::allocation(TenantId tenant, net::QoSLevel qos) const {
  AEQ_CHECK_LT(tenant, tenants_.size());
  if (qos >= tenants_[tenant].allocation.size()) return 0.0;
  return tenants_[tenant].allocation[qos];
}

void QuotaServer::arm() {
  if (armed_) return;
  armed_ = true;
  sim_.schedule_in(kAllocationInterval, [this] {
    armed_ = false;
    allocate();
    if (!tenants_.empty()) arm();
  });
}

void QuotaServer::allocate() {
  if (tenants_.empty()) return;
  allocated_once_ = true;
  std::vector<double> weights;
  weights.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) weights.push_back(tenant.weight);

  for (std::size_t q = 0; q < config_.qos_budget_bytes_per_sec.size(); ++q) {
    // Demands as rates over the elapsed interval, inflated slightly so a
    // tenant that exactly consumed its allocation can still grow.
    std::vector<double> demand(tenants_.size());
    std::vector<bool> unbounded(tenants_.size(), false);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      demand[t] = 1.25 * tenants_[t].demand_bytes[q] /
                  kAllocationInterval;
    }
    // Max-min by weight with demand caps == GPS water-filling.
    const std::vector<double> alloc = analysis::gps_allocate(
        demand, unbounded, weights, config_.qos_budget_bytes_per_sec[q]);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      tenants_[t].allocation[q] = alloc[t];
      tenants_[t].demand_bytes[q] = 0.0;
    }
    // Water-filling must never hand out more than the budget.
    AEQ_AUDIT_ONLY(
        double allocated = 0.0;
        for (double a : alloc) allocated += a;
        AEQ_CHECK_LE(allocated, config_.qos_budget_bytes_per_sec[q] *
                                    (1.0 + 1e-9) + 1e-9);)
  }
}

void QuotaServer::audit_invariants() const {
  for (std::size_t q = 0; q < config_.qos_budget_bytes_per_sec.size(); ++q) {
    double allocated = 0.0;
    for (const Tenant& tenant : tenants_) {
      AEQ_CHECK_GE_MSG(tenant.allocation[q], 0.0, "negative quota grant");
      AEQ_CHECK_GE_MSG(tenant.demand_bytes[q], 0.0,
                       "negative demand report");
      allocated += tenant.allocation[q];
    }
    // Small relative slack: water-filling sums floating-point shares.
    AEQ_CHECK_LE_MSG(
        allocated,
        config_.qos_budget_bytes_per_sec[q] * (1.0 + 1e-9) + 1e-9,
        "quota allocations exceed the per-QoS budget");
  }
}

QuotaController::QuotaController(
    std::shared_ptr<QuotaServer> server, QuotaServer::TenantId tenant,
    std::unique_ptr<AequitasController> aequitas)
    : server_(std::move(server)),
      tenant_(tenant),
      aequitas_(std::move(aequitas)) {
  AEQ_ASSERT(server_ != nullptr);
  AEQ_ASSERT(aequitas_ != nullptr);
  buckets_.resize(server_->config().qos_budget_bytes_per_sec.size());
}

bool QuotaController::take_tokens(sim::Time now, net::QoSLevel qos,
                                  double bytes) {
  if (qos >= buckets_.size()) return true;  // no quota on this level
  Bucket& bucket = buckets_[qos];
  const double rate = server_->allocation(tenant_, qos);
  const double cap = kBurstIntervals * rate * QuotaServer::kAllocationInterval;
  bucket.tokens = std::min(
      cap, bucket.tokens + rate * (now - bucket.last_refill));
  bucket.last_refill = now;
  if (bucket.tokens >= bytes) {
    bucket.tokens -= bytes;
    return true;
  }
  return false;
}

rpc::AdmissionDecision QuotaController::admit(sim::Time now,
                                              net::HostId src,
                                              net::HostId dst,
                                              net::QoSLevel qos_requested,
                                              std::uint64_t bytes) {
  server_->report_demand(tenant_, qos_requested,
                         static_cast<double>(bytes));
  rpc::AdmissionDecision decision =
      aequitas_->admit(now, src, dst, qos_requested, bytes);
  if (decision.downgraded || decision.dropped) return decision;
  if (!aequitas_->config().slo.has_slo(decision.qos_run)) return decision;
  if (!take_tokens(now, decision.qos_run, static_cast<double>(bytes))) {
    ++over_quota_;
    return {lowest_qos(), true, false, decision.p_admit};
  }
  return decision;
}

void QuotaController::on_completion(sim::Time now, net::HostId src,
                                    net::HostId dst,
                                    net::QoSLevel qos_requested,
                                    net::QoSLevel qos_run, sim::Time rnl,
                                    std::uint64_t size_mtus) {
  aequitas_->on_completion(now, src, dst, qos_requested, qos_run, rnl,
                           size_mtus);
}

std::vector<rpc::Gauge> QuotaController::gauges() const {
  std::vector<rpc::Gauge> gauges = aequitas_->gauges();
  gauges.push_back({"over_quota", static_cast<double>(over_quota_), 0.0,
                    rpc::kGaugeUnbounded});
  return gauges;
}

std::function<std::unique_ptr<rpc::AdmissionController>(
    sim::Simulator&, net::HostId, sim::Rng)>
quota_tenants(const QuotaServerConfig& server, const AequitasConfig& aequitas,
              std::vector<double> weights) {
  // The spec holding the factory is copied, so every copy reaches the one
  // server through a pointer they share.
  auto shared = std::make_shared<std::shared_ptr<QuotaServer>>();
  return [shared, server, aequitas, weights = std::move(weights)](
             sim::Simulator& simulator, net::HostId host, sim::Rng rng)
             -> std::unique_ptr<rpc::AdmissionController> {
    AEQ_CHECK_LT(static_cast<std::size_t>(host), weights.size());
    // Host 0 is every experiment's first call: it starts a fresh server, so
    // a config reused for a second experiment does not reach the first's.
    if (host == 0) *shared = std::make_shared<QuotaServer>(simulator, server);
    AEQ_ASSERT_MSG(*shared != nullptr, "host 0 builds the quota server");
    const auto tenant =
        (*shared)->register_tenant(weights[static_cast<std::size_t>(host)]);
    return std::make_unique<QuotaController>(
        *shared, tenant, std::make_unique<AequitasController>(aequitas, rng));
  };
}

}  // namespace aeq::core
