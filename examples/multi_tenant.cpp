// Multi-tenant scenario: Aequitas plus the centralized quota server
// (paper §5.2 future work).
//
// Aequitas guarantees *latency* for admitted traffic but shares the
// admissible QoS_h capacity equally across channels; a paying "gold"
// tenant wants 3x the admitted share of a "bronze" tenant. The quota
// server allocates the per-QoS byte budget by tenant weight (max-min with
// demand caps) and each tenant's controller enforces it with a token
// bucket on top of the usual AIMD admission.
//
// Build & run:  ./build/examples/multi_tenant
#include <cstdio>
#include <memory>

#include "core/quota.h"
#include "runner/experiment.h"

int main() {
  using namespace aeq;

  runner::ExperimentConfig config;
  config.num_hosts = 3;  // host 0 = gold, host 1 = bronze, host 2 = server
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  const double size_mtus = 8.0;
  config.slo =
      rpc::SloConfig::make({20 * sim::kUsec / size_mtus, 0.0}, 99.9);
  const rpc::SloConfig slo = config.slo;

  // Shared quota server, created lazily with the experiment's simulator.
  auto server = std::make_shared<std::shared_ptr<core::QuotaServer>>();
  config.admission.factory =
      [server, slo](sim::Simulator& simulator, net::HostId host,
                    sim::Rng rng) -> std::unique_ptr<rpc::AdmissionController> {
    if (!*server) {
      core::QuotaServerConfig sc;
      sc.qos_budget_bytes_per_sec = {0.20 * sim::gbps(100), sim::gbps(100)};
      *server = std::make_shared<core::QuotaServer>(simulator, sc);
    }
    core::AequitasConfig aeq;
    aeq.slo = slo;
    const double weight = host == 0 ? 3.0 : 1.0;  // gold : bronze
    const auto tenant = (*server)->register_tenant(weight);
    struct Tenant final : rpc::AdmissionController {
      std::shared_ptr<core::QuotaServer> keepalive;
      std::unique_ptr<core::QuotaController> inner;
      rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                                   net::HostId dst, net::QoSLevel qos,
                                   std::uint64_t bytes) override {
        return inner->admit(now, src, dst, qos, bytes);
      }
      void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                         net::QoSLevel qos_requested, net::QoSLevel qos_run,
                         sim::Time rnl, std::uint64_t mtus) override {
        inner->on_completion(now, src, dst, qos_requested, qos_run, rnl,
                             mtus);
      }
      void audit_invariants(sim::Time now) const override {
        inner->audit_invariants(now);
      }
    };
    auto controller = std::make_unique<Tenant>();
    controller->keepalive = *server;
    controller->inner = std::make_unique<core::QuotaController>(
        simulator, **server, tenant,
        std::make_unique<core::AequitasController>(aeq, rng));
    return controller;
  };
  runner::Experiment experiment(config);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  double admitted_bytes[2] = {0, 0};
  for (net::HostId tenant : {0, 1}) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.8 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.2 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(tenant, gen, workload::fixed_destination(2));
    experiment.stack(tenant).set_completion_listener(
        [&admitted_bytes, tenant](const rpc::RpcRecord& r) {
          if (r.qos_run == net::kQoSHigh && !r.terminated &&
              r.issued > 15 * sim::kMsec) {
            admitted_bytes[tenant] += static_cast<double>(r.bytes);
          }
        });
  }
  experiment.run(15 * sim::kMsec, 30 * sim::kMsec);

  const double window = 30 * sim::kMsec;
  std::printf("Multi-tenant quota over Aequitas (gold weight 3, bronze 1; "
              "QoS_h budget 20 Gbps)\n\n");
  std::printf("gold   admitted QoS_h: %5.1f Gbps\n",
              admitted_bytes[0] * 8 / window / 1e9);
  std::printf("bronze admitted QoS_h: %5.1f Gbps\n",
              admitted_bytes[1] * 8 / window / 1e9);
  std::printf("QoS_h p99.9 RNL: %.1fus (SLO 20us)\n",
              experiment.metrics().rnl_by_run_qos(0).p999() / sim::kUsec);
  return 0;
}
