// Quickstart: the smallest end-to-end Aequitas run.
//
// Two clients overload a third host's 100G downlink with 32KB
// performance-critical WRITE RPCs (70% of load requested on QoS_h). Aequitas
// at the senders measures per-RPC network latency (RNL) against a 15us SLO
// and downgrades the excess to the scavenger class, so admitted QoS_h
// traffic stays SLO-compliant.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "runner/experiment.h"

int main() {
  using namespace aeq;

  // 1) Configure a 3-node star (2 clients -> 1 server) with 2 QoS levels
  //    served by 4:1 WFQ, Swift congestion control, and Aequitas admission.
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};

  // SLO: 15us per 8-MTU (32KB) RPC at the 99.9th percentile, i.e. 15/8 us
  // per MTU. The lowest QoS is a scavenger class (no SLO).
  const double kSloSeconds = 15 * sim::kUsec;
  const std::uint64_t kRpcBytes = 32 * sim::kKiB;
  const double size_mtus =
      static_cast<double>(rpc::size_in_mtus(kRpcBytes));
  config.slo = rpc::SloConfig::make({kSloSeconds / size_mtus, 0.0}, 99.9);

  runner::Experiment experiment(config);

  // 2) Attach workloads: each client offers line rate toward host 2, with
  //    70% requested as performance-critical (QoS_h) and 30% best-effort.
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(kRpcBytes));
  for (net::HostId client : {0, 1}) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.7 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0},
    };
    experiment.add_generator(client, gen, workload::fixed_destination(2));
  }

  // 3) Run 60ms of simulated time (10ms warmup) and report.
  experiment.run(10 * sim::kMsec, 50 * sim::kMsec);

  const rpc::RpcMetrics& metrics = experiment.metrics();
  std::printf("Aequitas quickstart (3-node, 100G, SLO 15us @ p99.9)\n\n");
  std::printf("%-8s %-14s %-14s %-14s %-12s\n", "QoS", "p50 RNL(us)",
              "p99.9 RNL(us)", "completed", "share(%)");
  const char* names[] = {"QoS_h", "QoS_l"};
  for (net::QoSLevel q = 0; q < 2; ++q) {
    const auto& rnl = metrics.rnl_by_run_qos(q);
    std::printf("%-8s %-14.1f %-14.1f %-14llu %-12.1f\n", names[q],
                rnl.p50() / sim::kUsec, rnl.p999() / sim::kUsec,
                static_cast<unsigned long long>(metrics.completed(q)),
                100.0 * metrics.admitted_share(q));
  }
  std::printf(
      "\nDowngraded PC RPCs: %llu (admit probability adapted to keep "
      "admitted QoS_h within SLO)\n",
      static_cast<unsigned long long>(metrics.downgraded(net::kQoSHigh)));
  std::printf("p99.9 QoS_h RNL vs SLO: %.1fus vs %.1fus\n",
              metrics.rnl_by_run_qos(net::kQoSHigh).p999() / sim::kUsec,
              kSloSeconds / sim::kUsec);
  return 0;
}
