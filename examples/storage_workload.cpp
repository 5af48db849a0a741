// Disaggregated-storage scenario (paper §2.1): a cluster of clients talking
// to storage servers with three RPC classes —
//   PC: small random READs and metadata ops (tail-latency SLO),
//   NC: large sequential READs (looser SLO),
//   BE: backup/scan traffic (scavenger).
// The example shows the full Aequitas API surface: per-QoS SLO targets,
// production-shaped size distributions, the downgrade notification an
// application receives, and how to read per-class compliance.
//
// Build & run:  ./build/examples/storage_workload
#include <cstdio>

#include "runner/experiment.h"

int main() {
  using namespace aeq;

  runner::ExperimentConfig config;
  config.num_hosts = 16;  // 12 clients + 4 storage servers
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  // Normalized SLOs: 6us per MTU for PC, 18us per MTU for NC, at p99.9.
  config.slo = rpc::SloConfig::make(
      {6 * sim::kUsec, 18 * sim::kUsec, 0.0}, 99.9);
  config.rnl_per_mtu = true;  // the table prints p99.9 per MTU
  // Favor SLO-compliance (§6.6): heavy-tailed sizes at low per-channel
  // rates need a stronger decrease to hold the tail.
  config.admission.aequitas.alpha = 0.003;
  config.admission.aequitas.beta_per_mtu = 0.03;
  runner::Experiment experiment(config);

  const auto* pc_sizes = experiment.own(
      workload::production_size_dist(rpc::Priority::kPC, /*write=*/false));
  const auto* nc_sizes = experiment.own(
      workload::production_size_dist(rpc::Priority::kNC, false));
  const auto* be_sizes = experiment.own(
      workload::production_size_dist(rpc::Priority::kBE, false));

  // Clients 0..11 issue storage RPCs to servers 12..15 (4:1 fan-in per
  // server at peak). Bursty arrivals (rho/mu = 1.75).
  for (net::HostId client = 0; client < 12; ++client) {
    workload::GeneratorConfig gen;
    gen.burst_over_avg = 1.75;
    const double rate = 0.24 * sim::gbps(100);  // ~0.72 load per server
    gen.classes = {{rpc::Priority::kPC, 0.45 * rate, pc_sizes, 0.0},
                   {rpc::Priority::kNC, 0.35 * rate, nc_sizes, 0.0},
                   {rpc::Priority::kBE, 0.20 * rate, be_sizes, 0.0}};
    experiment.add_generator(
        client, gen, [](sim::Rng& rng) {
          return static_cast<net::HostId>(12 + rng.index(4));
        });
  }

  // Application-side downgrade handling: count notifications per client —
  // a real application would e.g. reduce its optional PC traffic (§5.1).
  std::uint64_t downgrade_notifications = 0;
  for (net::HostId client = 0; client < 12; ++client) {
    experiment.stack(client).set_completion_listener(
        [&downgrade_notifications](const rpc::RpcRecord& record) {
          if (record.downgraded) ++downgrade_notifications;
        });
  }

  experiment.run(10 * sim::kMsec, 40 * sim::kMsec);

  const auto& metrics = experiment.metrics();
  std::printf("Storage workload: 12 clients -> 4 servers, Aequitas on\n\n");
  std::printf("%-22s %-12s %-12s %-12s\n", "class", "p99.9/MTU(us)",
              "meet SLO(%)", "share(%)");
  const char* names[] = {"PC (random reads)", "NC (seq reads)",
                         "BE (backups)"};
  for (net::QoSLevel q = 0; q < 3; ++q) {
    std::printf("%-22s %-12.2f %-12.1f %-12.1f\n", names[q],
                metrics.rnl_per_mtu_by_run_qos(q).p999() / sim::kUsec,
                100 * metrics.slo_met_fraction(q),
                100 * metrics.admitted_share(q));
  }
  std::printf("\nSLO targets: PC 6us/MTU, NC 18us/MTU (p99.9); BE is the "
              "scavenger class.\n");
  std::printf("Downgrade notifications delivered to applications: %llu\n",
              static_cast<unsigned long long>(downgrade_notifications));
  return 0;
}
