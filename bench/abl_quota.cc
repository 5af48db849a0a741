// Ablation / extension: per-tenant quota server on top of Aequitas
// (paper §5.2 future work: "one can augment Aequitas to provide
// application/tenant traffic rate guarantees with a centralized RPC quota
// server").
//
// Two tenants (one sending host each) share a 3-node bottleneck; both
// over-demand QoS_h. Plain Aequitas fair-shares per channel (1:1); with the
// quota server, admitted QoS_h throughput follows the 3:1 tenant weights
// while the latency protection is unchanged.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "core/quota.h"

namespace {

using namespace aeq;

struct Result {
  double thput_a_gbps;
  double thput_b_gbps;
  double p999_us;
};

Result run(bool with_quota, std::uint64_t seed,
           const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.seed = seed;
  const double size_mtus = 8.0;
  config.slo =
      rpc::SloConfig::make({20 * sim::kUsec / size_mtus, 0.0}, 99.9);

  if (with_quota) {
    core::QuotaServerConfig server;
    // Budget: the admissible QoS_h rate for this SLO (~20% of 100G).
    server.qos_budget_bytes_per_sec = {0.20 * sim::gbps(100), sim::gbps(100)};
    core::AequitasConfig aequitas;
    aequitas.slo = config.slo;
    // Host 0 is tenant A (weight 3), host 1 tenant B; host 2 serves.
    config.admission.factory =
        core::quota_tenants(server, aequitas, {3.0, 1.0, 1.0});
  }
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  double bytes_on_qosh[2] = {0.0, 0.0};
  for (net::HostId tenant_host : {0, 1}) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.8 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.2 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(tenant_host, gen,
                             workload::fixed_destination(2));
    experiment.stack(tenant_host)
        .set_completion_listener(
            [&bytes_on_qosh, tenant_host](const rpc::RpcRecord& r) {
              if (r.qos_run == net::kQoSHigh && !r.terminated &&
                  r.issued > 20 * sim::kMsec) {
                bytes_on_qosh[tenant_host] +=
                    static_cast<double>(r.bytes);
              }
            });
  }
  experiment.run(20 * sim::kMsec, 30 * sim::kMsec);

  Result result{};
  result.thput_a_gbps = bytes_on_qosh[0] * 8 / (30 * sim::kMsec) / 1e9;
  result.thput_b_gbps = bytes_on_qosh[1] * 8 / (30 * sim::kMsec) / 1e9;
  result.p999_us =
      experiment.metrics().rnl_by_run_qos(0).p999() / sim::kUsec;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Extension",
                      "Per-tenant quota server over Aequitas (tenant "
                      "weights 3:1, both over-demanding QoS_h)");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (bool with_quota : {false, true}) {
    sweep.submit([with_quota, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      const Result r = run(with_quota, ctx.seed, trace, point);
      return runner::PointResult::single(
          {with_quota ? "with quota server (3:1)" : "Aequitas only (1:1)",
           r.thput_a_gbps, r.thput_b_gbps, r.p999_us});
    });
  }
  stats::Table table({{"policy", 26},
                      {"A thput(Gbps)", 14, 1},
                      {"B thput(Gbps)", 14, 1},
                      {"QoSh p999(us)", 14, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  std::printf("\nThe quota server turns per-channel fairness into weighted "
              "per-tenant guarantees without touching the latency SLO.\n");
  bench::print_footer(args);
  return 0;
}
