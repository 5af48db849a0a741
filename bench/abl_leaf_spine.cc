// Ablation: overloads beyond the edge — Aequitas on a two-tier leaf-spine
// fabric with oversubscribed uplinks.
//
// §2.2.2 stresses that overloads occur anywhere along an RPC's path, not
// just at ToR-to-NIC links (the assumption several isolation schemes make).
// Because Aequitas measures end-to-end RNL per (dst, QoS), it needs no
// knowledge of *where* the congestion forms. This ablation oversubscribes
// the leaf uplinks 2:1 and runs cross-leaf traffic only, so all queueing is
// in the fabric core.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

runner::PointResult run(bool with_aequitas, std::uint64_t seed,
                        const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.use_leaf_spine = true;
  config.leaf_spine.hosts_per_leaf = 8;
  config.leaf_spine.num_leaves = 4;
  config.leaf_spine.num_spines = 2;
  config.leaf_spine.edge_rate = sim::gbps(100);
  config.leaf_spine.fabric_rate = sim::gbps(100);  // 8x100G in, 2x100G up
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  // Per-channel QoS_h rates are tiny (traffic spreads over 24 remote
  // hosts), so favor SLO-compliance in the AIMD balance (§6.6).
  config.admission.aequitas.alpha = 0.002;
  config.admission.aequitas.beta_per_mtu = 0.04;
  const double size_mtus = 8.0;
  config.slo = rpc::SloConfig::make({60 * sim::kUsec / size_mtus,
                                     120 * sim::kUsec / size_mtus, 0.0},
                                    99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  const std::size_t hosts = experiment.network().num_hosts();
  for (std::size_t h = 0; h < hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.burst_over_avg = 1.4 / 0.8;
    const double rate = 0.35 * sim::gbps(100);  // 0.35*8 = 2.8x the uplinks
    gen.classes = {{rpc::Priority::kPC, 0.5 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.2 * rate, sizes, 0.0}};
    // Cross-leaf destinations only: congestion lives on the uplinks.
    const std::size_t per_leaf = 8;
    const std::size_t my_leaf = h / per_leaf;
    experiment.add_generator(
        static_cast<net::HostId>(h), gen,
        [hosts, per_leaf, my_leaf](sim::Rng& rng) {
          while (true) {
            const auto dst = static_cast<net::HostId>(rng.index(hosts));
            if (static_cast<std::size_t>(dst) / per_leaf != my_leaf) {
              return dst;
            }
          }
        });
  }
  experiment.run(20 * sim::kMsec, 25 * sim::kMsec);

  runner::PointResult result;
  result.rows = bench::rnl_rows(experiment.metrics(), 3);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Ablation",
                      "Overload in the fabric core: 32-host leaf-spine, "
                      "2:1 oversubscribed uplinks, cross-leaf traffic only "
                      "(SLO 60/120us)");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (bool with_aequitas : {false, true}) {
    sweep.submit([with_aequitas, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      return run(with_aequitas, ctx.seed, trace, point);
    });
  }
  const auto points = sweep.run();
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::printf("\n%s Aequitas:\n", p == 1 ? "WITH" : "WITHOUT");
    stats::Table table = bench::make_rnl_table();
    table.add_rows(points[p].rows);
    bench::emit(table, args);
  }
  std::printf("\nAequitas never learns where the bottleneck is — RNL "
              "feedback alone relocates the admission decision to whatever "
              "path segment is overloaded.\n");
  bench::print_footer(args);
  return 0;
}
