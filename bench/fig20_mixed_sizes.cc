// Figure 20: size-normalized SLOs with a non-uniform size distribution.
// Half the hosts issue 32KB RPCs, the other half 64KB, on the 33-node
// all-to-all workload. Because Algorithm 1 normalizes the latency target
// per MTU (and scales MD with RPC size), both size groups should meet their
// (proportionally larger) absolute targets under Aequitas.
#include <cstdio>
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "stats/percentile.h"

namespace {

using namespace aeq;

struct GroupStats {
  stats::PercentileTracker rnl[2][3];  // [size group][qos]
  double shares[3] = {0.0, 0.0, 0.0};
};

GroupStats run(bool with_aequitas, std::uint64_t seed,
               const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  // Normalized SLO: 25us per 8 MTUs => 32KB gets 25us, 64KB gets 50us.
  config.slo = rpc::SloConfig::make(
      {25.0 / 8 * sim::kUsec, 50.0 / 8 * sim::kUsec, 0.0}, 99.9);
  // Favor SLO-compliance over stability (§6.6): larger messages fatten the
  // tail of the latency distribution, so the default alpha/beta balance
  // (which equalizes the average miss rate) would settle above the p99.9
  // target.
  config.admission.aequitas.alpha = 0.002;
  config.admission.aequitas.beta_per_mtu = 0.05;
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const auto* small = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  const auto* large = experiment.own(
      std::make_unique<workload::FixedSize>(64 * sim::kKiB));
  GroupStats stats_out;  // captured by ref; callbacks stop before return
  for (std::size_t h = 0; h < 33; ++h) {
    const auto* sizes = h % 2 == 0 ? small : large;
    workload::GeneratorConfig gen;
    gen.burst_over_avg = 1.4 / 0.8;
    const double rate = 0.8 * sim::gbps(100);
    gen.classes = {{rpc::Priority::kPC, 0.6 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.1 * rate, sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
    experiment.stack(static_cast<net::HostId>(h))
        .set_completion_listener([&stats_out, h](const rpc::RpcRecord& r) {
          if (r.issued < 15 * sim::kMsec) return;
          stats_out.rnl[h % 2][r.qos_run].add(r.rnl);
        });
  }
  experiment.run(15 * sim::kMsec, 22 * sim::kMsec);
  for (net::QoSLevel q = 0; q < 3; ++q) {
    stats_out.shares[q] = experiment.metrics().admitted_share(q);
  }
  return stats_out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 20",
                      "Size-normalized SLOs: half 32KB / half 64KB "
                      "channels, SLO 25us per 8 MTUs (p99.9)");
  const runner::SweepRunner seeds(args.sweep);
  auto results = runner::parallel_points(
      2, args.sweep.jobs, [&seeds, &args](std::size_t index) {
        return run(index == 1, seeds.point_seed(index), args.trace,
                   static_cast<int>(index));
      });
  GroupStats& baseline = results[0];
  GroupStats& aequitas = results[1];

  stats::Table table({{"group", 22},
                      {"QoS_h", 10, 1},
                      {"QoS_m", 10, 1},
                      {"QoS_l", 10, 1}});
  struct Row {
    const char* label;
    GroupStats* stats;
    int group;
  };
  const Row rows[] = {
      {"32KB w/o Aequitas", &baseline, 0},
      {"32KB w/  Aequitas", &aequitas, 0},
      {"64KB w/o Aequitas", &baseline, 1},
      {"64KB w/  Aequitas", &aequitas, 1},
  };
  for (const Row& row : rows) {
    table.add_row({row.label,
                   row.stats->rnl[row.group][0].p999() / sim::kUsec,
                   row.stats->rnl[row.group][1].p999() / sim::kUsec,
                   row.stats->rnl[row.group][2].p999() / sim::kUsec});
  }
  bench::emit(table, args);
  std::printf("\nabsolute targets: 32KB 25us(h)/50us(m); "
              "64KB 50us(h)/100us(m)\n");
  std::printf("admitted mix w/o: %.0f/%.0f/%.0f%%  w/: %.0f/%.0f/%.0f%%\n",
              100 * baseline.shares[0], 100 * baseline.shares[1],
              100 * baseline.shares[2], 100 * aequitas.shares[0],
              100 * aequitas.shares[1], 100 * aequitas.shares[2]);
  bench::print_footer(args);
  return 0;
}
