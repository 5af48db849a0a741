// Figure 13: CDF of outstanding RPCs per destination before/after Aequitas
// on the Figure-12 workload. Expected (paper): Aequitas shrinks the
// outstanding QoS_h+QoS_m population (admitted traffic drains fast) and the
// *decrease* there outweighs the increase in outstanding QoS_l RPCs,
// especially at the tail — which is why even QoS_l latency improves.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "stats/histogram.h"

namespace {

using namespace aeq;

struct Cdfs {
  stats::Histogram high{0.0, 512.0, 512};  // QoS_h + QoS_m group
  stats::Histogram low{0.0, 512.0, 512};   // QoS_l group
};

Cdfs run(bool with_aequitas, std::uint64_t seed,
         const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  const double size_mtus = 8.0;
  config.slo = rpc::SloConfig::make({25 * sim::kUsec / size_mtus,
                                     50 * sim::kUsec / size_mtus, 0.0},
                                    99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  bench::AllToAllSpec spec;
  spec.mix = {0.6, 0.3, 0.1};
  spec.sizes = {sizes};
  bench::attach_all_to_all(experiment, spec);

  Cdfs cdfs;
  experiment.sample_every(50 * sim::kUsec, [&](sim::Time t) {
    if (t < 10 * sim::kMsec) return;  // warmup
    for (std::size_t d = 0; d < experiment.network().num_hosts(); ++d) {
      const auto dst = static_cast<net::HostId>(d);
      cdfs.high.add(experiment.metrics().outstanding(dst, 0));
      cdfs.low.add(experiment.metrics().outstanding(dst, 1));
    }
  });
  experiment.run(10 * sim::kMsec, 15 * sim::kMsec);
  return cdfs;
}

void print_cdf(const char* title, const stats::Histogram& baseline,
               const stats::Histogram& aequitas, bench::BenchArgs& args) {
  std::printf("\n%s\n", title);
  stats::Table table({{"outstanding<=", 14, 0},
                      {"baseline CDF", 14, 3},
                      {"Aequitas CDF", 14, 3}});
  for (std::size_t count : {0u, 1u, 2u, 4u, 8u, 12u, 16u, 20u, 30u, 60u,
                            100u, 200u, 400u}) {
    table.add_row({static_cast<double>(count), baseline.cdf_at(count),
                   aequitas.cdf_at(count)});
  }
  bench::emit(table, args);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 13",
                      "Outstanding RPCs per destination (33-node, "
                      "mix 60/30/10), w/ and w/o Aequitas");
  const runner::SweepRunner seeds(args.sweep);
  auto cdfs = runner::parallel_points(
      2, args.sweep.jobs, [&seeds, &args](std::size_t index) {
        return run(index == 1, seeds.point_seed(index), args.trace,
                   static_cast<int>(index));
      });
  print_cdf("QoS_h + QoS_m outstanding RPCs:", cdfs[0].high, cdfs[1].high,
            args);
  print_cdf("QoS_l outstanding RPCs:", cdfs[0].low, cdfs[1].low, args);
  bench::print_footer(args);
  return 0;
}
