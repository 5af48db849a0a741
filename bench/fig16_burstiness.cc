// Figure 16: admitted QoS_h-share versus burst load rho. Theory (§5.2):
// the guaranteed admissible rate is inversely proportional to burstiness
// (X_h <= r * w_h * mu / rho), so the achieved share should follow ~C/rho.
// The bench fits C by least squares and reports both curves.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 16",
                      "Admitted QoS_h-share vs burst load rho "
                      "(33-node, mu=0.8, SLO 25us)");
  const double size_mtus = 8.0;
  const std::vector<double> rhos = {1.4, 1.6, 1.8, 2.0, 2.2};
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (double rho : rhos) {
    sweep.submit([rho, size_mtus, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      runner::ExperimentConfig config;
      config.num_hosts = 33;
      config.num_qos = 3;
      config.wfq_weights = {8.0, 4.0, 1.0};
      config.seed = ctx.seed;
      config.slo = rpc::SloConfig::make({25 * sim::kUsec / size_mtus,
                                         50 * sim::kUsec / size_mtus, 0.0},
                                        99.9);
      runner::Experiment experiment(config);
      trace.apply(experiment, point);
      const auto* sizes = experiment.own(
          std::make_unique<workload::FixedSize>(32 * sim::kKiB));
      bench::AllToAllSpec spec;
      spec.mix = {0.6, 0.3, 0.1};
      spec.burst_load = rho;
      spec.sizes = {sizes};
      bench::attach_all_to_all(experiment, spec);
      experiment.run(20 * sim::kMsec, 25 * sim::kMsec);
      runner::PointResult result;
      result.metrics["share"] = experiment.metrics().admitted_share(0);
      return result;
    });
  }
  const auto points = sweep.run();

  // Least-squares fit share = C / rho.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < rhos.size(); ++i) {
    num += points[i].metrics.at("share") / rhos[i];
    den += 1.0 / (rhos[i] * rhos[i]);
  }
  const double C = num / den;

  stats::Table table({{"rho", 10, 1},
                      {"achieved share(%)", 20, 1},
                      {"fitted C/rho (%)", 20, 1}});
  for (std::size_t i = 0; i < rhos.size(); ++i) {
    table.add_row({rhos[i], points[i].metrics.at("share") * 100,
                   C / rhos[i] * 100});
  }
  bench::emit(table, args);
  std::printf("\nfitted C = %.3f; admitted share is ~inversely proportional "
              "to burstiness\n",
              C);
  bench::print_footer(args);
  return 0;
}
