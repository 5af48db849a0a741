// Figure 14: baseline (w/o Aequitas) p99.9 RNL per QoS as the input
// QoS_h-share sweeps 5..70% with QoS_m pinned at 25% (33-node all-to-all,
// 32KB RPCs). This is how the operator reads off the maximal admissible
// share for a given SLO: the paper picks 15us <-> QoS_h-share 25%.
#include <memory>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 14",
                      "Baseline p99.9 RNL vs input QoS_h-share "
                      "(QoS_m fixed at 25%), 33-node, no admission control");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (double share : {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.70}) {
    sweep.submit([share, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      runner::ExperimentConfig config;
      config.num_hosts = 33;
      config.num_qos = 3;
      config.wfq_weights = {8.0, 4.0, 1.0};
      config.admission.kind = policy::kAlwaysAdmit;
      config.seed = ctx.seed;
      const double size_mtus = 8.0;
      config.slo = rpc::SloConfig::make({15 * sim::kUsec / size_mtus,
                                         25 * sim::kUsec / size_mtus, 0.0},
                                        99.9);
      runner::Experiment experiment(config);
      trace.apply(experiment, point);
      const auto* sizes = experiment.own(
          std::make_unique<workload::FixedSize>(32 * sim::kKiB));
      bench::AllToAllSpec spec;
      spec.mix = {share, 0.25, 0.75 - share};
      spec.sizes = {sizes};
      bench::attach_all_to_all(experiment, spec);
      experiment.run(8 * sim::kMsec, 15 * sim::kMsec);

      const auto& metrics = experiment.metrics();
      return runner::PointResult::single(
          {share * 100, metrics.rnl_by_run_qos(0).p999() / sim::kUsec,
           metrics.rnl_by_run_qos(1).p999() / sim::kUsec,
           metrics.rnl_by_run_qos(2).p999() / sim::kUsec});
    });
  }

  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"QoSh p999(us)", 14, 1},
                      {"QoSm p999(us)", 14, 1},
                      {"QoSl p999(us)", 14, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
