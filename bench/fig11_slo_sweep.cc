// Figure 11: Aequitas SLO-compliance on the 3-node microbenchmark. Two
// clients issue 32KB WRITE RPCs at line rate toward one server, 70% on
// QoS_h / 30% on QoS_l; the QoS_h SLO sweeps 15..60us (p99.9). Expected
// (paper): achieved p99.9 RNL tracks the SLO closely, and the admitted
// QoS_h share grows with looser SLOs (the SLO-vs-admitted-traffic tradeoff).
#include <algorithm>
#include <memory>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 11",
                      "SLO compliance, 3-node, 32KB RPCs, 70%/30% h/l at "
                      "line rate, QoS_h:QoS_l = 4:1");
  runner::SweepRunner sweep(args.sweep);
  // Convergence time scales with the AI increment window
  // (= per-MTU target * 1000 at p99.9), so looser SLOs run longer.
  int trace_point = 0;
  for (double slo_us : {15.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
    sweep.submit([slo_us, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      runner::ExperimentConfig config;
      config.num_hosts = 3;
      config.num_qos = 2;
      config.wfq_weights = {4.0, 1.0};
      config.seed = ctx.seed;
      const double size_mtus = 8.0;  // 32KB at 4KB MTU
      config.slo = rpc::SloConfig::make(
          {slo_us * sim::kUsec / size_mtus, 0.0}, 99.9);
      runner::Experiment experiment(config);
      trace.apply(experiment, point);

      const auto* sizes = experiment.own(
          std::make_unique<workload::FixedSize>(32 * sim::kKiB));
      for (net::HostId client : {0, 1}) {
        workload::GeneratorConfig gen;
        gen.classes = {
            {rpc::Priority::kPC, 0.7 * sim::gbps(100), sizes, 0.0},
            {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0},
        };
        experiment.add_generator(client, gen,
                                 workload::fixed_destination(2));
      }
      const sim::Time window =
          experiment.aequitas(0)->increment_window(net::kQoSHigh);
      const sim::Time warmup = std::max(30 * sim::kMsec, 40.0 * window);
      const sim::Time measure = std::max(60 * sim::kMsec, 40.0 * window);
      experiment.run(warmup, measure);

      const auto& metrics = experiment.metrics();
      return runner::PointResult::single(
          {slo_us, metrics.rnl_by_run_qos(0).p999() / sim::kUsec,
           100.0 * metrics.admitted_share(0)});
    });
  }

  stats::Table table({{"SLO(us)", 12, 0},
                      {"p99.9 RNL QoSh(us)", 18, 1},
                      {"QoSh-share(%)", 16, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
