// Figure 12: per-QoS p99.9 RNL with and without Aequitas on the 33-node
// all-to-all setup (mu=0.8, rho=1.4, input QoS-mix 0.6/0.3/0.1, weights
// 8:4:1, SLOs 25us/50us for QoS_h/QoS_m (calibrated to this simulator; see EXPERIMENTS.md) at p99.9, 32KB RPCs).
// Expected shape (paper): without Aequitas all classes blow past the SLOs
// (83/129/543us); with Aequitas QoS_h and QoS_m land at ~SLO and even QoS_l
// improves (Aequitas is not a zero-sum game).
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

runner::PointResult run_variant(bool with_aequitas, std::uint64_t seed,
                                const bench::TraceRequest& trace,
                                int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  // Favor SLO-compliance over stability (§6.6): per-channel RPC rates are
  // low with 32 destinations, which weakens MD pressure at the default
  // balance.
  config.admission.aequitas.alpha = 0.003;
  config.admission.aequitas.beta_per_mtu = 0.03;
  const double size_mtus = 8.0;  // 32KB
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
  experiment.run(15 * sim::kMsec, 30 * sim::kMsec);

  runner::PointResult result;
  result.rows = bench::rnl_rows(experiment.metrics(), 3);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 12",
                      "33-node all-to-all, mix 60/30/10, SLO 25/50us, "
                      "w/ and w/o Aequitas");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (bool with_aequitas : {false, true}) {
    sweep.submit([with_aequitas, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      return run_variant(with_aequitas, ctx.seed, trace, point);
    });
  }
  const auto points = sweep.run();
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::printf("\n%s Aequitas:\n", p == 1 ? "WITH" : "WITHOUT");
    stats::Table table = bench::make_rnl_table();
    table.add_rows(points[p].rows);
    bench::emit(table, args);
  }
  std::printf("\nSLO: QoS_h 25us, QoS_m 50us (p99.9, 32KB RPCs)\n");
  bench::print_footer(args);
  return 0;
}
