// Figure 23: "testbed" experiment — in the paper this ran on 20 machines
// with 100G NICs behind one QoS-capable switch (weights 8:4:1). We
// reproduce it as a 20-host single-switch simulation (the switch is exactly
// a WFQ bottleneck, so the same code path is exercised; see DESIGN.md
// substitutions). Input QoS-mix (0.5, 0.35, 0.15); SLOs set as per a target
// mix of (0.2, 0.3, 0.5). Following the paper's footnote 7, RNL is reported
// normalized to each class's p99.9 when the input mix equals the target
// mix. Expected: w/o Aequitas ~(8.1, 5.0, 1.3); w/ Aequitas ~1.0 for every
// class, and the admitted mix converges to ~the target.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

constexpr double kSizeMtus = 8.0;  // 32KB WRITEs

runner::Experiment make_experiment(bool with_aequitas,
                                   const rpc::SloConfig& slo,
                                   std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.num_hosts = 20;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.slo = slo;
  config.seed = seed;
  return runner::Experiment(config);
}

void attach(runner::Experiment& experiment, const std::vector<double>& mix) {
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  bench::AllToAllSpec spec;
  spec.mix = mix;
  spec.sizes = {sizes};
  bench::attach_all_to_all(experiment, spec);
}

std::string mix_label(const double* shares) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f/%.0f/%.0f", 100 * shares[0],
                100 * shares[1], 100 * shares[2]);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 23",
                      "20-host testbed (simulated), weights 8:4:1, input "
                      "mix 50/35/15, SLOs at target mix 20/30/50");

  // Calibration at the target mix: the per-class p99.9 becomes both the
  // SLO and the normalization base. Runs serially (the sweep depends on
  // it) with a seed outside the sweep's index range.
  rpc::SloConfig placeholder = rpc::SloConfig::make(
      {25 * sim::kUsec / kSizeMtus, 50 * sim::kUsec / kSizeMtus, 0.0}, 99.9);
  runner::Experiment calibration = make_experiment(
      false, placeholder, sim::derive_seed(args.sweep.base_seed, 100));
  attach(calibration, {0.20, 0.30, 0.50});
  calibration.run(8 * sim::kMsec, 12 * sim::kMsec);
  double base[3];
  for (net::QoSLevel q = 0; q < 3; ++q) {
    base[q] = calibration.metrics().rnl_by_run_qos(q).p999();
  }
  std::printf("normalization base (p99.9 at target mix): "
              "%.1f / %.1f / %.1f us\n\n",
              base[0] / sim::kUsec, base[1] / sim::kUsec,
              base[2] / sim::kUsec);
  const rpc::SloConfig slo = rpc::SloConfig::make(
      {base[0] / kSizeMtus, base[1] / kSizeMtus, 0.0}, 99.9);

  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (bool with_aequitas : {false, true}) {
    sweep.submit([with_aequitas, slo, &base, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      runner::Experiment experiment =
          make_experiment(with_aequitas, slo, ctx.seed);
      trace.apply(experiment, point);
      attach(experiment, {0.50, 0.35, 0.15});
      experiment.run(15 * sim::kMsec, 20 * sim::kMsec);
      const auto& metrics = experiment.metrics();
      const double shares[3] = {metrics.admitted_share(0),
                                metrics.admitted_share(1),
                                metrics.admitted_share(2)};
      return runner::PointResult::single(
          {with_aequitas ? "w/  Aequitas" : "w/o Aequitas",
           metrics.rnl_by_run_qos(0).p999() / base[0],
           metrics.rnl_by_run_qos(1).p999() / base[1],
           metrics.rnl_by_run_qos(2).p999() / base[2], mix_label(shares)});
    });
  }

  stats::Table table({{"variant", 18},
                      {"QoS_h", 10, 1},
                      {"QoS_m", 10, 1},
                      {"QoS_l", 10, 1},
                      {"admitted mix (%)", 22}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  std::printf("\n(RNL normalized per class to the target-mix calibration "
              "run, as in the paper's footnote 7)\n");
  bench::print_footer(args);
  return 0;
}
