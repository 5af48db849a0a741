// Figure 15: Aequitas admits close to the maximal (target) QoS-mix
// irrespective of the input QoS-mix, while QoS_h stays SLO-compliant.
//
// Method (mirrors §6.3): first calibrate — run the 33-node baseline at the
// target mix (25/25/50) and read the achieved p99.9 RNL per class; those
// become the SLOs, so by construction ~25% QoS_h / ~25% QoS_m is the
// maximal admissible traffic. Then feed four different input mixes through
// Aequitas and report the admitted mix and QoS_h p99.9 RNL. Expected: all
// inputs converge to ~the target mix (self-consistent for 25/25/50).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

constexpr double kSizeMtus = 8.0;  // 32KB RPCs

runner::Experiment make_experiment(bool with_aequitas,
                                   const rpc::SloConfig& slo,
                                   std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.slo = slo;
  config.seed = seed;
  // Favor SLO-compliance over work-conservation (§6.6 / Appendix C).
  config.admission.aequitas.alpha = 0.003;
  config.admission.aequitas.beta_per_mtu = 0.03;
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

std::string mix_label(double h, double m, double l, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f/%.*f/%.*f", precision, h, precision,
                m, precision, l);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 15",
                      "Admitted QoS-mix converges to the target mix "
                      "(25/25/50) for any input mix, 33-node");

  // --- calibration: SLOs = baseline p99.9 at the target mix. Runs serially
  // (the sweep below depends on its output) with a seed derived outside the
  // sweep's index range so no point shares its stream. ---
  rpc::SloConfig placeholder = rpc::SloConfig::make(
      {15 * sim::kUsec / kSizeMtus, 25 * sim::kUsec / kSizeMtus, 0.0}, 99.9);
  runner::Experiment calibration = make_experiment(
      false, placeholder, sim::derive_seed(args.sweep.base_seed, 100));
  attach(calibration, {0.25, 0.25, 0.50});
  calibration.run(8 * sim::kMsec, 12 * sim::kMsec);
  const double slo_h = calibration.metrics().rnl_by_run_qos(0).p999();
  const double slo_m = calibration.metrics().rnl_by_run_qos(1).p999();
  std::printf("calibrated SLOs at target mix: QoS_h %.1fus, QoS_m %.1fus "
              "(p99.9)\n\n",
              slo_h / sim::kUsec, slo_m / sim::kUsec);
  const rpc::SloConfig slo = rpc::SloConfig::make(
      {slo_h / kSizeMtus, slo_m / kSizeMtus, 0.0}, 99.9);

  const std::vector<std::vector<double>> inputs = {
      {0.25, 0.25, 0.50},
      {0.60, 0.30, 0.10},
      {0.50, 0.30, 0.20},
      {0.40, 0.40, 0.20},
  };
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (const auto& mix : inputs) {
    sweep.submit([mix, slo, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      runner::Experiment experiment = make_experiment(true, slo, ctx.seed);
      trace.apply(experiment, point);
      attach(experiment, mix);
      experiment.run(25 * sim::kMsec, 30 * sim::kMsec);
      const auto& metrics = experiment.metrics();
      return runner::PointResult::single(
          {mix_label(mix[0] * 100, mix[1] * 100, mix[2] * 100, 0),
           mix_label(100 * metrics.admitted_share(0),
                     100 * metrics.admitted_share(1),
                     100 * metrics.admitted_share(2), 1),
           metrics.rnl_by_run_qos(0).p999() / sim::kUsec});
    });
  }

  stats::Table table({{"input mix (h/m/l %)", 22},
                      {"admitted mix (h/m/l %)", 24, 1},
                      {"QoSh p99.9 (us)", 18, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
