// Appendix C (Figures 28/29): alpha/beta sensitivity. Re-runs the fairness
// experiments with beta = 0.0015 (vs default 0.01): smaller decrements give
// much smoother admit probabilities — the in-quota channel's 1st-percentile
// p_admit rises (paper: 0.82 -> 0.96) — at the cost of looser
// SLO-compliance. alpha trades the same way in the opposite direction.
#include <cstdio>
#include <vector>

#include "bench/fairness_common.h"

namespace {

using namespace aeq;

struct Setting {
  const char* label;
  double fa;
  double fb;
  double beta;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Appendix C (Fig 28/29)",
                      "beta sensitivity on the fairness experiments "
                      "(smaller beta = smoother p_admit, looser compliance)");
  const std::vector<Setting> settings = {
      {"Fig28 80/40", 0.8, 0.4, 0.01},
      {"Fig28 80/40", 0.8, 0.4, 0.0015},
      {"Fig29 10/80", 0.1, 0.8, 0.01},
      {"Fig29 10/80", 0.1, 0.8, 0.0015},
  };
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (const auto& setting : settings) {
    sweep.submit([setting, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      bench::FairnessSpec spec;
      spec.qosh_fraction_a = setting.fa;
      spec.qosh_fraction_b = setting.fb;
      spec.beta_per_mtu = setting.beta;
      spec.duration = 400 * sim::kMsec;
      spec.seed = ctx.seed;
      spec.trace = trace;
      spec.trace_point = point;
      const bench::FairnessResult r = bench::run_fairness(spec);
      runner::PointResult result;
      result.rows.push_back(
          {setting.label, stats::Cell(setting.beta, 4),
           r.steady_throughput_gbps[0], r.steady_throughput_gbps[1],
           r.steady_p_admit[0], r.p_admit_samples[0].percentile(1.0),
           r.p_admit_samples[0].summary().stddev(), r.steady_p_admit[1]});
      return result;
    });
  }

  stats::Table table({{"setting", 14},
                      {"beta", 8, 4},
                      {"thputA(Gbps)", 13, 1},
                      {"thputB(Gbps)", 13, 1},
                      {"pA mean", 9, 3},
                      {"pA p1", 9, 3},
                      {"pA stddev", 10, 3},
                      {"pB mean", 9, 3}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  std::printf("\nsmaller beta: smoother p_admit (higher p1, lower stddev) "
              "at looser SLO-compliance\n");
  bench::print_footer(args);
  return 0;
}
