// Figure 18: a well-behaved (in-quota) channel keeps p_admit ~ 1.0.
// Channel A requests only 10% of its load on QoS_h — below its fair share —
// while channel B requests 80%. Expected (paper): A sustains ~10Gbps with
// p_admit near 1.0 (paper reports 1st-percentile 0.82), and B reclaims the
// excess quota (max-min fairness).
#include <cstdio>

#include "bench/fairness_common.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 18",
                      "In-quota channel (10% QoS_h) vs heavy channel (80%), "
                      "SLO 15us");
  bench::FairnessSpec spec;
  spec.qosh_fraction_a = 0.1;
  spec.qosh_fraction_b = 0.8;
  spec.seed = sim::derive_seed(args.sweep.base_seed, 0);
  spec.trace = args.trace;
  const bench::FairnessResult r = bench::run_fairness(spec);
  bench::emit(bench::fairness_timeline_table(r, 21), args);
  std::printf("\nsteady state (last third):\n");
  std::printf("  admitted QoS_h throughput: A %.1f Gbps (in quota), "
              "B %.1f Gbps (reclaims excess)\n",
              r.steady_throughput_gbps[0], r.steady_throughput_gbps[1]);
  std::printf("  channel A p_admit: mean %.3f, 1st-percentile %.3f "
              "(paper: 0.82)\n",
              r.steady_p_admit[0], r.p_admit_samples[0].percentile(1.0));
  bench::print_footer(args);
  return 0;
}
