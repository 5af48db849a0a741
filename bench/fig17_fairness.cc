// Figure 17: fairness across RPC channels. Channel A requests 80% of its
// line-rate load on QoS_h, channel B requests 40%; the QoS_h SLO is 15us.
// Expected (paper): the channels converge to *equal admitted QoS_h
// throughput* via *different* admit probabilities (the heavier channel's
// p_admit converges to roughly half the lighter one's).
#include <cstdio>

#include "bench/fairness_common.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 17",
                      "Two channels, 80%/40% requested on QoS_h, SLO 15us: "
                      "max-min fair admitted throughput");
  bench::FairnessSpec spec;
  spec.qosh_fraction_a = 0.8;
  spec.qosh_fraction_b = 0.4;
  spec.seed = sim::derive_seed(args.sweep.base_seed, 0);
  spec.trace = args.trace;
  const bench::FairnessResult r = bench::run_fairness(spec);
  bench::emit(bench::fairness_timeline_table(r, 21), args);
  std::printf("\nsteady state (last third):\n");
  std::printf("  admitted QoS_h throughput: A %.1f Gbps, B %.1f Gbps "
              "(fair => equal)\n",
              r.steady_throughput_gbps[0], r.steady_throughput_gbps[1]);
  std::printf("  mean p_admit: A %.3f, B %.3f (ratio %.2f; requested load "
              "ratio is 2.0)\n",
              r.steady_p_admit[0], r.steady_p_admit[1],
              r.steady_p_admit[1] / r.steady_p_admit[0]);
  bench::print_footer(args);
  return 0;
}
