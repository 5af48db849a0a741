// Figure 8: theoretical worst-case WFQ delay per QoS level versus
// QoS_h-share, for weights 4:1, mu = 0.8, rho = 1.2 (Equations 1 and 8).
// The paper's figure shows QoS_h delay at zero until ~67% share, rising to a
// plateau ~0.13, and QoS_l delay peaking ~0.33 around the 67% share before
// falling to zero; the crossover (priority inversion) sits near 80%.
#include <cstdio>

#include "analysis/admissible.h"
#include "analysis/wfq_delay.h"
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace aeq;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  analysis::TwoQosParams params{.phi = 4.0, .mu = 0.8, .rho = 1.2};

  bench::print_header("Figure 8",
                      "Theoretical worst-case delay, QoS_h:QoS_l = 4:1, "
                      "mu=0.8, rho=1.2");
  runner::SweepRunner sweep(args.sweep);
  for (int pct = 2; pct <= 98; pct += 2) {
    sweep.submit([pct, params](const runner::PointContext&) {
      const double x = pct / 100.0;
      return runner::PointResult::single(
          {static_cast<double>(pct), analysis::delay_high(params, x),
           analysis::delay_low(params, x)});
    });
  }
  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"DelayBound(QoSh)", 18, 4},
                      {"DelayBound(QoSl)", 18, 4}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);

  const double boundary = analysis::inversion_boundary(params);
  std::printf("\nLemma-1 inversion boundary: QoSh-share = %.1f%%\n",
              boundary * 100.0);
  std::printf("Numeric admissible-region edge: QoSh-share = %.1f%%\n",
              analysis::max_admissible_share(params) * 100.0);
  bench::print_footer(args);
  return 0;
}
