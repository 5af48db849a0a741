// Figure 9: simulated (GPS fluid) worst-case WFQ delay with 3 QoS levels,
// mu = 0.8, rho = 1.4, QoS_m : QoS_l share fixed at 2:1, for weights
// (a) 8:4:1 and (b) 50:4:1. The paper's takeaway: the QoS-mix shapes the
// delay profile of every class, and raising the QoS_h weight moves the
// priority-inversion point right at the cost of higher QoS_m delay.
#include <cstdio>
#include <vector>

#include "analysis/admissible.h"
#include "bench/bench_util.h"

namespace {

using namespace aeq;

void run_panel(const char* label, const std::vector<double>& weights,
               bench::BenchArgs& args) {
  std::printf("\n(%s) weights %g:%g:%g, mu=0.8, rho=1.4, QoSm:QoSl = 2:1\n",
              label, weights[0], weights[1], weights[2]);
  const auto sweep = analysis::sweep_qosh_share(weights, {2.0, 1.0}, 0.8,
                                                1.4, 0.05, 0.90, 18);
  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"Delay(QoSh)", 14, 4},
                      {"Delay(QoSm)", 14, 4},
                      {"Delay(QoSl)", 14, 4},
                      {"admissible", 12}});
  double inversion = 1.0;
  for (const auto& point : sweep) {
    const bool admissible = point.delay[0] <= point.delay[1] + 1e-9 &&
                            point.delay[1] <= point.delay[2] + 1e-9;
    if (!admissible && inversion == 1.0) inversion = point.qosh_share;
    table.add_row({point.qosh_share * 100.0, point.delay[0], point.delay[1],
                   point.delay[2], admissible ? "yes" : "no"});
  }
  bench::emit(table, args);
  if (inversion < 1.0) {
    std::printf("priority inversion first appears at QoSh-share ~%.0f%%\n",
                inversion * 100.0);
  } else {
    std::printf("no priority inversion in the swept range\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  aeq::bench::BenchArgs args = aeq::bench::parse_args(argc, argv);
  aeq::bench::reject_unknown_flags(args);
  aeq::bench::print_header(
      "Figure 9", "Simulated WFQ worst-case delay, 3 QoS levels (fluid)");
  run_panel("a", {8.0, 4.0, 1.0}, args);
  run_panel("b", {50.0, 4.0, 1.0}, args);
  aeq::bench::print_footer(args);
  return 0;
}
