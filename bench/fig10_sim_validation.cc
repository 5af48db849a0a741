// Figure 10: packet-level simulator validation against the closed-form
// 2-QoS delay bounds (Equation 1/8) with weights 4:1, mu = 0.8, rho = 1.2.
// Congestion control is disabled and the buffer unbounded, matching §6.1:
// packets following the Figure-7 arrival pattern are injected straight into
// a WFQ egress port and the worst observed delay per class is compared with
// theory. The packet simulator should track the theory closely, with QoS_l
// slightly above the fluid bound due to packet granularity. The replay is
// analysis::replay_figure7 (1500-byte packets, 500us period, 3 cycles); the
// binary exits 1 when the worst gap exceeds analysis::kReplaySlack of the
// period.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/packet_replay.h"
#include "analysis/wfq_delay.h"
#include "bench/bench_util.h"
#include "net/wfq.h"

using namespace aeq;

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 10",
                      "Packet simulator vs theory, QoS_h:QoS_l = 4:1, "
                      "mu=0.8, rho=1.2 (CC off, unbounded buffer)");
  const analysis::TwoQosParams params{.phi = 4.0, .mu = 0.8, .rho = 1.2};
  runner::SweepRunner sweep(args.sweep);
  for (int pct = 5; pct <= 95; pct += 5) {
    sweep.submit([pct, params](const runner::PointContext&) {
      const double x = pct / 100.0;
      const std::vector<double> replay = analysis::replay_figure7(
          params.mu, params.rho, {x, 1.0 - x}, 1500, 500 * sim::kUsec, 3,
          [&params](util::BlockPool& buffer) {
            return std::make_unique<net::WfqQueue>(
                buffer, std::vector<double>{params.phi, 1.0});
          });
      const double th_h = analysis::delay_high(params, x);
      const double th_l = analysis::delay_low(params, x);
      runner::PointResult result = runner::PointResult::single(
          {static_cast<double>(pct), replay[0], th_h, replay[1], th_l});
      result.metrics["gap"] =
          std::max(std::abs(replay[0] - th_h), std::abs(replay[1] - th_l));
      return result;
    });
  }
  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"sim QoSh", 12, 4},
                      {"theory QoSh", 12, 4},
                      {"sim QoSl", 12, 4},
                      {"theory QoSl", 12, 4}});
  double worst_gap = 0.0;
  for (const auto& point : sweep.run()) {
    table.add_rows(point.rows);
    worst_gap = std::max(worst_gap, point.metrics.at("gap"));
  }
  bench::emit(table, args);
  std::printf("\nmax |sim - theory| across the sweep: %.4f "
              "(normalized to the period)\n",
              worst_gap);
  bench::print_footer(args);
  if (worst_gap > analysis::kReplaySlack) {
    std::fprintf(stderr, "fig10: max |sim - theory| %.4f exceeds %g\n",
                 worst_gap, analysis::kReplaySlack);
    return 1;
  }
  return 0;
}
