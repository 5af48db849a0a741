// Ablation: WFQ realizations — virtual-time (PGPS) vs Deficit Weighted
// Round Robin (the paper's footnote 1 names both as implementations of the
// same mechanism). We replay the Figure-10 validation against both: DWRR
// preserves the same worst-case delay profile at this granularity (its
// unfairness bound is one quantum per class), so Aequitas's analysis holds
// over either; the micro-benchmarks in micro_core show DWRR's O(1) cost.
// The binary exits 1 when the worst |WFQ - DWRR| exceeds
// analysis::kReplaySlack of the period.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/packet_replay.h"
#include "analysis/wfq_delay.h"
#include "bench/bench_util.h"
#include "net/dwrr.h"
#include "net/wfq.h"

namespace {

using namespace aeq;

// Worst delay per class (of the period) on the Figure-10 replay: 1500-byte
// packets, 500us period, 3 cycles. Deterministic, so the sweep seed is
// unused. DWRR's quantum is one 1500-byte packet per unit of weight.
std::vector<double> run_once(const analysis::TwoQosParams& params, double x,
                             bool dwrr) {
  const std::vector<double> weights{params.phi, 1.0};
  return analysis::replay_figure7(
      params.mu, params.rho, {x, 1.0 - x}, 1500, 500 * sim::kUsec, 3,
      [&weights, dwrr](util::BlockPool& buffer)
          -> std::unique_ptr<net::QueueDiscipline> {
        if (dwrr) {
          return std::make_unique<net::DwrrQueue>(buffer, weights, 0, 1500);
        }
        return std::make_unique<net::WfqQueue>(buffer, weights);
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Ablation",
                      "WFQ implementations: virtual-time (PGPS) vs DWRR on "
                      "the Figure-10 validation (4:1, mu=0.8, rho=1.2)");
  const analysis::TwoQosParams params{.phi = 4.0, .mu = 0.8, .rho = 1.2};
  runner::SweepRunner sweep(args.sweep);
  for (int pct = 10; pct <= 90; pct += 10) {
    sweep.submit([pct, &params](const runner::PointContext&) {
      const double x = pct / 100.0;
      const std::vector<double> wfq = run_once(params, x, false);
      const std::vector<double> dwrr = run_once(params, x, true);
      runner::PointResult result;
      result.rows.push_back(
          {static_cast<double>(pct),
           stats::Cell(analysis::delay_high(params, x), 4),
           stats::Cell(wfq[0], 4), stats::Cell(dwrr[0], 4),
           stats::Cell(analysis::delay_low(params, x), 4),
           stats::Cell(wfq[1], 4), stats::Cell(dwrr[1], 4)});
      result.metrics["gap"] = std::max(std::abs(wfq[0] - dwrr[0]),
                                       std::abs(wfq[1] - dwrr[1]));
      return result;
    });
  }

  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"thry h", 10, 4},
                      {"wfq h", 10, 4},
                      {"dwrr h", 10, 4},
                      {"thry l", 10, 4},
                      {"wfq l", 10, 4},
                      {"dwrr l", 10, 4}});
  double worst_gap = 0.0;
  for (const auto& point : sweep.run()) {
    table.add_rows(point.rows);
    worst_gap = std::max(worst_gap, point.metrics.at("gap"));
  }
  bench::emit(table, args);
  std::printf("\nmax |WFQ - DWRR| worst-case delay: %.4f of the period — "
              "the delay analysis is implementation-agnostic.\n",
              worst_gap);
  bench::print_footer(args);
  if (worst_gap > analysis::kReplaySlack) {
    std::fprintf(stderr, "abl_wfq_impl: max |WFQ - DWRR| %.4f exceeds %g\n",
                 worst_gap, analysis::kReplaySlack);
    return 1;
  }
  return 0;
}
