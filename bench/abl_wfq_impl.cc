// Ablation: WFQ realizations — virtual-time (PGPS) vs Deficit Weighted
// Round Robin (the paper's footnote 1 names both as implementations of the
// same mechanism). We replay the Figure-10 validation against both: DWRR
// preserves the same worst-case delay profile at this granularity (its
// unfairness bound is one quantum per class), so Aequitas's analysis holds
// over either; the micro-benchmarks in micro_core show DWRR's O(1) cost.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/wfq_delay.h"
#include "bench/bench_util.h"
#include "net/dwrr.h"
#include "net/port.h"
#include "net/wfq.h"
#include "sim/simulator.h"

namespace {

using namespace aeq;

struct Point {
  double high;
  double low;
};

// Deterministic packet replay — no RNG, so the sweep seed is unused.
Point run_once(double x, bool dwrr) {
  sim::Simulator s;
  struct Recorder final : net::PacketSink {
    sim::Simulator* sim;
    double worst[2] = {0, 0};
    void receive(const net::Packet& p) override {
      worst[p.qos] = std::max(worst[p.qos], sim->now() - p.sent_time);
    }
  } recorder;
  recorder.sim = &s;

  const sim::Rate line_rate = sim::gbps(100);
  util::BlockPool buffer;
  std::unique_ptr<net::QueueDiscipline> queue;
  if (dwrr) {
    queue = std::make_unique<net::DwrrQueue>(
        buffer, std::vector<double>{4.0, 1.0}, 0, 1500);
  } else {
    queue = std::make_unique<net::WfqQueue>(buffer,
                                            std::vector<double>{4.0, 1.0});
  }
  net::Port port(s, buffer, line_rate, 0.0, std::move(queue));
  port.connect(&recorder);

  const sim::Time period = 500 * sim::kUsec;
  const double mu = 0.8, rho = 1.2;
  const sim::Time window = period * mu / rho;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int cls = 0; cls < 2; ++cls) {
      const double share = cls == 0 ? x : 1.0 - x;
      const double byte_rate = rho * line_rate * share;
      const sim::Time interval = 1500 / byte_rate;
      for (sim::Time t = cycle * period; t < cycle * period + window;
           t += interval) {
        s.schedule_at(t, [&port, cls, &s] {
          net::Packet p;
          p.qos = static_cast<net::QoSLevel>(cls);
          p.size_bytes = 1500;
          p.sent_time = s.now();
          port.send(p);
        });
      }
    }
  }
  s.run();
  return Point{recorder.worst[0] / period, recorder.worst[1] / period};
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
      const Point wfq = run_once(x, false);
      const Point dwrr = run_once(x, true);
      runner::PointResult result;
      result.rows.push_back(
          {static_cast<double>(pct),
           stats::Cell(analysis::delay_high(params, x), 4),
           stats::Cell(wfq.high, 4), stats::Cell(dwrr.high, 4),
           stats::Cell(analysis::delay_low(params, x), 4),
           stats::Cell(wfq.low, 4), stats::Cell(dwrr.low, 4)});
      result.metrics["gap"] = std::max(std::abs(wfq.high - dwrr.high),
                                       std::abs(wfq.low - dwrr.low));
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
  return 0;
}
