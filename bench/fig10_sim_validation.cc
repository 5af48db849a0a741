// Figure 10: packet-level simulator validation against the closed-form
// 2-QoS delay bounds (Equation 1/8) with weights 4:1, mu = 0.8, rho = 1.2.
// Congestion control is disabled and the buffer unbounded, matching §6.1:
// packets following the Figure-7 arrival pattern are injected straight into
// a WFQ egress port and the worst observed delay per class is compared with
// theory. The packet simulator should track the theory closely, with QoS_l
// slightly above the fluid bound due to packet granularity. The binary
// exits 1 when the worst gap exceeds kMaxGap of the period, the slack
// WfqDelayBoundProperty allows for packet granularity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/wfq_delay.h"
#include "bench/bench_util.h"
#include "net/port.h"
#include "net/wfq.h"
#include "sim/simulator.h"

namespace {

using namespace aeq;

// Largest |sim - theory| a row may show, normalized to the period.
constexpr double kMaxGap = 0.01;

class DelayRecorder final : public net::PacketSink {
 public:
  void receive(const net::Packet& packet) override {
    const double delay = now_fn_() - packet.sent_time;
    worst_[packet.qos] = std::max(worst_[packet.qos], delay);
  }
  std::function<sim::Time()> now_fn_;
  double worst_[2] = {0.0, 0.0};
};

struct SimPoint {
  double high;
  double low;
};

SimPoint run_packet_sim(double x, double mu, double rho, double phi) {
  sim::Simulator s;
  DelayRecorder recorder;
  recorder.now_fn_ = [&s] { return s.now(); };
  const sim::Rate line_rate = sim::gbps(100);
  util::BlockPool buffer;
  net::Port port(s, buffer, line_rate, 0.0,
                 std::make_unique<net::WfqQueue>(
                     buffer, std::vector<double>{phi, 1.0}));
  port.connect(&recorder);

  const sim::Time period = 500 * sim::kUsec;
  const sim::Time window = period * mu / rho;
  const std::uint32_t pkt = 1500;
  const int periods = 3;

  for (int p = 0; p < periods; ++p) {
    const sim::Time t0 = p * period;
    for (int cls = 0; cls < 2; ++cls) {
      const double share = cls == 0 ? x : 1.0 - x;
      if (share <= 0.0) continue;
      const double byte_rate = rho * line_rate * share;
      const sim::Time interval = pkt / byte_rate;
      for (sim::Time t = t0; t < t0 + window; t += interval) {
        s.schedule_at(t, [&port, cls, pkt, &s] {
          net::Packet packet;
          packet.qos = static_cast<net::QoSLevel>(cls);
          packet.size_bytes = pkt;
          packet.sent_time = s.now();
          port.send(packet);
        });
      }
    }
  }
  s.run();
  return SimPoint{recorder.worst_[0] / period, recorder.worst_[1] / period};
}

}  // namespace

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
      const SimPoint sim_point =
          run_packet_sim(x, params.mu, params.rho, params.phi);
      const double th_h = analysis::delay_high(params, x);
      const double th_l = analysis::delay_low(params, x);
      runner::PointResult result = runner::PointResult::single(
          {static_cast<double>(pct), sim_point.high, th_h, sim_point.low,
           th_l});
      result.metrics["gap"] = std::max(std::abs(sim_point.high - th_h),
                                       std::abs(sim_point.low - th_l));
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
  if (worst_gap > kMaxGap) {
    std::fprintf(stderr, "fig10: max |sim - theory| %.4f exceeds %g\n",
                 worst_gap, kMaxGap);
    return 1;
  }
  return 0;
}
