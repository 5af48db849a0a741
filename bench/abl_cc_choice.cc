// Ablation: Aequitas over different congestion controls.
//
// The paper positions Aequitas as CC-agnostic — it "relies on a
// well-functioning congestion control algorithm ... to keep switch buffer
// occupancy small" (§7) but operates strictly above it. This ablation runs
// the Figure-12 workload (scaled down) over Swift, DCTCP(+ECN), and a fixed
// window (no CC), with and without admission control. Expected: Aequitas
// tracks its SLO over both real CCs; without any CC the fabric itself
// melts, which admission control at the RPC layer cannot fully fix.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

runner::PointResult run(const char* name,
                        runner::ExperimentConfig::CcKind cc, bool aequitas,
                        std::uint64_t seed,
                        const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 17;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.cc_kind = cc;
  config.fixed_window_packets = 64.0;
  config.admission.kind = aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  const double size_mtus = 8.0;
  config.slo = rpc::SloConfig::make({25 * sim::kUsec / size_mtus,
                                     50 * sim::kUsec / size_mtus, 0.0},
                                    99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  bench::AllToAllSpec spec;
  spec.mix = {0.6, 0.3, 0.1};
  spec.sizes = {sizes};
  bench::attach_all_to_all(experiment, spec);
  experiment.run(12 * sim::kMsec, 18 * sim::kMsec);

  double drops = 0;
  for (std::size_t h = 0; h < experiment.network().num_hosts(); ++h) {
    drops += static_cast<double>(
        experiment.network()
            .downlink(static_cast<net::HostId>(h))
            .queue()
            .stats()
            .dropped_packets);
  }
  return runner::PointResult::single(
      {name, aequitas ? "on" : "off",
       experiment.metrics().rnl_by_run_qos(0).p999() / sim::kUsec,
       experiment.metrics().rnl_by_run_qos(1).p999() / sim::kUsec,
       100 * experiment.metrics().admitted_share(0),
       stats::Cell(drops, 0)});
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Ablation",
                      "Aequitas over Swift vs DCTCP vs no CC "
                      "(17-node all-to-all, SLO 25/50us)");
  struct Case {
    const char* name;
    runner::ExperimentConfig::CcKind kind;
  };
  const Case cases[] = {
      {"Swift", runner::ExperimentConfig::CcKind::kSwift},
      {"DCTCP (ECN)", runner::ExperimentConfig::CcKind::kDctcp},
      {"fixed window (none)", runner::ExperimentConfig::CcKind::kFixedWindow},
  };
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (const Case& c : cases) {
    for (bool aequitas : {false, true}) {
      sweep.submit([c, aequitas, trace = args.trace,
                    point = trace_point++](const runner::PointContext& ctx) {
        return run(c.name, c.kind, aequitas, ctx.seed, trace, point);
      });
    }
  }

  stats::Table table({{"congestion control", 22},
                      {"aequitas", 10},
                      {"QoSh p999(us)", 14, 1},
                      {"QoSm p999(us)", 14, 1},
                      {"h share(%)", 12, 1},
                      {"drops", 12, 0}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
