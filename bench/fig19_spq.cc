// Figure 19: Aequitas-over-WFQ versus plain Strict Priority Queuing as the
// fraction of traffic marked QoS_h grows from 50% to 80% (QoS_m fixed at
// 20%). Expected (paper): SPQ cannot maintain predictability — QoS_m blows
// up as QoS_h grows and QoS_h itself degrades once "everyone is high
// priority" (the race-to-the-top); Aequitas keeps both near their SLOs by
// downgrading the excess.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

runner::PointResult run(double qosh_share, bool aequitas_wfq,
                        std::uint64_t seed,
                        const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.admission.kind =
      aequitas_wfq ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  if (aequitas_wfq) {
    config.scheduler = net::SchedulerType::kWfq;
    config.wfq_weights = {8.0, 4.0, 1.0};
  } else {
    config.scheduler = net::SchedulerType::kSpq;
    config.wfq_weights = {1.0, 1.0, 1.0};  // class count for SPQ
  }
  const double size_mtus = 8.0;
  config.slo = rpc::SloConfig::make(
      {25 * sim::kUsec / size_mtus, 50 * sim::kUsec / size_mtus, 0.0}, 99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  bench::AllToAllSpec spec;
  spec.mix = {qosh_share, 0.2, 0.8 - qosh_share};
  spec.sizes = {sizes};
  bench::attach_all_to_all(experiment, spec);
  experiment.run(10 * sim::kMsec, 15 * sim::kMsec);
  runner::PointResult result;
  result.metrics["h_p999"] =
      experiment.metrics().rnl_by_run_qos(0).p999() / sim::kUsec;
  result.metrics["m_p999"] =
      experiment.metrics().rnl_by_run_qos(1).p999() / sim::kUsec;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 19",
                      "Aequitas (WFQ) vs plain SPQ as QoS_h-share grows, "
                      "QoS_m fixed at 20% (SLO 25/50us)");
  const std::vector<double> shares = {0.50, 0.60, 0.70, 0.80};
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (double share : shares) {
    for (bool aequitas_wfq : {false, true}) {
      sweep.submit([share, aequitas_wfq, trace = args.trace,
                    point = trace_point++](const runner::PointContext& ctx) {
        return run(share, aequitas_wfq, ctx.seed, trace, point);
      });
    }
  }
  const auto points = sweep.run();

  stats::Table table({{"QoSh-share(%)", 14, 0},
                      {"SPQ h p999(us)", 16, 1},
                      {"AEQ h p999(us)", 16, 1},
                      {"SPQ m p999(us)", 16, 1},
                      {"AEQ m p999(us)", 16, 1}});
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const auto& spq = points[2 * i].metrics;
    const auto& aeq = points[2 * i + 1].metrics;
    table.add_row({shares[i] * 100, spq.at("h_p999"), aeq.at("h_p999"),
                   spq.at("m_p999"), aeq.at("m_p999")});
  }
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
