// Figure 21: large-scale run — 144 hosts (paper scale), production RPC size
// distributions, extreme overload (instantaneous burst load 25x the link
// capacity). Expected (paper): baseline tail RNL is ~4x/2x/5x the SLO for
// QoS_h/m/l; Aequitas restores QoS_h and QoS_m to ~SLO by downgrading
// (admitted mix moves from 60/30/10 toward ~20/26/54).
//
// Scale knobs (beyond the shared bench_util flags):
//   --hosts N      topology size (default 144, the paper's production pod;
//                  CI smokes 576; 1024+ is the intended envelope for
//                  sharded runs — event count grows ~linearly with hosts)
//   --shards K     intra-run parallelism: conservative-PDES partitions of
//                  the star (ExperimentConfig::shards). Results are
//                  bit-identical to --shards=1 for any K; use K ~ the
//                  machine's core count for large --hosts runs.
//   --warmup-ms W  warmup before measurement (default 10)
//   --run-ms R     measured interval (default 12); CI smokes use shorter
//                  intervals to bound wall-clock time
//   --schedule-digest  print each point's canonical schedule digest
//                  (sim/digest.h), identical for any K and backend
//   --backend heap|calendar  event-scheduler backend (default calendar);
//                  the output is the same on either
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

struct Fig21Params {
  std::size_t hosts = 144;
  std::size_t shards = 1;
  double warmup_ms = 10.0;
  double run_ms = 12.0;
  bool schedule_digest = false;
  sim::SchedulerBackend backend = sim::SchedulerBackend::kCalendar;
};

runner::PointResult run(const Fig21Params& params, bool with_aequitas,
                        std::uint64_t seed, const bench::TraceRequest& trace,
                        int point, std::string* digest_line) {
  runner::ExperimentConfig config;
  config.num_hosts = params.hosts;
  config.shards = params.shards;
  config.scheduler_backend = params.backend;
  config.schedule_digest = params.schedule_digest;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  // Normalized (per-MTU) SLOs; production sizes make absolute targets vary
  // per RPC.
  config.slo = rpc::SloConfig::make(
      {4.0 * sim::kUsec, 12.0 * sim::kUsec, 0.0}, 99.9);
  config.rnl_per_mtu = true;  // the table prints per-MTU percentiles
  // Favor SLO-compliance over stability at this scale (§6.6).
  config.admission.aequitas.alpha = 0.002;
  config.admission.aequitas.beta_per_mtu = 0.05;
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  bench::AllToAllSpec spec;
  spec.mix = {0.6, 0.3, 0.1};
  spec.load = 0.8;
  // Per-host burst load 5x; with the synchronized burst windows and
  // all-to-all fan-in, the *instantaneous* arrival rate at an individual
  // downlink reaches ~25x its capacity (the paper reports the per-link
  // maximum, not the per-host envelope).
  spec.burst_load = 2.5;
  spec.sizes = {
      experiment.own(workload::production_size_dist(rpc::Priority::kPC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kNC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kBE))};
  bench::attach_all_to_all(experiment, spec);
  experiment.run(params.warmup_ms * sim::kMsec, params.run_ms * sim::kMsec);

  runner::PointResult result;
  const auto& metrics = experiment.metrics();
  for (net::QoSLevel q = 0; q < 3; ++q) {
    result.rows.push_back(
        {bench::qos_name(q, 3),
         metrics.rnl_per_mtu_by_run_qos(q).mean() / sim::kUsec,
         metrics.rnl_per_mtu_by_run_qos(q).p99() / sim::kUsec,
         metrics.rnl_per_mtu_by_run_qos(q).p999() / sim::kUsec,
         metrics.rnl_by_run_qos(q).p999() / sim::kUsec,
         100 * metrics.admitted_share(q)});
  }
  if (params.schedule_digest) {
    *digest_line = bench::format_schedule_digest(
        experiment, with_aequitas ? "with-aequitas" : "baseline");
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  Fig21Params params;
  params.hosts =
      static_cast<std::size_t>(args.flags.get_int("hosts", 144));
  params.shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.flags.get_int("shards", 1)));
  params.schedule_digest = args.flags.get_bool("schedule-digest", false);
  params.warmup_ms = args.flags.get_double("warmup-ms", params.warmup_ms);
  params.run_ms = args.flags.get_double("run-ms", params.run_ms);
  params.backend = bench::parse_backend(args);
  bench::reject_unknown_flags(args);

  char title[160];
  std::snprintf(title, sizeof(title),
                "%zu-node, production RPC sizes, ~25x instantaneous "
                "per-link overload; normalized SLO 4us(h)/12us(m) per MTU"
                "%s",
                params.hosts,
                params.shards > 1 ? " (sharded executive)" : "");
  bench::print_header("Figure 21", title);
  runner::SweepRunner sweep(args.sweep);
  // One slot per point, written only by the worker that runs that point
  // and read after run() returns — no sharing, and the printed order is
  // submission order, so --jobs N output stays byte-identical.
  std::vector<std::string> digest_lines(2);
  int trace_point = 0;
  for (bool with_aequitas : {false, true}) {
    sweep.submit([params, with_aequitas, trace = args.trace,
                  point = trace_point++,
                  digest_line = &digest_lines](const runner::PointContext& ctx) {
      return run(params, with_aequitas, ctx.seed, trace, point,
                 &(*digest_line)[static_cast<std::size_t>(point)]);
    });
  }
  const auto points = sweep.run();
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::printf("\n%s Aequitas:\n", p == 1 ? "WITH" : "WITHOUT");
    stats::Table table({{"QoS", 8},
                        {"mean/MTU(us)", 16, 2},
                        {"p99/MTU(us)", 16, 2},
                        {"p99.9/MTU(us)", 16, 2},
                        {"p99.9 RNL(us)", 16, 1},
                        {"share(%)", 12, 1}});
    table.add_rows(points[p].rows);
    bench::emit(table, args);
  }
  if (params.schedule_digest) {
    std::printf("\n");
    for (const auto& line : digest_lines) std::printf("%s\n", line.c_str());
  }
  bench::print_footer(args);
  return 0;
}
