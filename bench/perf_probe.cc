// Tuning probe (not a paper figure): 33-node all-to-all reproduction of the
// Figure-12 workload with configurable AIMD and Swift parameters, for
// exploring SLO-compliance vs admitted-share tradeoffs quickly. Also serves
// as two speedometers:
//   * scheduler backends — runs the identical workload on both event
//     schedulers (binary heap and calendar queue) and reports simulated
//     events per wall-clock second for each (--backend=heap|calendar|both);
//   * sweep harness — with --sweep-points=N it times an N-point sweep at
//     --jobs=1 and at the resolved --jobs and reports the parallel speedup
//     (results are checked to be identical across the two runs).
// All parameters are flags; see kUsage below.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

constexpr char kUsage[] =
    "perf_probe [--alpha=A] [--beta=B] [--swift-target-us=T]\n"
    "           [--warmup-ms=W] [--run-ms=R] [--period-us=P]\n"
    "           [--aequitas=0|1] [--mix-h=H] [--mix-m=M]\n"
    "           [--backend=heap|calendar|both] [--shards=K]\n"
    "           [--schedule-digest]\n"
    "           [--sweep-points=N] [--jobs=J] [--seed=S]\n"
    "           [--trace=PATH] [--trace-csv=PATH] [--trace-point=N]\n"
    "           [--timeseries=BASE] [--timeseries-width=USEC]\n"
    "           [--watchdog[=PATH]] [--flight-recorder=PATH]\n"
    "           [--prof=PATH]";

struct ProbeParams {
  double alpha = 0.01;
  double beta = 0.01;
  double swift_target_us = 10.0;
  double warmup_ms = 15.0;
  double run_ms = 15.0;
  double period_us = 100.0;
  bool aequitas = true;
  double mix_h = 0.6;
  double mix_m = 0.3;
  std::size_t shards = 1;  // conservative-PDES shard count (1 = serial)
  bool schedule_digest = false;  // print sim/digest.h fingerprints
};

runner::Experiment make_experiment(const ProbeParams& p,
                                   sim::SchedulerBackend backend,
                                   std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.shards = p.shards;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind = p.aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.admission.aequitas.alpha = p.alpha;
  config.admission.aequitas.beta_per_mtu = p.beta;
  config.seed = seed;
  config.swift.target_delay = p.swift_target_us * sim::kUsec;
  config.slo = rpc::SloConfig::make(
      {15.0 / 8 * sim::kUsec, 25.0 / 8 * sim::kUsec, 0.0}, 99.9);
  config.schedule_digest = p.schedule_digest;
  return runner::Experiment(config);
}

void attach(runner::Experiment& experiment, const ProbeParams& p) {
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  bench::AllToAllSpec spec;
  spec.mix = {p.mix_h, p.mix_m, 1.0 - p.mix_h - p.mix_m};
  spec.burst_period = p.period_us * sim::kUsec;
  spec.sizes = {sizes};
  bench::attach_all_to_all(experiment, spec);
}

// Scheduler-backend speedometer: one serial run per backend.
void run_backends(const ProbeParams& p,
                  const std::vector<sim::SchedulerBackend>& backends,
                  std::uint64_t seed, const bench::TraceRequest& trace) {
  int point = 0;
  for (const auto backend : backends) {
    runner::Experiment experiment = make_experiment(p, backend, seed);
    trace.apply(experiment, point++);
    attach(experiment, p);

    const auto start = std::chrono::steady_clock::now();
    experiment.run(p.warmup_ms * sim::kMsec, p.run_ms * sim::kMsec);
    const auto stop = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(stop - start).count();
    const auto events = experiment.events_processed();

    const auto& m = experiment.metrics();
    char label[32];
    if (p.shards > 1) {
      std::snprintf(label, sizeof(label), "%s x%zu",
                    sim::backend_name(backend), p.shards);
    } else {
      std::snprintf(label, sizeof(label), "%s",
                    sim::backend_name(backend));
    }
    std::printf("[%-8s] QoSh p999 %.1fus share %.1f%% | QoSm p999 %.1fus "
                "share %.1f%% | QoSl p999 %.0fus | %llu events in %.1fs = "
                "%.2fM events/sec\n",
                label,
                m.rnl_by_run_qos(0).p999() / sim::kUsec,
                100 * m.admitted_share(0),
                m.rnl_by_run_qos(1).p999() / sim::kUsec,
                100 * m.admitted_share(1),
                m.rnl_by_run_qos(2).p999() / sim::kUsec,
                static_cast<unsigned long long>(events), wall,
                static_cast<double>(events) / wall / 1e6);
    if (p.schedule_digest) {
      std::printf("%s\n",
                  bench::format_schedule_digest(experiment, label).c_str());
    }
  }
}

// Sweep-harness speedometer: N replica points, timed at --jobs=1 and at
// the resolved job count. Points vary only by seed; both runs must produce
// identical structured results (verified here), so the speedup is measured
// on byte-identical work.
void run_sweep_speedup(const ProbeParams& p, std::size_t points,
                       const runner::SweepOptions& options) {
  auto sweep_once = [&](std::size_t jobs, double* wall_out) {
    runner::SweepOptions opts = options;
    opts.jobs = jobs;
    runner::SweepRunner sweep(opts);
    for (std::size_t i = 0; i < points; ++i) {
      sweep.submit([p](const runner::PointContext& ctx) {
        runner::Experiment experiment = make_experiment(
            p, sim::SchedulerBackend::kHeap, ctx.seed);
        attach(experiment, p);
        experiment.run(p.warmup_ms * sim::kMsec, p.run_ms * sim::kMsec);
        runner::PointResult result;
        result.metrics["p999_h"] =
            experiment.metrics().rnl_by_run_qos(0).p999();
        result.metrics["share_h"] =
            experiment.metrics().admitted_share(0);
        result.metrics["events"] =
            static_cast<double>(experiment.events_processed());
        return result;
      });
    }
    const auto start = std::chrono::steady_clock::now();
    auto results = sweep.run();
    const auto stop = std::chrono::steady_clock::now();
    *wall_out = std::chrono::duration<double>(stop - start).count();
    return results;
  };

  double wall_serial = 0.0, wall_parallel = 0.0;
  const auto serial = sweep_once(1, &wall_serial);
  const auto parallel = sweep_once(options.jobs, &wall_parallel);

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].metrics == parallel[i].metrics;
  }
  std::printf("sweep of %zu points: --jobs=1 %.2fs, --jobs=%zu %.2fs -> "
              "speedup %.2fx (results %s)\n",
              points, wall_serial, options.jobs, wall_parallel,
              wall_parallel > 0 ? wall_serial / wall_parallel : 0.0,
              identical ? "identical" : "MISMATCH");
  if (!identical) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  ProbeParams p;
  p.alpha = args.flags.get_double("alpha", p.alpha);
  p.beta = args.flags.get_double("beta", p.beta);
  p.swift_target_us =
      args.flags.get_double("swift-target-us", p.swift_target_us);
  p.warmup_ms = args.flags.get_double("warmup-ms", p.warmup_ms);
  p.run_ms = args.flags.get_double("run-ms", p.run_ms);
  p.period_us = args.flags.get_double("period-us", p.period_us);
  p.aequitas = args.flags.get_bool("aequitas", p.aequitas);
  p.mix_h = args.flags.get_double("mix-h", p.mix_h);
  p.mix_m = args.flags.get_double("mix-m", p.mix_m);
  p.shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.flags.get_int("shards", 1)));
  p.schedule_digest = args.flags.get_bool("schedule-digest", false);
  const std::string backend_arg = args.flags.get("backend", "both");
  const auto sweep_points =
      static_cast<std::size_t>(args.flags.get_int("sweep-points", 0));
  bench::reject_unknown_flags(args, kUsage);

  std::vector<sim::SchedulerBackend> backends;
  if (backend_arg == "heap") {
    backends = {sim::SchedulerBackend::kHeap};
  } else if (backend_arg == "calendar") {
    backends = {sim::SchedulerBackend::kCalendar};
  } else {
    backends = {sim::SchedulerBackend::kHeap,
                sim::SchedulerBackend::kCalendar};
  }

  std::printf("alpha=%.4f beta=%.4f swift=%.0fus\n", p.alpha, p.beta,
              p.swift_target_us);
  if (sweep_points > 0) {
    run_sweep_speedup(p, sweep_points, args.sweep);
  } else {
    run_backends(p, backends, sim::derive_seed(args.sweep.base_seed, 0),
                 args.trace);
  }
  return 0;
}
