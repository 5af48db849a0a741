// Shared helpers for the figure-reproduction benches: consistent headers,
// the common command line (--jobs/--seed/--csv/--json), structured result
// tables, and the all-to-all workload wiring used by most of the paper's
// experiments (§6.1: average load 0.8, burst load 1.4, Poisson arrivals
// within bursts).
//
// Benches are sweeps of independent simulation points. They submit one
// closure per point to a runner::SweepRunner (or runner::parallel_points
// for richer payloads), collect structured results in submission order,
// and render tables on the main thread — so `--jobs N` output is
// byte-identical to `--jobs 1`.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "policy/registry.h"
#include "runner/experiment.h"
#include "runner/sweep.h"
#include "stats/export.h"
#include "stats/table.h"
#include "tools/flags.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::bench {

inline void print_header(const char* figure, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("==============================================================\n");
}

// Selects which simulation point of a bench gets telemetry attached.
// Benches run many independent experiments (sweep points, calibration
// runs); tracing all of them would interleave files, so the telemetry
// flags target exactly one, identified by the order in which the bench
// applies the request (its submission index, which is deterministic for
// any --jobs N).
struct TraceRequest {
  std::string trace;      // --trace PATH: Chrome trace_event JSON
  std::string trace_csv;  // --trace-csv PATH: flat per-event CSV
  // --timeseries BASE: windowed timeline at BASE.csv and BASE.json;
  // --timeseries-width U: window width in simulated microseconds.
  std::string timeseries;
  double timeseries_width_us = 100.0;
  // --watchdog PATH: enable the anomaly watchdog, log anomalies to PATH
  // ("-" = stderr). Implies windowed telemetry even without --timeseries.
  bool watchdog = false;
  std::string watchdog_log;
  // --flight-recorder PATH: ring-buffer post-mortem; dump lands at PATH on
  // the first anomaly or on an assert/audit failure.
  std::string flight_recorder;
  // --prof PATH: execution profile (obs/prof, DESIGN.md §14) for the
  // requested point — JSON report at PATH (`.point<N>`-suffixed when N>0,
  // so repeated --trace-point invocations never clobber each other), flame
  // rows at `<report>.trace.json`, text summary on stderr. Observe-only:
  // the profiled point's stdout stays byte-identical.
  std::string prof;
  int point = 0;  // --trace-point N: which apply() site fires

  // Shared by every copy (sweep closures carry the request to worker
  // threads): how many apply() sites the run offered, and whether the
  // requested one fired.
  struct Outcome {
    std::atomic<int> offered{0};
    std::atomic<bool> taken{false};
  };
  std::shared_ptr<Outcome> outcome = std::make_shared<Outcome>();

  bool enabled() const {
    return !trace.empty() || !trace_csv.empty() || !timeseries.empty() ||
           watchdog || !flight_recorder.empty() || !prof.empty();
  }

  runner::TelemetrySpec spec() const {
    runner::TelemetrySpec spec;
    spec.trace = trace;
    spec.trace_csv = trace_csv;
    if (!timeseries.empty()) {
      spec.timeseries_csv = timeseries + ".csv";
      spec.timeseries_json = timeseries + ".json";
    }
    spec.timeseries_width = timeseries_width_us * sim::kUsec;
    spec.watchdog = watchdog;
    spec.watchdog_log = watchdog_log == "-" ? "" : watchdog_log;
    spec.flight_recorder = flight_recorder;
    return spec;
  }

  // Attaches telemetry to `experiment` iff this is the requested point.
  // Call once per candidate experiment, numbering them 0, 1, ... in the
  // order they are submitted/constructed.
  void apply(runner::Experiment& experiment, int point_index = 0) const {
    int offered = outcome->offered.load();
    while (offered <= point_index &&
           !outcome->offered.compare_exchange_weak(offered, point_index + 1)) {
    }
    if (!enabled() || point_index != point) return;
    outcome->taken = true;
    const runner::TelemetrySpec telemetry = spec();
    if (telemetry.any()) experiment.enable_telemetry(telemetry);
    if (!prof.empty()) {
      experiment.enable_profiling(
          point == 0 ? prof : prof + ".point" + std::to_string(point));
    }
  }

  // Exits 2 when a telemetry request was made but no apply() site took
  // it, naming --trace-point and how many points the run offered.
  void require_taken() const {
    if (!enabled() || outcome->taken) return;
    std::fprintf(stderr,
                 "--trace-point=%d matches no point: the run offered %d\n",
                 point, outcome->offered.load());
    std::exit(2);
  }
};

// Command line shared by every figure/ablation bench:
//   --jobs N        worker threads for the sweep (default: hardware
//                   concurrency); results are identical for any N
//   --seed S        base seed; per-point seeds derive from (S, point index)
//   --csv PATH      append each rendered table as CSV ("-" = stdout)
//   --json PATH     append each rendered table as JSON ("-" = stdout)
//   --trace PATH    write a Chrome trace_event JSON for one point
//   --trace-csv PATH  write a per-event CSV for the same point
//   --timeseries BASE  write windowed telemetry to BASE.csv and BASE.json
//   --timeseries-width U  window width in simulated microseconds (100)
//   --watchdog PATH  enable the anomaly watchdog; log to PATH ("-"=stderr)
//   --flight-recorder PATH  post-mortem ring buffer; dump on anomaly/crash
//   --prof PATH     execution profile for one point: per-component JSON
//                   report at PATH (+ `.trace.json` flame rows, stderr
//                   summary); observe-only, stdout stays byte-identical
//   --trace-point N which point gets the telemetry (default 0, the first);
//                   a negative N, or one no point matches, exits 2
// A bench reads its own flags from `flags` and then calls
// reject_unknown_flags(), so a flag it does not read is an error.
struct BenchArgs {
  runner::SweepOptions sweep;
  std::string csv_path;
  std::string json_path;
  TraceRequest trace;
  tools::Flags flags;       // bench-specific extras stay queryable
  bool machine_started = false;  // first emit truncates, later ones append
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  if (!args.flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], args.flags.error().c_str());
    std::exit(2);
  }
  args.sweep.jobs = runner::resolve_jobs(args.flags.get_int("jobs", 0));
  args.sweep.base_seed =
      static_cast<std::uint64_t>(args.flags.get_int("seed", 1));
  // Path flags need a value: a bare `--prof` is an error, not a file
  // named "true".
  args.csv_path = args.flags.get_path("csv");
  args.json_path = args.flags.get_path("json");
  args.trace.trace = args.flags.get_path("trace");
  args.trace.trace_csv = args.flags.get_path("trace-csv");
  args.trace.timeseries = args.flags.get_path("timeseries");
  args.trace.timeseries_width_us =
      args.flags.get_double("timeseries-width", 100.0);
  // `--watchdog` alone parses as the bare-boolean value "true": enable the
  // watchdog with anomalies on stderr. Any other value is the log path.
  const std::string watchdog_arg = args.flags.get("watchdog");
  args.trace.watchdog = args.flags.has("watchdog");
  args.trace.watchdog_log = watchdog_arg == "true" ? "" : watchdog_arg;
  args.trace.flight_recorder = args.flags.get_path("flight-recorder");
  args.trace.prof = args.flags.get_path("prof");
  args.trace.point = static_cast<int>(args.flags.get_int("trace-point", 0));
  if (args.trace.point < 0) {
    std::fprintf(stderr, "%s: --trace-point must be >= 0 (got %d)\n",
                 argv[0], args.trace.point);
    std::exit(2);
  }
  return args;
}

// Ends every bench's output; exits 2 if the telemetry request (--trace,
// --prof, ...) matched none of the points the run offered.
inline void print_footer(const BenchArgs& args) {
  std::printf("\n");
  args.trace.require_taken();
}

// Exits 2 naming the first flag whose value did not parse ("--hosts=12x")
// or, failing that, the first flag the bench never read (a typo, or a flag
// this bench does not honor). Call once the bench has read all of its own
// flags.
inline void reject_unknown_flags(const BenchArgs& args) {
  const std::string problem = args.flags.problem();
  if (problem.empty()) return;
  std::fprintf(stderr, "%s\n", problem.c_str());
  std::exit(2);
}

// `--backend=heap|calendar`: the event-scheduler backend of every point
// (default calendar). Both dispatch the same schedule, so the output is the
// same either way. Exits 2 on any other value.
inline sim::SchedulerBackend parse_backend(const BenchArgs& args) {
  const std::string backend = args.flags.get("backend");
  if (backend == "heap") return sim::SchedulerBackend::kHeap;
  if (backend.empty() || backend == "calendar") {
    return sim::SchedulerBackend::kCalendar;
  }
  std::fprintf(stderr, "unknown --backend \"%s\" (heap|calendar)\n",
               backend.c_str());
  std::exit(2);
}

// `--controller=aequitas,ticket-pool,...` (or `all`, every registered
// name): the admission policies a shoot-out runs, empty when the flag is
// absent. Exits 1 on a kind the policy registry does not know, listing the
// ones it does.
inline std::vector<std::string> controller_kinds(const BenchArgs& args) {
  const std::vector<std::string> kinds = args.flags.get_names("controller");
  if (kinds == std::vector<std::string>{"all"}) return policy::names();
  for (const std::string& kind : kinds) {
    if (policy::is_registered(kind)) continue;
    std::fprintf(stderr, "unknown --controller kind \"%s\"; registered:",
                 kind.c_str());
    for (const std::string& name : policy::names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(1);
  }
  return kinds;
}

namespace detail {
inline void emit_machine(const stats::Table& table, const std::string& path,
                         bool json, bool append) {
  if (path.empty()) return;
  if (path == "-") {
    json ? stats::write_json(std::cout, table)
         : stats::write_csv(std::cout, table);
    return;
  }
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  if (append) out << "\n";
  json ? stats::write_json(out, table) : stats::write_csv(out, table);
}
}  // namespace detail

// Renders `table` to stdout and mirrors it to --csv/--json sinks. Benches
// that print several tables call emit() once per table; file sinks receive
// the tables as blank-line-separated blocks.
inline void emit(const stats::Table& table, BenchArgs& args) {
  std::cout << table.to_string() << std::flush;
  detail::emit_machine(table, args.csv_path, /*json=*/false,
                       args.machine_started);
  detail::emit_machine(table, args.json_path, /*json=*/true,
                       args.machine_started);
  args.machine_started = true;
}

// Stable one-line rendering of a point's schedule digest, in the format
// the CI determinism smoke greps and diffs:
//   schedule-digest <label>: <16 hex digits> over <N> events
// Safe to build on a worker thread; benches print the lines on the main
// thread in submission order so output stays byte-identical for any
// --jobs/--shards.
inline std::string format_schedule_digest(
    const runner::Experiment& experiment, const std::string& label) {
  const sim::ScheduleDigest digest = experiment.schedule_digest();
  char line[96];
  std::snprintf(line, sizeof(line),
                "schedule-digest %s: %s over %llu events", label.c_str(),
                digest.hex().c_str(),
                static_cast<unsigned long long>(digest.count));
  return line;
}

inline const char* qos_name(net::QoSLevel qos, std::size_t num_qos) {
  if (num_qos == 2) return qos == 0 ? "QoS_h" : "QoS_l";
  switch (qos) {
    case 0: return "QoS_h";
    case 1: return "QoS_m";
    default: return "QoS_l";
  }
}

// Attaches the paper's all-to-all workload to every host: per-host average
// byte rate = `load` * link rate split across priority classes by `mix`.
struct AllToAllSpec {
  double load = 0.8;            // mu, fraction of link rate per host
  double burst_load = 1.4;      // rho; burst_over_avg = rho / mu
  sim::Time burst_period = 100 * sim::kUsec;
  std::vector<double> mix = {0.6, 0.3, 0.1};  // PC/NC/BE byte shares
  // One distribution per class (same pointer allowed).
  std::vector<const workload::SizeDistribution*> sizes;
  std::vector<sim::Time> deadline_budget;  // optional, per class
};

inline void attach_all_to_all(runner::Experiment& experiment,
                              const AllToAllSpec& spec) {
  const auto& config = experiment.config();
  const double per_host_rate = spec.load * config.link_rate;
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.burst_over_avg = spec.burst_load / spec.load;
    gen.burst_period = spec.burst_period;
    for (std::size_t c = 0; c < spec.mix.size(); ++c) {
      if (spec.mix[c] <= 0.0) continue;
      workload::ClassLoad load;
      load.priority = static_cast<rpc::Priority>(c);
      load.byte_rate = spec.mix[c] * per_host_rate;
      load.sizes = spec.sizes.size() == 1 ? spec.sizes[0] : spec.sizes.at(c);
      load.deadline_budget =
          spec.deadline_budget.empty() ? 0.0 : spec.deadline_budget.at(c);
      gen.classes.push_back(load);
    }
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
}

// Columns of the per-QoS RNL summary table (mean / p99 / p99.9,
// completions, admitted share).
inline stats::Table make_rnl_table() {
  return stats::Table({{"QoS", 8},
                       {"mean(us)", 12, 1},
                       {"p99(us)", 12, 1},
                       {"p99.9(us)", 14, 1},
                       {"completed", 12, 0},
                       {"downgr.", 12, 0},
                       {"share(%)", 12, 1}});
}

// Extracts the RNL summary rows as plain data — safe to build on a worker
// thread and hand back through a PointResult.
inline std::vector<stats::Row> rnl_rows(const rpc::RpcMetrics& metrics,
                                        std::size_t num_qos) {
  std::vector<stats::Row> rows;
  for (std::size_t q = 0; q < num_qos; ++q) {
    const auto qos = static_cast<net::QoSLevel>(q);
    const auto& rnl = metrics.rnl_by_run_qos(qos);
    rows.push_back({qos_name(qos, num_qos), rnl.mean() / sim::kUsec,
                    rnl.p99() / sim::kUsec, rnl.p999() / sim::kUsec,
                    static_cast<double>(metrics.completed(qos)),
                    static_cast<double>(metrics.downgraded(qos)),
                    100.0 * metrics.admitted_share(qos)});
  }
  return rows;
}

}  // namespace aeq::bench
