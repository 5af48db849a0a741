// Benchmark program: one repetition ("rep") of one benchmark workload per
// process. benchmark/run.py builds this binary, launches one process per
// rep and turns the JSON line it prints into metrics; see
// benchmark/README.md for the workloads and metric definitions.
//
//   aeq_bench --workload=NAME [--seed=S] [--span=F] [--prof=PATH]
//             [--tmp=DIR] [--shards=K] [--backend=heap|calendar]
//
// --span scales every simulated phase (warmup, run, drain); --prof turns on
// the observe-only execution profiler (one report per experiment, the
// sweep's points suffixed `.point<i>`); --tmp is where telemetry files go;
// --shards and --backend override the workload's executive, which the
// equivalence checks in `run.py --verify` use.
//
// It uses only the public src/ API and times its own calls into
// it: Experiment construction plus generator attachment is set-up, and
// Experiment::run (SweepRunner::run for the sweep) is the run. It prints
// one JSON line: the timings, peak RSS, work counters, and the simulated
// outputs run.py checks against benchmark/golden.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.h"
#include "runner/sweep.h"
#include "workload/size_dist.h"

namespace {

using namespace aeq;
using Clock = std::chrono::steady_clock;

constexpr char kUsage[] =
    "aeq_bench --workload=star33_bulk|star33_rpc4k_telemetry|prod576_shards4|"
    "shootout33_jobs4\n"
    "          [--seed=S] [--span=F] [--prof=PATH] [--tmp=DIR] [--shards=K]\n"
    "          [--backend=heap|calendar]";

// Shards and sweep jobs: the core count the benchmark is sized for.
constexpr std::size_t kParallelism = 4;

// Odd, so the median is one of the measured rounds.
constexpr int kSetupRounds = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double span = 1.0;
  std::string prof;
  std::string tmp = ".";
  std::size_t shards = 0;  // 0 = the workload's own
  std::string backend;     // "" = calendar
};

// Simulated phases of one experiment, in milliseconds.
struct Phases {
  double warmup_ms;
  double run_ms;
  double drain_ms;
};

// Average offered load per host, as a fraction of its link rate (§6.1).
constexpr double kLoad = 0.8;

// Open-loop all-to-all traffic: every host issues Poisson arrivals within
// periodic bursts, each class's byte rate a share of kLoad x link rate.
struct Traffic {
  double burst_load = 1.4;
  std::vector<double> mix;
  std::uint64_t fixed_bytes = 0;  // 0 = production size distributions
};

// One experiment of a workload, constructed and wired, not yet run.
struct Point {
  std::unique_ptr<runner::Experiment> experiment;
  Phases phases;
};

runner::ExperimentConfig star33_config(std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.swift.target_delay = 10 * sim::kUsec;
  config.slo = rpc::SloConfig::make(
      {15.0 / 8 * sim::kUsec, 25.0 / 8 * sim::kUsec, 0.0}, 99.9);
  config.seed = seed;
  return config;
}

void attach_all_to_all(runner::Experiment& experiment,
                       const Traffic& traffic) {
  std::vector<const workload::SizeDistribution*> sizes;
  for (std::size_t c = 0; c < traffic.mix.size(); ++c) {
    const auto priority = static_cast<rpc::Priority>(c);
    sizes.push_back(experiment.own(
        traffic.fixed_bytes > 0
            ? std::make_unique<workload::FixedSize>(traffic.fixed_bytes)
            : workload::production_size_dist(priority)));
  }
  const auto& config = experiment.config();
  const double per_host_rate = kLoad * config.link_rate;
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig generator;
    generator.burst_over_avg = traffic.burst_load / kLoad;
    generator.burst_period = 100 * sim::kUsec;
    for (std::size_t c = 0; c < traffic.mix.size(); ++c) {
      workload::ClassLoad load;
      load.priority = static_cast<rpc::Priority>(c);
      load.byte_rate = traffic.mix[c] * per_host_rate;
      load.sizes = sizes[c];
      generator.classes.push_back(load);
    }
    experiment.add_generator(static_cast<net::HostId>(h), generator);
  }
}

Point make_point(runner::ExperimentConfig config, const Traffic& traffic,
                 Phases phases, const Options& options) {
  if (options.shards > 0) config.shards = options.shards;
  if (options.backend == "heap") {
    config.scheduler_backend = sim::SchedulerBackend::kHeap;
  }
  Point point;
  point.experiment = std::make_unique<runner::Experiment>(config);
  attach_all_to_all(*point.experiment, traffic);
  point.phases = {phases.warmup_ms * options.span,
                  phases.run_ms * options.span,
                  phases.drain_ms * options.span};
  return point;
}

// The four workloads (benchmark/README.md says why each exists). Returns
// false for an unknown name.
bool build_points(const Options& options, std::vector<Point>& points) {
  const std::string& name = options.workload;
  if (name == "star33_bulk" || name == "star33_rpc4k_telemetry") {
    const bool rpc4k = name == "star33_rpc4k_telemetry";
    runner::ExperimentConfig config = star33_config(options.seed);
    if (rpc4k) {
      const std::string base = options.tmp + "/rpc4k";
      config.telemetry.timeseries_csv = base + ".timeseries.csv";
      config.telemetry.timeseries_json = base + ".timeseries.json";
      config.telemetry.watchdog = true;
      config.telemetry.watchdog_log = base + ".watchdog.log";
    }
    Traffic traffic;
    traffic.mix = {0.6, 0.3, 0.1};
    traffic.fixed_bytes = (rpc4k ? 4 : 32) * sim::kKiB;
    points.push_back(make_point(config, traffic,
                                rpc4k ? Phases{2.0, 8.0, 2.0}
                                      : Phases{2.0, 20.0, 2.0},
                                options));
    return true;
  }
  if (name == "prod576_shards4") {
    runner::ExperimentConfig config;
    config.num_hosts = 576;
    config.shards = kParallelism;
    config.num_qos = 3;
    config.wfq_weights = {8.0, 4.0, 1.0};
    config.slo = rpc::SloConfig::make(
        {4.0 * sim::kUsec, 12.0 * sim::kUsec, 0.0}, 99.9);
    config.admission.aequitas.alpha = 0.002;
    config.admission.aequitas.beta_per_mtu = 0.05;
    config.seed = options.seed;
    Traffic traffic;
    traffic.mix = {0.6, 0.3, 0.1};
    traffic.burst_load = 2.5;
    points.push_back(
        make_point(config, traffic, Phases{0.5, 1.0, 0.5}, options));
    return true;
  }
  if (name == "shootout33_jobs4") {
    std::size_t index = 0;
    for (const char* kind : {"aequitas", "ticket-pool", "bandit",
                             "swp-pacing"}) {
      for (const bool drop : {false, true}) {
        runner::ExperimentConfig config;
        config.num_hosts = 33;
        config.num_qos = 3;
        config.wfq_weights = {8.0, 4.0, 1.0};
        config.admission.kind = kind;
        config.admission.drop_rejects = drop;
        config.slo = rpc::SloConfig::make(
            {3.0 * sim::kUsec, 6.0 * sim::kUsec, 0.0}, 99.9);
        config.seed = sim::derive_seed(options.seed, index++);
        Traffic traffic;
        traffic.mix = {0.5, 0.3, 0.2};
        points.push_back(
            make_point(config, traffic, Phases{1.0, 6.0, 2.0}, options));
      }
    }
    return true;
  }
  return false;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void run_point(Point& point) {
  point.experiment->run(point.phases.warmup_ms * sim::kMsec,
                        point.phases.run_ms * sim::kMsec,
                        point.phases.drain_ms * sim::kMsec);
}

std::string hex(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "\"%a\"", value);
  return buffer;
}

template <typename Fn>
std::string per_qos(std::size_t num_qos, Fn&& fn) {
  std::string out = "[";
  for (std::size_t q = 0; q < num_qos; ++q) {
    out += (q == 0 ? "" : ",") + fn(static_cast<net::QoSLevel>(q));
  }
  return out + "]";
}

// The simulated outputs run.py checks against benchmark/golden.json:
// per-QoS RNL percentiles as exact hex floats, and per-QoS counts.
std::string outputs_json(runner::Experiment& experiment) {
  const rpc::RpcMetrics& m = experiment.metrics();
  const std::size_t n = experiment.config().num_qos;
  const auto count = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"rnl_p50\":" +
         per_qos(n, [&](auto q) { return hex(m.rnl_by_run_qos(q).p50()); }) +
         ",\"rnl_p99\":" +
         per_qos(n, [&](auto q) { return hex(m.rnl_by_run_qos(q).p99()); }) +
         ",\"rnl_p999\":" +
         per_qos(n, [&](auto q) { return hex(m.rnl_by_run_qos(q).p999()); }) +
         ",\"completed\":" +
         per_qos(n, [&](auto q) { return count(m.completed(q)); }) +
         ",\"downgraded\":" +
         per_qos(n, [&](auto q) { return count(m.downgraded(q)); }) +
         ",\"bytes_admitted\":" +
         per_qos(n, [&](auto q) { return count(m.bytes_admitted(q)); }) +
         ",\"slo_met\":" +
         per_qos(n, [&](auto q) { return count(m.slo_met(q)); }) + "}";
}

// Work counters, summed over a workload's points.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t pkts_offered = 0;
  std::uint64_t pkts_dropped = 0;
  std::uint64_t rpcs_completed = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t bytes_admitted = 0;

  void add(runner::Experiment& experiment) {
    events += experiment.events_processed();
    if (experiment.sharded() != nullptr) {
      windows += experiment.sharded()->windows_executed();
    }
    topo::Network& network = experiment.network();
    for (std::size_t h = 0; h < network.num_hosts(); ++h) {
      const auto id = static_cast<net::HostId>(h);
      for (const net::QueueStats* stats :
           {&network.host(id).egress().queue().stats(),
            &network.downlink(id).queue().stats()}) {
        pkts_offered += stats->offered_packets;
        pkts_dropped += stats->dropped_packets;
      }
    }
    const rpc::RpcMetrics& m = experiment.metrics();
    rpcs_completed += m.total_completed();
    for (std::size_t q = 0; q < experiment.config().num_qos; ++q) {
      const auto qos = static_cast<net::QoSLevel>(q);
      downgrades += m.downgraded(qos);
      bytes_requested += m.bytes_requested(qos);
      bytes_admitted += m.bytes_admitted(qos);
    }
  }
};

// A whole non-negative decimal; false for anything else.
bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) return false;
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      if (!parse_count(value, options.seed)) return false;
    } else if (key == "span") {
      char* end = nullptr;
      options.span = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.span > 0.0)) return false;
    } else if (key == "prof") {
      options.prof = value;
    } else if (key == "tmp") {
      options.tmp = value;
    } else if (key == "shards") {
      std::uint64_t shards = 0;
      if (!parse_count(value, shards) || shards == 0) return false;
      options.shards = shards;
    } else if (key == "backend") {
      if (value != "heap" && value != "calendar") return false;
      options.backend = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr, "usage:\n%s\n", kUsage);
    return 2;
  }

  // Set-up is a few milliseconds at most, so one timing is mostly noise:
  // build the workload kSetupRounds times and report the median. Only the
  // last round's experiments run. Points are built one after another, so
  // for the sweep a round is the sum of its points' set-up times.
  std::vector<Point> points;
  std::vector<double> setup_rounds;
  for (int round = 0; round < kSetupRounds; ++round) {
    points.clear();
    const auto start = Clock::now();
    if (!build_points(options, points)) {
      std::fprintf(stderr, "unknown workload \"%s\"\nusage:\n%s\n",
                   options.workload.c_str(), kUsage);
      return 2;
    }
    setup_rounds.push_back(seconds_since(start));
  }
  std::sort(setup_rounds.begin(), setup_rounds.end());
  const double setup_s = setup_rounds[setup_rounds.size() / 2];
  if (!options.prof.empty()) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      points[i].experiment->enable_profiling(
          points.size() == 1 ? options.prof
                             : options.prof + ".point" + std::to_string(i));
    }
  }

  std::vector<double> point_run_s(points.size(), 0.0);
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  if (points.size() == 1) {
    run_point(points.front());
    point_run_s.front() = seconds_since(start);
  } else {
    runner::SweepOptions sweep_options;
    sweep_options.jobs = kParallelism;
    runner::SweepRunner sweep(sweep_options);
    for (Point& point : points) {
      sweep.submit([&point](const runner::PointContext&) {
        const auto point_start = Clock::now();
        run_point(point);
        runner::PointResult result;
        result.metrics["run_s"] = seconds_since(point_start);
        return result;
      });
    }
    const std::vector<runner::PointResult> results = sweep.run();
    for (std::size_t i = 0; i < results.size(); ++i) {
      point_run_s[i] = results[i].metrics.at("run_s");
    }
  }
  const double run_s = seconds_since(start);
  const double cpu_s = process_cpu_seconds() - cpu_start;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Counts counts;
  std::string outputs = "[";
  std::string point_runs = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    counts.add(*points[i].experiment);
    outputs += (i == 0 ? "" : ",") + outputs_json(*points[i].experiment);
    char run[32];
    std::snprintf(run, sizeof(run), "%s%.9f", i == 0 ? "" : ",",
                  point_run_s[i]);
    point_runs += run;
  }
  outputs += "]";
  point_runs += "]";

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"span\":%.17g,"
      "\"setup_s\":%.9f,\"run_s\":%.9f,\"cpu_s\":%.9f,\"peak_rss_mb\":%.6f,"
      "\"jobs\":%zu,\"point_run_s\":%s,"
      "\"counts\":{\"events\":%llu,\"windows\":%llu,\"pkts_offered\":%llu,"
      "\"pkts_dropped\":%llu,\"rpcs_completed\":%llu,\"downgrades\":%llu,"
      "\"bytes_requested\":%llu,\"bytes_admitted\":%llu},"
      "\"outputs\":%s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.span, setup_s, run_s, cpu_s, peak_rss_mb,
      points.size() == 1 ? std::size_t{1} : kParallelism, point_runs.c_str(),
      static_cast<unsigned long long>(counts.events),
      static_cast<unsigned long long>(counts.windows),
      static_cast<unsigned long long>(counts.pkts_offered),
      static_cast<unsigned long long>(counts.pkts_dropped),
      static_cast<unsigned long long>(counts.rpcs_completed),
      static_cast<unsigned long long>(counts.downgrades),
      static_cast<unsigned long long>(counts.bytes_requested),
      static_cast<unsigned long long>(counts.bytes_admitted),
      outputs.c_str());
  return 0;
}
