#include "runner/experiment.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "audit/checks.h"
#include "obs/chrome_trace_sink.h"
#include "obs/csv_sink.h"
#include "obs/shard_merge.h"
#include "policy/registry.h"
#include "protocols/deadline_transport.h"
#include "protocols/homa.h"
#include "protocols/pfabric.h"
#include "protocols/qjump.h"
#include "sim/assert.h"
#include "topo/sharding.h"

namespace aeq::runner {

namespace {

// The config every DCTCP flow of every run points at.
constexpr transport::DctcpConfig kDctcpConfig{};

}  // namespace

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config), sim_(config.scheduler_backend) {
  AEQ_CHECK_GE(config_.num_qos, 2u);
  AEQ_ASSERT_MSG(config_.slo.num_qos() == config_.num_qos,
                 "SLO config must cover every QoS level");
  AEQ_ASSERT_MSG(config_.uses_host_stack() || config_.shards == 1,
                 "ExperimentConfig::shards > 1 is not supported with a "
                 "baseline-protocol cc_kind (pFabric/QJump/Homa/D3/PDQ)");
  AEQ_ASSERT_MSG(config_.cc_kind != ExperimentConfig::CcKind::kHoma ||
                     config_.wfq_weights.size() >=
                         protocols::kHomaLevels,
                 "ExperimentConfig::wfq_weights must list one class per "
                 "Homa priority level (8) when cc_kind is kHoma");

  net::QueueConfig queue;
  queue.type = config_.scheduler;
  queue.weights = config_.wfq_weights;
  queue.capacity_bytes = config_.buffer_bytes;
  if (config_.cc_kind == ExperimentConfig::CcKind::kDctcp) {
    // DCTCP needs marking: ~20 MTUs, as in its paper's guidance.
    queue.ecn_threshold_bytes = 20ull * net::kMtuBytes;
  }
  // A queue may carry more classes than the RPC QoS space (Homa's levels).
  AEQ_ASSERT(config_.scheduler == net::SchedulerType::kPfabric ||
             config_.wfq_weights.size() >= config_.num_qos);

  AEQ_CHECK_GE(config_.shards, 1u);
  if (config_.use_leaf_spine) {
    AEQ_ASSERT_MSG(config_.shards == 1,
                   "sharded execution supports star topologies only");
    topo::LeafSpineConfig ls = config_.leaf_spine;
    ls.host_queue = queue;
    ls.switch_queue = queue;
    network_ = topo::build_leaf_spine(sim_, ls);
    config_.num_hosts = network_.num_hosts();
  } else {
    topo::StarConfig star;
    star.num_hosts = config_.num_hosts;
    star.link_rate = config_.link_rate;
    star.host_queue = queue;
    star.switch_queue = queue;
    if (config_.shards == 1) {
      network_ = topo::build_star(sim_, star);
    } else {
      AEQ_CHECK_GE(config_.num_hosts, config_.shards);
      const topo::ShardPlan plan = topo::make_shard_plan(star, config_.shards);
      sharded_ = std::make_unique<sim::ShardedSimulator>(
          config_.shards, config_.scheduler_backend, plan.lookahead);
      std::vector<sim::Simulator*> sims;
      sims.reserve(config_.shards);
      for (std::size_t k = 0; k < config_.shards; ++k) {
        sims.push_back(&sharded_->shard(k));
      }
      fabric_ = std::make_unique<net::ShardFabric>(sims, plan.shard_of_host);
      network_ = topo::build_sharded_star(sims, star, plan, *fabric_);
      sharded_->set_handoff(fabric_.get());
    }
  }

  for (std::size_t k = 0; k < config_.shards; ++k) {
    if (config_.schedule_digest) shard_sim(k).enable_schedule_digest();
    shard_sim(k).reserve_events(config_.reserve_events);
  }

  if (config_.queue_reserve_packets != 0) {
    for (std::size_t k = 0; k < network_.num_buffers(); ++k) {
      util::BlockPool& buffer = network_.buffer(k);
      buffer.reserve(network_.ports_on(buffer).size() *
                     config_.queue_reserve_packets);
    }
  }

  metrics_ = std::make_unique<rpc::RpcMetrics>(
      config_.num_qos, config_.slo, network_.num_hosts(), config_.rnl_per_mtu);
  if (sharded_) {
    // Each shard records its own hosts' RPCs into a private sink; run()
    // folds them into metrics_ in shard-id order (sample-exact merge).
    for (std::size_t k = 0; k < config_.shards; ++k) {
      shard_metrics_.push_back(std::make_unique<rpc::RpcMetrics>(
          config_.num_qos, config_.slo, network_.num_hosts(),
          config_.rnl_per_mtu));
    }
  }

  sim::Rng seeder(config_.seed);
  rpc::RpcStackConfig stack_config;
  stack_config.num_qos = config_.num_qos;

  if (config_.cc_kind == ExperimentConfig::CcKind::kD3 ||
      config_.cc_kind == ExperimentConfig::CcKind::kPdq) {
    deadline_fabric_ = std::make_unique<protocols::DeadlineFabric>(
        sim_,
        config_.cc_kind == ExperimentConfig::CcKind::kD3
            ? protocols::DeadlineMode::kD3
            : protocols::DeadlineMode::kPdq,
        config_.link_rate);
  }
  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    const auto id = static_cast<net::HostId>(i);
    transports_.push_back(make_transport(id));

    if (config_.admission.factory) {
      controllers_.push_back(
          config_.admission.factory(host_simulator(id), id, seeder.fork()));
    } else {
      policy::PolicyContext context;
      context.host = id;
      context.num_qos = config_.num_qos;
      context.slo = config_.slo;
      context.link_rate = config_.link_rate;
      context.rng = seeder.fork();
      controllers_.push_back(
          policy::make_controller(config_.admission, std::move(context)));
    }

    stacks_.push_back(std::make_unique<rpc::RpcStack>(
        host_simulator(id), id, *transports_.back(), *controllers_.back(),
        host_metrics(id), stack_config));
  }

  if (config_.audit) register_audit_checks();
  if (config_.telemetry.any()) wire_telemetry();
}

Experiment::~Experiment() {
  // Disarm the assert-failure hook if it still points at this experiment
  // (parallel sweeps run one experiment per thread; both slots are
  // thread_local, so this races with nobody).
  if (detail::g_failure_sink_arg == this) {
    detail::g_failure_sink = nullptr;
    detail::g_failure_sink_arg = nullptr;
  }
}

std::unique_ptr<transport::MessageTransport> Experiment::make_transport(
    net::HostId id) {
  using CcKind = ExperimentConfig::CcKind;
  sim::Simulator& sim = host_simulator(id);
  net::Host& host = network_.host(id);
  protocols::BaseTransportConfig base;
  switch (config_.cc_kind) {
    case CcKind::kPfabric:
      base.rto = 100 * sim::kUsec;  // aggressive, per pFabric's design
      return std::make_unique<protocols::PfabricTransport>(sim, host, base);
    case CcKind::kQjump: {
      protocols::QjumpConfig qj;
      qj.base = base;
      for (double fraction : config_.qjump_level_rate_fraction) {
        qj.level_rate.push_back(fraction <= 0.0 ? 0.0
                                                : fraction * config_.link_rate);
      }
      return std::make_unique<protocols::QjumpTransport>(sim, host, qj);
    }
    case CcKind::kHoma:
      return std::make_unique<protocols::HomaTransport>(sim, host, base);
    case CcKind::kD3:
    case CcKind::kPdq:
      base.rto = 1 * sim::kMsec;  // rate-paced; recovery is rare
      return std::make_unique<protocols::DeadlineTransport>(
          sim, host, *deadline_fabric_, base);
    case CcKind::kSwift:
    case CcKind::kDctcp:
    case CcKind::kFixedWindow:
      break;
  }
  auto cc_factory = [this]() -> std::unique_ptr<transport::CongestionControl> {
    if (config_.cc_kind == CcKind::kFixedWindow) {
      return std::make_unique<transport::FixedWindowCC>(
          config_.fixed_window_packets);
    }
    if (config_.cc_kind == CcKind::kDctcp) {
      return std::make_unique<transport::DctcpCC>(kDctcpConfig);
    }
    return std::make_unique<transport::SwiftCC>(config_.swift);
  };
  return std::make_unique<transport::HostStack>(
      sim, host, network_.num_hosts(), transport::TransportConfig{},
      cc_factory);
}

transport::HostStack& Experiment::host_stack(net::HostId id) {
  AEQ_ASSERT_MSG(config_.uses_host_stack(),
                 "Experiment::host_stack: a baseline-protocol cc_kind "
                 "(pFabric/QJump/Homa/D3/PDQ) runs no transport::HostStack");
  return static_cast<transport::HostStack&>(
      *transports_.at(static_cast<std::size_t>(id)));
}

void Experiment::enable_telemetry(const TelemetrySpec& spec) {
  AEQ_ASSERT_MSG(recorders_.empty(), "telemetry is already enabled");
  if (!spec.any()) return;
  config_.telemetry = spec;
  wire_telemetry();
}

void Experiment::enable_profiling(const std::string& path) {
  if (path.empty()) return;
  AEQ_ASSERT_MSG(prof_.empty() || prof_ == path,
                 "profiling is already enabled with a different path");
  AEQ_ASSERT_MSG(prof_run_ == nullptr, "enable_profiling must precede run()");
  prof_ = path;
}

// --- Execution profiling (DESIGN.md §14) ----------------------------------
//
// start_profiling() installs the collectors before the first event
// dispatches; finish_profiling() uninstalls them after the drain, assembles
// the Report and writes all three outputs (JSON, Chrome tracks, stderr
// summary). Both run strictly outside the simulation, so a profiled run
// executes the exact schedule an unprofiled run does (tests/prof_test.cc
// pins byte- and digest-identity).

void Experiment::start_profiling() {
  AEQ_ASSERT(prof_run_ == nullptr);
  prof_run_ = std::make_unique<ProfRun>();
  prof_run_->events_at_start = sharded_ ? 0 : sim_.events_processed();
  if (sharded_) {
    std::vector<obs::prof::Collector*> collectors;
    collectors.reserve(config_.shards);
    for (std::size_t k = 0; k < config_.shards; ++k) {
      prof_run_->shard_collectors.push_back(
          std::make_unique<obs::prof::Collector>());
      collectors.push_back(prof_run_->shard_collectors.back().get());
    }
    sharded_->set_profiling(std::move(collectors));
  }
  // This thread's collector: serial runs attribute the whole simulation
  // here; sharded runs only what this thread does outside shard 0's
  // windows (the executive swaps in shard 0's collector around those),
  // such as the observers at executive stops and the post-run sweep.
  obs::prof::install(&prof_run_->main);
  prof_run_->begin = obs::prof::calibration_point();
}

void Experiment::finish_profiling() {
  AEQ_ASSERT(prof_run_ != nullptr);
  const obs::prof::Calibration end_point = obs::prof::calibration_point();
  obs::prof::install(nullptr);

  obs::prof::Report report;
  report.sim_time = now();
  report.num_shards = sharded_ ? config_.shards : 1;
  report.cycles_per_second =
      obs::prof::cycles_per_second(prof_run_->begin, end_point);
  report.elapsed_seconds =
      end_point.wall_seconds - prof_run_->begin.wall_seconds;
  const obs::prof::Cycles envelope =
      end_point.cycles > prof_run_->begin.cycles
          ? end_point.cycles - prof_run_->begin.cycles
          : 0;
  // Per-thread denominator contribution. The measured busy envelope is
  // the truth, but with tree sampling the report scales each collector's
  // attribution by sample_scale(), and a noisy draw can push that
  // estimate past the envelope — widen to whichever is larger so scaled
  // shares still sum to <= 1 by construction (report.h).
  const auto share_denominator = [](const obs::prof::Collector& collector,
                                    obs::prof::Cycles busy) {
    const double scaled = collector.sample_scale() *
                          static_cast<double>(
                              obs::prof::attributed_self_cycles(collector));
    return scaled > static_cast<double>(busy)
               ? static_cast<obs::prof::Cycles>(scaled)
               : busy;
  };

  if (sharded_) {
    sharded_->set_profiling({});
    const sim::ExecutiveStats exec = sharded_->executive_stats();
    for (std::size_t k = 0; k < config_.shards; ++k) {
      obs::prof::ThreadProfile thread;
      thread.label = "shard" + std::to_string(k);
      thread.events = exec.shards[k].events;
      thread.busy_cycles = exec.shards[k].busy_cycles;
      thread.wait_cycles = exec.shards[k].wait_cycles;
      thread.collector = *prof_run_->shard_collectors[k];
      report.events_processed += thread.events;
      report.threads.push_back(std::move(thread));
    }
    // The coordinator thread also runs shard 0's windows, which shard0
    // already accounts for; the coordinator keeps the rest of its envelope.
    const obs::prof::Cycles shard0_busy = exec.shards[0].busy_cycles;
    obs::prof::ThreadProfile coordinator;
    coordinator.label = "coordinator";
    coordinator.busy_cycles =
        envelope > shard0_busy ? envelope - shard0_busy : 0;
    coordinator.collector = prof_run_->main;
    report.denominator_cycles = 0;
    for (std::size_t k = 0; k < config_.shards; ++k) {
      report.denominator_cycles += share_denominator(
          *prof_run_->shard_collectors[k], exec.shards[k].busy_cycles);
    }
    report.denominator_cycles +=
        share_denominator(prof_run_->main, coordinator.busy_cycles);
    report.threads.push_back(std::move(coordinator));

    report.executive.present = true;
    report.executive.windows = exec.windows;
    report.executive.backoff_windows = exec.backoff_windows;
    report.executive.epochs = prof_run_->epochs;
    report.executive.barrier_cycles = exec.barrier_cycles;
    report.executive.barrier_stall_share = exec.barrier_stall_share();
    report.executive.load_imbalance = exec.load_imbalance();
    report.executive.window_hist = exec.window_hist;
    report.executive.mailbox_depth_hwm = fabric_->mailbox_depth_hwm();
    report.executive.cross_shard_packets = fabric_->cross_shard_packets();
  } else {
    obs::prof::ThreadProfile thread;
    thread.label = "serial";
    thread.events = sim_.events_processed() - prof_run_->events_at_start;
    thread.busy_cycles = envelope;
    thread.collector = prof_run_->main;
    report.events_processed = thread.events;
    report.threads.push_back(std::move(thread));
    report.denominator_cycles = share_denominator(prof_run_->main, envelope);
  }

  obs::prof::write_json(report, prof_);
  obs::prof::write_chrome_tracks(report, prof_ + ".trace.json");
  obs::prof::write_text_summary(report, std::cerr);
  prof_run_.reset();
}

std::vector<obs::WindowStats::GaugeStat> Experiment::sample_admission_gauges()
    const {
  std::vector<obs::WindowStats::GaugeStat> out;
  if (controllers_.empty()) return out;
  // The first controller defines the gauge set — every host runs the same
  // policy, so names and order must agree across the fleet (asserted
  // below). Each output row is one gauge's fleet mean and fleet min.
  const std::vector<rpc::Gauge> first = controllers_[0]->gauges();
  if (first.empty()) return out;
  std::vector<double> sum(first.size(), 0.0);
  std::vector<double> min(first.size(), 0.0);
  for (std::size_t h = 0; h < controllers_.size(); ++h) {
    const std::vector<rpc::Gauge> gauges =
        h == 0 ? first : controllers_[h]->gauges();
    AEQ_ASSERT_MSG(gauges.size() == first.size(),
                   "admission gauge sets differ across hosts");
    for (std::size_t g = 0; g < gauges.size(); ++g) {
      AEQ_ASSERT_MSG(std::string(gauges[g].name) == first[g].name,
                     "admission gauge names differ across hosts");
      sum[g] += gauges[g].value;
      min[g] = h == 0 ? gauges[g].value : std::min(min[g], gauges[g].value);
    }
  }
  out.reserve(first.size());
  for (std::size_t g = 0; g < first.size(); ++g) {
    out.push_back({first[g].name,
                   sum[g] / static_cast<double>(controllers_.size()), min[g]});
  }
  return out;
}

obs::WatchdogConfig Experiment::watchdog_config() const {
  obs::WatchdogConfig config;
  // Compliance alarms derive from the configured SLO percentiles, backed
  // off by a margin so ordinary jitter around the target stays silent: a
  // 99.9% SLO alarms when a window's compliance drops below ~90%.
  constexpr double kAlarmMargin = 0.9;
  config.compliance_target.assign(config_.num_qos, 0.0);
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    const auto qos = static_cast<net::QoSLevel>(q);
    if (!config_.slo.has_slo(qos)) continue;  // scavenger class: no alarm
    config.compliance_target[q] =
        kAlarmMargin * config_.slo.target_percentile[q] / 100.0;
  }
  config.saturation_qlen_bytes = static_cast<std::uint64_t>(
      0.95 * static_cast<double>(config_.buffer_bytes));
  // "Pinned at the controller's own floor" — separates pathological
  // collapse from ordinary heavy throttling of misbehaving channels.
  config.p_admit_floor = 1.5 * config_.admission.aequitas.p_admit_floor;
  return config;
}

void Experiment::on_anomaly(const obs::Anomaly& anomaly) {
  if (watchdog_log_ != nullptr) {
    *watchdog_log_ << "[watchdog] " << obs::describe(anomaly) << std::endl;
  }
  // The first anomaly gets the flight dump: its ring still holds the onset
  // of the problem, which later anomalies' rings may have evicted.
  dump_flight_once(&anomaly);
}

void Experiment::failure_dump(void* self) {
  static_cast<Experiment*>(self)->dump_flight_once(nullptr);
}

void Experiment::dump_flight_once(const obs::Anomaly* anomaly) {
  if (flight_ == nullptr || flight_dumped_) return;
  flight_dumped_ = true;
  flight_->dump(config_.telemetry.flight_recorder, anomaly);
  if (timeseries_ != nullptr) {
    timeseries_->write_recent_csv(config_.telemetry.flight_recorder +
                                  ".timeseries.csv");
  }
}

// One Recorder per shard (a serial run is the one-shard case), so emission
// never synchronizes across workers. Ports are named "host<i>-nic" and
// "<switch>-port<p>" and registered host NICs first, in global host order,
// then each switch's egress ports. Recorder k numbers its ports from a
// cumulative base (the ports owned by shards < k), so ids — and therefore
// Chrome-trace pids — are globally unique and equal to the serial ids at
// any shard count. Without the bases the merged trace folded same-index
// ports from different shards into one track
// (tests/shard_merge_test.cc::PortTracksStayDistinctAcrossShards). Above
// one shard each recorder writes `<path>.shard<k>` and run() merges the
// files into the final path in shard-id order (obs::merge_sharded_*).
void Experiment::wire_telemetry() {
  const TelemetrySpec& spec = config_.telemetry;
  const std::size_t shards = config_.shards;
  AEQ_ASSERT_MSG(
      shards == 1 || (!spec.windowed() && spec.flight_recorder.empty()),
      "windowed telemetry (timeseries/watchdog/flight recorder) is not yet "
      "supported with shards > 1; use --trace / --trace-csv");
  std::vector<std::uint32_t> port_count(shards, 0);
  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    ++port_count[shard_of(static_cast<net::HostId>(i))];
  }
  for (std::size_t s = 0; s < network_.num_switches(); ++s) {
    port_count[switch_shard(s)] +=
        static_cast<std::uint32_t>(network_.fabric_switch(s).num_ports());
  }
  const auto shard_path = [shards](const std::string& path, std::size_t k) {
    return shards == 1 ? path : obs::shard_trace_path(path, k);
  };
  std::uint32_t base = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    recorders_.push_back(std::make_unique<obs::Recorder>(base));
    base += port_count[k];
    if (!spec.trace.empty()) {
      recorders_[k]->own_sink(std::make_unique<obs::ChromeTraceSink>(
          shard_path(spec.trace, k)));
    }
    if (!spec.trace_csv.empty()) {
      recorders_[k]->own_sink(
          std::make_unique<obs::CsvSink>(shard_path(spec.trace_csv, k)));
    }
  }
  // The windowed components are serial-only (asserted above).
  obs::Recorder& recorder = *recorders_[0];
  if (!spec.flight_recorder.empty()) {
    flight_ = static_cast<obs::FlightRecorder*>(recorder.own_sink(
        std::make_unique<obs::FlightRecorder>()));
    // Arm the last-gasp hook: an assert/audit failure dumps the ring
    // before aborting.
    detail::g_failure_sink = &Experiment::failure_dump;
    detail::g_failure_sink_arg = this;
  }
  // The timeseries sink registers after the flight recorder so that when a
  // window closes mid-event and the watchdog fires, the ring already holds
  // the event that closed the window.
  if (spec.windowed()) {
    obs::TimeseriesConfig ts;
    ts.window = spec.timeseries_width;
    ts.num_qos = config_.num_qos;
    ts.csv_path = spec.timeseries_csv;
    ts.json_path = spec.timeseries_json;
    timeseries_ = static_cast<obs::TimeseriesSink*>(
        recorder.own_sink(std::make_unique<obs::TimeseriesSink>(ts)));
    // Every closed window also samples the admission controllers' gauges
    // (read-only, like the audit sweep), giving `--controller=` shoot-outs
    // a per-window gauge timeline next to the admission-plane columns.
    timeseries_->set_gauge_provider(
        [this] { return sample_admission_gauges(); });
    // The telemetry tick: closing windows on the clock, not only on the
    // next event, is what closes empty windows, so a fully stalled run
    // still reaches the watchdog's stall rule.
    observers_.push_back(Observer{
        spec.timeseries_width, /*through_drain=*/true,
        [this](sim::Time t) { timeseries_->advance_to(t); }});
  }
  if (spec.watchdog) {
    watchdog_ = std::make_unique<obs::Watchdog>(watchdog_config());
    if (!spec.watchdog_log.empty()) {
      watchdog_log_file_.open(spec.watchdog_log,
                              std::ios::out | std::ios::trunc);
      AEQ_ASSERT_MSG(watchdog_log_file_.is_open(),
                     "cannot open watchdog log file");
      watchdog_log_ = &watchdog_log_file_;
    } else {
      watchdog_log_ = &std::cerr;
    }
    timeseries_->add_window_listener(
        [this](const obs::WindowStats& window) {
          watchdog_->on_window(window);
        });
    watchdog_->add_callback(
        [this](const obs::Anomaly& anomaly) { on_anomaly(anomaly); });
  }
  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    const auto id = static_cast<net::HostId>(i);
    obs::Recorder& host_recorder = *recorders_[shard_of(id)];
    const std::uint32_t pid =
        host_recorder.register_port("host" + std::to_string(i) + "-nic");
    network_.host(id).egress().set_observer(&host_recorder, pid);
    if (config_.uses_host_stack()) host_stack(id).set_observer(&host_recorder);
    stacks_[i]->set_observer(&host_recorder);
  }
  for (std::size_t s = 0; s < network_.num_switches(); ++s) {
    net::Switch& sw = network_.fabric_switch(s);
    obs::Recorder& switch_recorder = *recorders_[switch_shard(s)];
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const std::uint32_t pid = switch_recorder.register_port(
          sw.name() + "-port" + std::to_string(p));
      sw.port(p).set_observer(&switch_recorder, pid);
    }
  }
}

// One auditor over every component of every shard: its sweeps run at
// executive stops, where all shards are parked and every cross-shard
// handoff has landed, so a check may read any shard's state.
void Experiment::register_audit_checks() {
  auditor_ = std::make_unique<audit::Auditor>();
  audit::Auditor& auditor = *auditor_;
  for (std::size_t k = 0; k < config_.shards; ++k) {
    audit::register_simulator_checks(auditor, shard_sim(k));
  }
  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    const auto id = static_cast<net::HostId>(i);
    const std::string host = "host" + std::to_string(i);
    audit::register_port_checks(auditor, host + "-nic",
                                network_.host(id).egress(),
                                host_simulator(id));
    if (config_.uses_host_stack()) {
      audit::register_transport_checks(auditor, host + "-transport",
                                       host_stack(id));
    }
    audit::register_admission_checks(auditor, host + "-admission",
                                     *controllers_[i], host_simulator(id));
  }
  for (std::size_t s = 0; s < network_.num_switches(); ++s) {
    audit::register_switch_checks(auditor, network_.fabric_switch(s).name(),
                                  network_.fabric_switch(s),
                                  shard_sim(switch_shard(s)));
  }
  for (std::size_t k = 0; k < network_.num_buffers(); ++k) {
    const util::BlockPool& buffer = network_.buffer(k);
    audit::register_buffer_checks(auditor, "buffer" + std::to_string(k),
                                  buffer, network_.ports_on(buffer));
  }
  observers_.push_back(Observer{config_.audit_interval, /*through_drain=*/true,
                                [this](sim::Time) { auditor_->run_all(); }});
}

const workload::SizeDistribution* Experiment::own(
    std::unique_ptr<workload::SizeDistribution> dist) {
  owned_dists_.push_back(std::move(dist));
  return owned_dists_.back().get();
}

workload::TrafficGenerator& Experiment::add_generator(
    net::HostId id, const workload::GeneratorConfig& generator_config,
    workload::DestinationPicker picker) {
  if (!picker) {
    picker = workload::uniform_destinations(network_.num_hosts(), id);
  }
  sim::Rng rng(config_.seed * 7919 + static_cast<std::uint64_t>(id) + 1);
  generators_.push_back(std::make_unique<workload::TrafficGenerator>(
      host_simulator(id), stack(id), std::move(picker), generator_config,
      rng));
  return *generators_.back();
}

void Experiment::sample_every(sim::Time interval,
                              std::function<void(sim::Time)> fn) {
  AEQ_ASSERT_MSG(!sharded_,
                 "Experiment::sample_every needs ExperimentConfig::shards == "
                 "1 (samplers read cross-shard state mid-run)");
  AEQ_ASSERT(interval > 0.0 && fn != nullptr);
  observers_.push_back(Observer{interval, /*through_drain=*/false,
                                std::move(fn)});
}

void Experiment::run(sim::Time warmup, sim::Time duration, sim::Time drain) {
  AEQ_CHECK_GT(duration, 0.0);
  metrics_->set_warmup(warmup);
  for (auto& shard_metrics : shard_metrics_) {
    shard_metrics->set_warmup(warmup);
  }
  if (sharded_) {
    // Per-shard metrics merge into metrics_ below; a second run() would
    // double-count the first run's samples.
    AEQ_ASSERT_MSG(!ran_, "a sharded experiment supports one run() call");
    ran_ = true;
  }
  const sim::Time run_end = warmup + duration;
  const sim::Time drain_end = run_end + drain;
  // The warmup transient (admission probabilities converging down from 1)
  // is expected turbulence, not an anomaly; going quiet after generation
  // ends is the drain working, not a stall.
  if (watchdog_) {
    watchdog_->set_quiet_until(warmup);
    watchdog_->set_stall_horizon(run_end);
  }
  if (!prof_.empty()) start_profiling();
  const sim::Time start = now();
  for (auto& generator : generators_) {
    generator->run(start, run_end);
  }
  for (Observer& observer : observers_) {
    AEQ_ASSERT(observer.interval > 0.0);
    observer.next = start + observer.interval;
  }
  const auto due = [run_end, drain_end](const Observer& observer) {
    return observer.through_drain ? observer.next <= drain_end
                                  : observer.next < run_end;
  };
  // Runs every event up to `end`, stopping at each observer instant t on
  // the way: the stop runs every event before t and none at t. The sharded
  // run_until returns with every shard parked and every handoff landed.
  const auto run_phase = [&](sim::Time end) {
    constexpr sim::Time kInf = std::numeric_limits<sim::Time>::infinity();
    for (;;) {
      sim::Time stop = kInf;
      for (const Observer& observer : observers_) {
        if (due(observer)) stop = std::min(stop, observer.next);
      }
      const sim::Time until = stop > end ? end : std::nextafter(stop, -kInf);
      if (sharded_) {
        sharded_->run_until(until);
      } else {
        sim_.run_until(until);
      }
      if (stop > end) break;
      for (Observer& observer : observers_) {
        if (due(observer) && observer.next == stop) {
          observer.fn(stop);
          observer.next += observer.interval;
        }
      }
    }
    if (sharded_ && prof_run_) {
      prof_run_->epochs.push_back(sharded_->windows_executed());
    }
  };
  run_phase(run_end);
  // Let in-flight RPCs finish so tail percentiles include them.
  run_phase(drain_end);
  // One final sweep over the drained state (catches leaks that only show
  // once queues empty, e.g. a pool reservation that never released).
  if (auditor_) auditor_->run_all();
  if (sharded_) {
    AEQ_ASSERT_MSG(fabric_->idle(),
                   "cross-shard outboxes still hold packets after drain");
    // Fold the per-shard metric sinks into the global one in shard-id
    // order (sample-exact; see rpc::RpcMetrics::merge). Each sink's samples
    // move, so the fold never holds every sample twice.
    for (auto& shard_metrics : shard_metrics_) {
      metrics_->merge(std::move(*shard_metrics));
    }
  }
  for (auto& recorder : recorders_) recorder->flush(now());
  // Stitch the per-shard trace files into the final paths.
  if (sharded_ && !config_.telemetry.trace.empty()) {
    obs::merge_sharded_chrome_traces(config_.telemetry.trace, config_.shards);
  }
  if (sharded_ && !config_.telemetry.trace_csv.empty()) {
    obs::merge_sharded_csv_traces(config_.telemetry.trace_csv,
                                  config_.shards);
  }
  if (prof_run_) finish_profiling();
}

double Experiment::mean_downlink_utilization() const {
  double total = 0.0;
  const sim::Time now = this->now();
  if (now <= 0.0) return 0.0;
  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    total += network_.downlink(static_cast<net::HostId>(i)).utilization(now);
  }
  return total / static_cast<double>(network_.num_hosts());
}

}  // namespace aeq::runner
