// Experiment harness: wires a topology, per-host transport stacks, RPC
// stacks, admission controllers, the shared metrics sink, and traffic
// generators into one runnable object. Every bench/example builds on this.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/aequitas.h"
#include "net/queue_factory.h"
#include "net/shard_fabric.h"
#include "obs/flight_recorder.h"
#include "obs/prof/report.h"
#include "obs/recorder.h"
#include "obs/timeseries_sink.h"
#include "obs/watchdog.h"
#include "policy/spec.h"
#include "rpc/metrics.h"
#include "rpc/rpc_stack.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "transport/dctcp.h"
#include "transport/host_stack.h"
#include "transport/swift.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::protocols {
class DeadlineFabric;
}  // namespace aeq::protocols

namespace aeq::runner {

// Everything the telemetry pipeline can attach to one experiment. All
// outputs are independent; any non-empty path (or `watchdog`) creates the
// obs::Recorder and wires every port, flow, and RPC stack. With the whole
// spec empty no recorder exists and every emission site reduces to a single
// null-pointer test, so results stay bit-identical with telemetry on or off.
struct TelemetrySpec {
  // Raw per-event streams (PR-4 sinks).
  std::string trace;      // Chrome trace_event JSON (Perfetto-loadable)
  std::string trace_csv;  // flat per-event CSV

  // Windowed timeline (obs::TimeseriesSink): per-QoS RNL percentiles,
  // SLO compliance, byte shares, p_admit, port queue depths — one bounded
  // record per `timeseries_width` of simulated time.
  std::string timeseries_csv;
  std::string timeseries_json;
  sim::Time timeseries_width = 100 * sim::kUsec;

  // Online anomaly detection over closed windows (obs::Watchdog). Enabled
  // implies a TimeseriesSink even when both timeseries paths are empty.
  // Anomaly lines go to `watchdog_log` ("" = stderr). The experiment sets
  // the thresholds: compliance targets from the SLO percentiles (with an
  // alarm margin), saturation from the port buffer size.
  bool watchdog = false;
  std::string watchdog_log;

  // Post-mortem ring buffer (obs::FlightRecorder). The path is where the
  // Chrome-trace snapshot lands when the watchdog first fires or when an
  // AEQ_ASSERT/AEQ_CHECK (including audit invariants) aborts the run; the
  // recent timeseries rows land next to it at `<path>.timeseries.csv`.
  std::string flight_recorder;

  bool windowed() const {
    return !timeseries_csv.empty() || !timeseries_json.empty() || watchdog;
  }
  bool any() const {
    return !trace.empty() || !trace_csv.empty() || windowed() ||
           !flight_recorder.empty();
  }
};

struct ExperimentConfig {
  // Simulation executive: which event-scheduler backend dispatches events.
  // Both produce identical results for a fixed seed (enforced by the
  // scheduler-equivalence property test); the calendar queue is the fast
  // path for dense packet-level workloads and therefore the default.
  sim::SchedulerBackend scheduler_backend = sim::SchedulerBackend::kCalendar;

  // Topology (single-switch star unless use_leaf_spine).
  std::size_t num_hosts = 3;
  sim::Rate link_rate = sim::gbps(100);  // every link delays topo::kLinkDelay
  bool use_leaf_spine = false;
  topo::LeafSpineConfig leaf_spine;  // consulted when use_leaf_spine

  // QoS plane.
  std::size_t num_qos = 3;
  std::vector<double> wfq_weights = {8.0, 4.0, 1.0};
  net::SchedulerType scheduler = net::SchedulerType::kWfq;
  std::uint64_t buffer_bytes = 8 * sim::kMiB;  // per port, shared
  // Stocks each shard's packet buffer with blocks for this many packets per
  // port it serves (util::BlockPool::reserve): with a hint above the run's
  // deepest backlog the event loop performs zero steady-state allocations,
  // which the allocation regression test pins down. 0 = grow on demand.
  std::size_t queue_reserve_packets = 0;
  // Pre-sizes the event store (keys, handler nodes, and the heap or the
  // calendar buckets) for this many concurrent pending events; same
  // contract as queue_reserve_packets. 0 = grow on demand.
  std::size_t reserve_events = 0;

  // Intra-run parallelism: partition the (star) topology into this many
  // shards, each with its own event scheduler, advanced in conservative
  // lookahead windows on a worker pool (sim::ShardedSimulator). Same seed
  // and workload produce metrics identical to shards=1 for any value —
  // enforced by the shard-determinism property suite. shards=1 is the
  // plain serial executive with zero overhead. Requires a star topology;
  // sample_every and windowed telemetry (timeseries/watchdog/flight
  // recorder) are not yet supported above 1.
  std::size_t shards = 1;

  // Transport. Swift, DCTCP and fixed-window run over transport::HostStack.
  // The Figure 22 baselines replace it with their protocols::*Transport per
  // host; pair each with the queue discipline it assumes via `scheduler`,
  // `buffer_bytes` and `wfq_weights` (whose size is the class count):
  // pFabric -> kPfabric, QJump -> kSpq, Homa -> kSpq with one class per
  // priority level (8), D3/PDQ -> kFifo. Baselines run serial only.
  // HostStack flows run on the default transport::TransportConfig, and
  // DCTCP on the default transport::DctcpConfig (every queue marks ECN
  // past 20 MTUs).
  enum class CcKind {
    kSwift, kDctcp, kFixedWindow,
    kPfabric, kQjump, kHoma, kD3, kPdq
  };
  CcKind cc_kind = CcKind::kSwift;
  transport::SwiftConfig swift;
  double fixed_window_packets = 64.0;
  // QJump's per-QoS-level host rate limit as a fraction of link_rate;
  // 0 = unthrottled.
  std::vector<double> qjump_level_rate_fraction = {0.05, 0.20, 0.0};

  bool uses_host_stack() const {
    return cc_kind == CcKind::kSwift || cc_kind == CcKind::kDctcp ||
           cc_kind == CcKind::kFixedWindow;
  }

  // Admission control: which policy every host runs, resolved through the
  // policy registry (src/policy/). The default spec is Aequitas with the
  // paper's AIMD knobs; set admission.kind to sweep competing policies
  // ("always-admit", "ticket-pool", "bandit", "swp-pacing"), or
  // admission.factory to install a caller-built controller.
  policy::AdmissionSpec admission;

  rpc::SloConfig slo;  // required (also drives SLO-met accounting)
  // Also keep each post-warmup RNL divided by its RPC's size in MTUs, for
  // metrics().rnl_per_mtu_by_run_qos: one more exact sample per RPC, so it
  // is off unless the caller prints per-MTU percentiles.
  bool rnl_per_mtu = false;

  // Invariant auditing (src/audit/): when set, the experiment registers the
  // full check catalogue over its components and evaluates it every
  // `audit_interval` of simulated time, between events, plus once after the
  // drain. Checks are read-only, so results and schedule digests are
  // bit-identical with auditing on or off.
  // Defaults on in -DAEQ_AUDIT builds (which additionally enable the
  // per-event hot-path hooks), off otherwise.
  bool audit = audit::kBuildEnabled;
  sim::Time audit_interval = 50 * sim::kUsec;

  // Telemetry (src/obs/): see TelemetrySpec.
  TelemetrySpec telemetry;

  // Schedule digest (sim/digest.h): when true, every dispatched event's
  // (time, tie-rank) is folded into a digest exposed by
  // Experiment::schedule_digest(). Read-only with respect to the run —
  // results are bit-identical either way.
  bool schedule_digest = false;

  std::uint64_t seed = 1;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);
  ~Experiment();

  // The serial executive; aborts when config().shards > 1 (a sharded
  // experiment runs on shard simulators instead — see sharded()).
  sim::Simulator& simulator() {
    AEQ_ASSERT_MSG(!sharded_,
                   "Experiment::simulator needs ExperimentConfig::shards == "
                   "1; a sharded experiment runs on sharded()->shard(k)");
    return sim_;
  }

  // The parallel executive; null when config().shards == 1.
  sim::ShardedSimulator* sharded() { return sharded_.get(); }

  // The cross-shard packet fabric; null when config().shards == 1.
  net::ShardFabric* shard_fabric() { return fabric_.get(); }

  // Current simulated time / total events dispatched, valid in both modes.
  sim::Time now() const {
    return sharded_ ? sharded_->now() : sim_.now();
  }
  std::uint64_t events_processed() const {
    return sharded_ ? sharded_->events_processed() : sim_.events_processed();
  }

  // Merged schedule digest, valid in both modes; all-zero counts unless
  // config().schedule_digest was set. Its canonical() form is invariant
  // across backends, shard counts, and address-space layouts for a fixed
  // seed (DESIGN.md §12).
  sim::ScheduleDigest schedule_digest() const {
    return sharded_ ? sharded_->schedule_digest() : sim_.schedule_digest();
  }

  topo::Network& network() { return network_; }
  rpc::RpcMetrics& metrics() { return *metrics_; }
  rpc::RpcStack& stack(net::HostId id) {
    return *stacks_.at(static_cast<std::size_t>(id));
  }
  // Host `id`'s Swift/DCTCP/fixed-window stack; aborts when cc_kind is a
  // baseline protocol, which has none.
  transport::HostStack& host_stack(net::HostId id);
  // Host `id`'s admission controller, whatever policy it runs. The base
  // interface (gauges(), audit_invariants()) is the policy-agnostic
  // surface benches and checks should prefer.
  rpc::AdmissionController& admission(net::HostId id) {
    return *controllers_.at(static_cast<std::size_t>(id));
  }
  const rpc::AdmissionController& admission(net::HostId id) const {
    return *controllers_.at(static_cast<std::size_t>(id));
  }

  // Typed shim for Aequitas-specific introspection (per-channel p_admit,
  // increment_window): null when host `id` runs any other policy.
  core::AequitasController* aequitas(net::HostId id) {
    return dynamic_cast<core::AequitasController*>(
        controllers_.at(static_cast<std::size_t>(id)).get());
  }

  const ExperimentConfig& config() const { return config_; }

  // The invariant-audit registry over every component of every shard;
  // null when ExperimentConfig::audit is off.
  audit::Auditor* auditor() { return auditor_.get(); }

  // Shard `shard`'s telemetry recorder; null unless some TelemetrySpec
  // output is set, or when shard >= shards. Extra sinks may be attached
  // before run().
  obs::Recorder* tracing(std::size_t shard = 0) {
    return shard < recorders_.size() ? recorders_[shard].get() : nullptr;
  }

  // The windowed-telemetry components; null unless the spec enables them.
  obs::TimeseriesSink* timeseries() { return timeseries_; }
  obs::Watchdog* watchdog() { return watchdog_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_; }

  // Post-construction equivalent of setting ExperimentConfig::telemetry:
  // creates the recorder and wires every port, flow, and RPC stack. Must be
  // called before run(), at most once, and only when the config did not
  // already enable telemetry.
  void enable_telemetry(const TelemetrySpec& spec);

  // Execution profiling (src/obs/prof/, DESIGN.md §14): run() attributes
  // cycle cost per component into the JSON report at `path` (plus
  // `<path>.trace.json` Chrome-trace flame rows and a text summary on
  // stderr). Observe-only: schedules and stdout/artifact bytes are
  // identical with profiling on or off, on both backends at any shard
  // count (tests/prof_test.cc pins this). Must be called before run(); at
  // most one profile path per experiment; "" is a no-op.
  void enable_profiling(const std::string& path);

  // Registers and owns a size distribution for the experiment's lifetime.
  const workload::SizeDistribution* own(
      std::unique_ptr<workload::SizeDistribution> dist);

  // Attaches a generator to host `id`; destinations default to uniform
  // all-to-all.
  workload::TrafficGenerator& add_generator(
      net::HostId id, const workload::GeneratorConfig& generator_config,
      workload::DestinationPicker picker = nullptr);

  // Runs generators over [0, warmup + duration); metrics exclude RPCs
  // issued during warmup. Afterwards drains in-flight work for up to
  // `drain` extra simulated seconds.
  void run(sim::Time warmup, sim::Time duration,
           sim::Time drain = 2 * sim::kMsec);

  // Registers a callback invoked every `interval` of simulated time during
  // run(), between events, while traffic is generated (e.g. to sample
  // p_admit or outstanding gauges).
  void sample_every(sim::Time interval, std::function<void(sim::Time)> fn);

  // Aggregate utilization of all host downlinks over [0, now].
  double mean_downlink_utilization() const;

 private:
  std::unique_ptr<transport::MessageTransport> make_transport(
      net::HostId id);
  void register_audit_checks();
  void wire_telemetry();
  // Per-shard wiring; a serial run is shard 0 of one, on sim_ and metrics_.
  sim::Simulator& shard_sim(std::size_t k) {
    return sharded_ ? sharded_->shard(k) : sim_;
  }
  std::size_t shard_of(net::HostId id) const {
    return fabric_ ? fabric_->shard_of(id) : 0;
  }
  // build_sharded_star makes exactly one switch per shard, in shard order;
  // every switch of a serial run (star or leaf-spine) is on shard 0.
  std::size_t switch_shard(std::size_t s) const { return sharded_ ? s : 0; }
  // The executive a given host's components schedule into.
  sim::Simulator& host_simulator(net::HostId id) {
    return shard_sim(shard_of(id));
  }
  rpc::RpcMetrics& host_metrics(net::HostId id) {
    return sharded_ ? *shard_metrics_[shard_of(id)] : *metrics_;
  }
  void start_profiling();
  void finish_profiling();
  std::vector<obs::WindowStats::GaugeStat> sample_admission_gauges() const;
  obs::WatchdogConfig watchdog_config() const;
  void on_anomaly(const obs::Anomaly& anomaly);
  // Last-gasp hook (sim/assert.h): dumps the flight recorder and recent
  // timeseries rows before an assert/audit failure aborts the process.
  static void failure_dump(void* self);
  // The run's one flight dump (a no-op after the first or without a
  // recorder): the ring, marked with `anomaly` when non-null, plus the
  // recent timeseries rows at `<path>.timeseries.csv`.
  void dump_flight_once(const obs::Anomaly* anomaly);

  ExperimentConfig config_;
  sim::Simulator sim_;
  // Sharded-mode state (config_.shards > 1): the parallel executive, the
  // cross-shard packet fabric, and per-shard metrics sinks merged into
  // metrics_ after the run.
  std::unique_ptr<sim::ShardedSimulator> sharded_;
  std::unique_ptr<net::ShardFabric> fabric_;
  std::vector<std::unique_ptr<rpc::RpcMetrics>> shard_metrics_;
  bool ran_ = false;
  topo::Network network_;
  std::unique_ptr<audit::Auditor> auditor_;  // null unless config_.audit
  // One per shard when any telemetry output is set; else empty.
  std::vector<std::unique_ptr<obs::Recorder>> recorders_;
  obs::TimeseriesSink* timeseries_ = nullptr;  // owned by recorders_[0]
  obs::FlightRecorder* flight_ = nullptr;      // owned by recorders_[0]
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::ofstream watchdog_log_file_;
  std::ostream* watchdog_log_ = nullptr;
  bool flight_dumped_ = false;
  std::unique_ptr<rpc::RpcMetrics> metrics_;
  // Shared D3/PDQ allocation state; outlives the transports that use it.
  std::unique_ptr<protocols::DeadlineFabric> deadline_fabric_;
  std::vector<std::unique_ptr<transport::MessageTransport>> transports_;
  std::vector<std::unique_ptr<rpc::AdmissionController>> controllers_;
  std::vector<std::unique_ptr<rpc::RpcStack>> stacks_;
  std::vector<std::unique_ptr<workload::TrafficGenerator>> generators_;
  std::vector<std::unique_ptr<workload::SizeDistribution>> owned_dists_;
  // The audit sweep, the telemetry tick and the samplers: run() stops the
  // executive before each instant start + k * interval and calls fn there.
  // Samplers stop before the end of generation, the others after the drain.
  struct Observer {
    sim::Time interval;
    bool through_drain;
    std::function<void(sim::Time)> fn;
    sim::Time next = 0.0;
  };
  std::vector<Observer> observers_;

  // The profile report path (enable_profiling); "" = no profiling.
  std::string prof_;
  // Live profiling state for the current run() (prof_ non-empty):
  // the main-thread collector (serial loop, or the sharded coordinator's
  // work outside shard 0's windows), one collector per shard, the
  // opening calibration point, and the executive's cumulative window
  // counts at each run-phase boundary.
  struct ProfRun {
    obs::prof::Collector main;
    std::vector<std::unique_ptr<obs::prof::Collector>> shard_collectors;
    obs::prof::Calibration begin;
    std::vector<std::uint64_t> epochs;
    // Serial runs may call run() repeatedly; the report counts only the
    // events dispatched inside this profiled run.
    std::uint64_t events_at_start = 0;
  };
  std::unique_ptr<ProfRun> prof_run_;
};

}  // namespace aeq::runner
