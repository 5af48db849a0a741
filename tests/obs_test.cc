// Tests for the unified observability layer (src/obs/): recorder fan-out
// and port registration, golden-file output of the Chrome and CSV sinks,
// end-to-end reconciliation of windowed trace totals against RpcMetrics,
// and the property the whole design hangs on — running with
// tracing enabled leaves every simulation result bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace_sink.h"
#include "obs/csv_sink.h"
#include "obs/recorder.h"
#include "runner/experiment.h"

namespace aeq {
namespace {

// Sink stub that appends one tagged line per callback to a shared log, so
// tests can assert both delivery and fan-out order.
class LogSink : public obs::Sink {
 public:
  LogSink(std::string tag, std::vector<std::string>* log,
          bool* destroyed = nullptr)
      : tag_(std::move(tag)), log_(log), destroyed_(destroyed) {}
  ~LogSink() override {
    if (destroyed_ != nullptr) *destroyed_ = true;
  }

  void on_port_registered(std::uint32_t port,
                          const std::string& name) override {
    log_->push_back(tag_ + ":port" + std::to_string(port) + ":" + name);
  }
  void on_rpc_generated(const obs::RpcGenerated&) override {
    log_->push_back(tag_ + ":generated");
  }
  void on_admission(const obs::AdmissionDecision&) override {
    log_->push_back(tag_ + ":admission");
  }
  void on_packet(const obs::PacketEvent&) override {
    log_->push_back(tag_ + ":packet");
  }
  void on_cwnd(const obs::CwndUpdate&) override {
    log_->push_back(tag_ + ":cwnd");
  }
  void on_rpc_complete(const obs::RpcComplete&) override {
    log_->push_back(tag_ + ":complete");
  }
  void flush(sim::Time) override { log_->push_back(tag_ + ":flush"); }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
  bool* destroyed_;
};

// The fixed little event sequence the golden-file tests replay: one RPC's
// full lifecycle (generated -> downgraded -> one packet enqueued, one
// dropped -> cwnd move -> completion missing its SLO) on registered port 0.
void replay_lifecycle(obs::Recorder& recorder) {
  recorder.register_port("sw0-port0");

  obs::RpcGenerated generated;
  generated.t = 1.5 * sim::kUsec;
  generated.rpc_id = 7;
  generated.src = 0;
  generated.dst = 1;
  generated.qos_requested = 0;
  generated.bytes = 1000;
  recorder.rpc_generated(generated);

  obs::AdmissionDecision admission;
  admission.t = 2.0 * sim::kUsec;
  admission.rpc_id = 7;
  admission.src = 0;
  admission.dst = 1;
  admission.qos_from = 0;
  admission.qos_to = 1;
  admission.p_admit = 0.75;
  admission.downgraded = true;
  recorder.admission(admission);

  obs::PacketEvent enqueue;
  enqueue.t = 2.5 * sim::kUsec;
  enqueue.kind = obs::PacketEventKind::kEnqueue;
  enqueue.port = 0;
  enqueue.qos = 1;
  enqueue.bytes = 500;
  enqueue.qlen_bytes = 500;
  enqueue.qlen_packets = 1;
  recorder.packet(enqueue);

  obs::PacketEvent drop;
  drop.t = 3.0 * sim::kUsec;
  drop.kind = obs::PacketEventKind::kDrop;
  drop.port = 0;
  drop.qos = 1;
  drop.bytes = 500;
  drop.qlen_bytes = 500;
  drop.qlen_packets = 1;
  recorder.packet(drop);

  obs::CwndUpdate cwnd;
  cwnd.t = 4.0 * sim::kUsec;
  cwnd.src = 0;
  cwnd.dst = 1;
  cwnd.qos = 1;
  cwnd.cwnd_packets = 8.0;
  recorder.cwnd(cwnd);

  obs::RpcComplete complete;
  complete.t = 9.0 * sim::kUsec;
  complete.rpc_id = 7;
  complete.src = 0;
  complete.dst = 1;
  complete.qos_requested = 0;
  complete.qos_run = 1;
  complete.bytes = 1000;
  complete.rnl = 4.0 * sim::kUsec;
  complete.slo_met = false;
  complete.downgraded = true;
  recorder.rpc_complete(complete);

  recorder.flush(10.0 * sim::kUsec);
}

TEST(RecorderTest, FansOutToSinksInRegistrationOrder) {
  std::vector<std::string> log;
  LogSink first("a", &log);
  LogSink second("b", &log);
  obs::Recorder recorder;
  recorder.add_sink(&first);
  recorder.add_sink(&second);
  EXPECT_EQ(recorder.sink_count(), 2u);

  replay_lifecycle(recorder);

  const std::vector<std::string> expected = {
      "a:port0:sw0-port0", "b:port0:sw0-port0",
      "a:generated",       "b:generated",
      "a:admission",       "b:admission",
      "a:packet",          "b:packet",
      "a:packet",          "b:packet",
      "a:cwnd",            "b:cwnd",
      "a:complete",        "b:complete",
      "a:flush",           "b:flush",
  };
  EXPECT_EQ(log, expected);
}

TEST(RecorderTest, OwnSinkIsDeliveredToAndDestroyedWithRecorder) {
  std::vector<std::string> log;
  bool destroyed = false;
  {
    obs::Recorder recorder;
    obs::Sink* raw = recorder.own_sink(
        std::make_unique<LogSink>("owned", &log, &destroyed));
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(recorder.sink_count(), 1u);
    obs::RpcGenerated generated;
    recorder.rpc_generated(generated);
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(log, std::vector<std::string>{"owned:generated"});
}

TEST(RecorderTest, RegisterPortAssignsDenseIdsAndAnnouncesNames) {
  std::vector<std::string> log;
  LogSink sink("s", &log);
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  EXPECT_EQ(recorder.port_count(), 0u);
  EXPECT_EQ(recorder.register_port("host0-nic"), 0u);
  EXPECT_EQ(recorder.register_port("host1-nic"), 1u);
  EXPECT_EQ(recorder.register_port("tor-port0"), 2u);
  EXPECT_EQ(recorder.port_count(), 3u);
  EXPECT_EQ(recorder.port_name(0), "host0-nic");
  EXPECT_EQ(recorder.port_name(2), "tor-port0");
  const std::vector<std::string> expected = {
      "s:port0:host0-nic", "s:port1:host1-nic", "s:port2:tor-port0"};
  EXPECT_EQ(log, expected);
}

// Regression test: a sink attached after ports were registered must still
// learn their names. The flight recorder and timeseries sink are wired in
// enable_telemetry after the experiment's constructor has already named
// every port, so add_sink replays the registry to late sinks.
TEST(RecorderTest, LateSinkReceivesPortReplay) {
  obs::Recorder recorder;
  EXPECT_EQ(recorder.register_port("host0-nic"), 0u);
  EXPECT_EQ(recorder.register_port("tor-port0"), 1u);

  std::vector<std::string> log;
  LogSink late("late", &log);
  recorder.add_sink(&late);
  const std::vector<std::string> expected = {"late:port0:host0-nic",
                                             "late:port1:tor-port0"};
  EXPECT_EQ(log, expected);

  // New registrations still arrive live, exactly once.
  recorder.register_port("tor-port1");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.back(), "late:port2:tor-port1");
}

// Golden-file test: the exact bytes the Chrome sink emits for the fixed
// lifecycle. Deliberately brittle — the trace format is an interchange
// format (chrome://tracing, Perfetto), so any change to it should be a
// conscious one that updates this expectation.
TEST(ChromeTraceSinkTest, GoldenLifecycleTrace) {
  std::ostringstream stream;
  obs::ChromeTraceSink sink(&stream);
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  replay_lifecycle(recorder);

  const std::vector<std::string> events = {
      R"({"ph":"M","name":"process_name","pid":10000,"tid":0,)"
      R"("args":{"name":"sw0-port0"}})",
      R"({"ph":"M","name":"process_name","pid":0,"tid":0,)"
      R"("args":{"name":"host 0"}})",
      R"({"ph":"i","name":"rpc_generated","cat":"rpc","s":"t","ts":1.500,)"
      R"("pid":0,"tid":0,"args":{"rpc_id":7,"dst":1,"bytes":1000}})",
      R"({"ph":"i","name":"downgrade","cat":"admission","s":"t","ts":2.000,)"
      R"("pid":0,"tid":0,"args":{"rpc_id":7,"dst":1,"qos_to":1,)"
      R"("p_admit":0.75}})",
      R"({"ph":"C","name":"qlen","cat":"net","ts":2.500,"pid":10000,)"
      R"("args":{"bytes":500,"packets":1}})",
      R"({"ph":"i","name":"packet_drop","cat":"net","s":"p","ts":3.000,)"
      R"("pid":10000,"tid":1,"args":{"bytes":500}})",
      R"({"ph":"C","name":"cwnd dst1 q1","cat":"transport","ts":4.000,)"
      R"("pid":0,"args":{"packets":8}})",
      R"({"ph":"X","name":"rpc","cat":"rpc","ts":5.000,"dur":4.000,)"
      R"("pid":0,"tid":1,"args":{"rpc_id":7,"dst":1,"bytes":1000,)"
      R"("qos_requested":0,"slo_met":false,"downgraded":true}})",
  };
  std::string expected = R"({"displayTimeUnit":"ms","traceEvents":[)";
  for (std::size_t i = 0; i < events.size(); ++i) {
    expected += (i == 0 ? "\n" : ",\n") + events[i];
  }
  expected += "\n]}\n";

  EXPECT_EQ(stream.str(), expected);
  EXPECT_EQ(sink.events_written(), events.size());
}

TEST(ChromeTraceSinkTest, FlushIsIdempotentAndStopsFurtherWrites) {
  std::ostringstream stream;
  obs::ChromeTraceSink sink(&stream);
  sink.flush(0.0);
  const std::string closed = stream.str();
  sink.flush(1.0);
  obs::RpcGenerated generated;
  sink.on_rpc_generated(generated);
  EXPECT_EQ(stream.str(), closed);
  EXPECT_EQ(sink.events_written(), 0u);
}

TEST(CsvSinkTest, GoldenLifecycleRows) {
  std::ostringstream stream;
  obs::CsvSink sink(&stream);
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  replay_lifecycle(recorder);

  const std::string expected =
      "time_us,event,host,peer,port,qos,rpc_id,bytes,value,detail\n"
      "1.500,rpc_generated,0,1,,0,7,1000,,\n"
      "2.000,admission,0,1,,1,7,,0.75,downgrade\n"
      "2.500,packet,,,0,1,,500,500,enqueue\n"
      "3.000,packet,,,0,1,,500,500,drop\n"
      "4.000,cwnd,0,1,,1,,,8,\n"
      "9.000,rpc_complete,0,1,,1,7,1000,4.000,slo_miss\n";
  EXPECT_EQ(stream.str(), expected);
  EXPECT_EQ(sink.rows_written(), 6u);
}

// --- experiment-level wiring ----------------------------------------------

runner::ExperimentConfig traced_config(net::SchedulerType scheduler,
                                       sim::SchedulerBackend backend) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.scheduler = scheduler;
  config.scheduler_backend = backend;
  config.buffer_bytes = 256 * 1024;  // small enough to exercise drops
  config.slo = rpc::SloConfig::make({15.0 / 8 * sim::kUsec, 0.0}, 99.9);
  config.audit = false;
  return config;
}

void attach_overload(runner::Experiment& experiment) {
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.6 * sim::gbps(100), sizes, 0.0},
                 {rpc::Priority::kBE, 0.5 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.add_generator(1, gen, workload::fixed_destination(2));
}

struct Outcome {
  std::uint64_t completed = 0;
  std::vector<double> p999;
  std::vector<double> share;
};

Outcome run_once(net::SchedulerType scheduler, sim::SchedulerBackend backend,
                 const std::string& trace_path) {
  auto config = traced_config(scheduler, backend);
  config.telemetry.trace = trace_path;  // empty = tracing off
  runner::Experiment experiment(config);
  EXPECT_EQ(experiment.tracing() != nullptr, !trace_path.empty());
  attach_overload(experiment);
  experiment.run(0.0, 3 * sim::kMsec);
  Outcome outcome;
  outcome.completed = experiment.metrics().total_completed();
  for (net::QoSLevel qos = 0; qos < 2; ++qos) {
    outcome.p999.push_back(experiment.metrics().rnl_by_run_qos(qos).p999());
    outcome.share.push_back(experiment.metrics().admitted_share(qos));
  }
  return outcome;
}

// The central promise of the API: attaching a recorder observes the run
// without perturbing it. Every discipline on both scheduler backends must
// produce bit-identical metrics with tracing on and off.
TEST(TracingIdentityTest, TracedRunIsBitIdenticalAcrossDisciplines) {
  const net::SchedulerType disciplines[] = {
      net::SchedulerType::kFifo, net::SchedulerType::kWfq,
      net::SchedulerType::kDwrr, net::SchedulerType::kSpq,
      net::SchedulerType::kPfabric};
  const sim::SchedulerBackend backends[] = {sim::SchedulerBackend::kHeap,
                                            sim::SchedulerBackend::kCalendar};
  int variant = 0;
  for (const auto scheduler : disciplines) {
    for (const auto backend : backends) {
      SCOPED_TRACE(variant);
      const std::string path = ::testing::TempDir() + "obs_identity_" +
                               std::to_string(variant++) + ".json";
      const Outcome untraced = run_once(scheduler, backend, "");
      const Outcome traced = run_once(scheduler, backend, path);
      EXPECT_GT(untraced.completed, 0u);
      EXPECT_EQ(untraced.completed, traced.completed);
      for (std::size_t qos = 0; qos < 2; ++qos) {
        // Bitwise equality, not near-equality: tracing must not reorder a
        // single event or perturb one RNG draw.
        EXPECT_EQ(untraced.p999[qos], traced.p999[qos]);
        EXPECT_EQ(untraced.share[qos], traced.share[qos]);
      }
      std::remove(path.c_str());
    }
  }
}

// End-to-end reconciliation: totals observed through the recorder (summed
// over the timeseries windows) must agree with what RpcMetrics accounted for
// the same run, and the emitted Chrome JSON must be a closed document.
TEST(TracingIdentityTest, TraceCountersReconcileWithMetrics) {
  const std::string path = ::testing::TempDir() + "obs_reconcile.json";
  auto config = traced_config(net::SchedulerType::kWfq,
                              sim::SchedulerBackend::kCalendar);
  runner::Experiment experiment(config);
  EXPECT_EQ(experiment.tracing(), nullptr);
  const std::string csv_path = ::testing::TempDir() + "obs_reconcile.csv";
  const std::string timeseries_path =
      ::testing::TempDir() + "obs_reconcile_timeseries.csv";
  runner::TelemetrySpec spec;
  spec.trace = path;
  spec.trace_csv = csv_path;
  spec.timeseries_csv = timeseries_path;
  experiment.enable_telemetry(spec);
  ASSERT_NE(experiment.tracing(), nullptr);
  ASSERT_NE(experiment.timeseries(), nullptr);
  obs::WindowStats totals;
  experiment.timeseries()->add_window_listener(
      [&totals](const obs::WindowStats& window) {
        totals.generated += window.generated;
        totals.admits += window.admits;
        totals.downgrades += window.downgrades;
        totals.admission_drops += window.admission_drops;
        totals.completed_total += window.completed_total;
        totals.terminated_total += window.terminated_total;
        totals.bytes_total += window.bytes_total;
        totals.packet_drops += window.packet_drops;
        if (totals.qos.size() < window.qos.size()) {
          totals.qos.resize(window.qos.size());
        }
        for (std::size_t q = 0; q < window.qos.size(); ++q) {
          totals.qos[q].slo_met += window.qos[q].slo_met;
        }
        if (totals.ports.size() < window.ports.size()) {
          totals.ports.resize(window.ports.size());
        }
        for (std::size_t p = 0; p < window.ports.size(); ++p) {
          totals.ports[p].enqueued += window.ports[p].enqueued;
          totals.ports[p].dequeued += window.ports[p].dequeued;
        }
        EXPECT_GE(window.p_admit_mean, 0.0);
        EXPECT_LE(window.p_admit_mean, 1.0);
      });
  attach_overload(experiment);
  experiment.run(0.0, 2 * sim::kMsec);

  const auto& metrics = experiment.metrics();
  // Every generated RPC got exactly one admission verdict.
  EXPECT_EQ(totals.generated,
            totals.admits + totals.downgrades + totals.admission_drops);
  // The overload outlives the capped drain window, so some RPCs are still
  // in flight at the end — but nothing completes that was never generated.
  EXPECT_GE(totals.generated,
            totals.completed_total + totals.terminated_total);
  // Completions are counted identically by the trace and by RpcMetrics.
  EXPECT_EQ(totals.completed_total, metrics.total_completed());
  std::uint64_t slo_met = 0, traced_slo_met = 0, downgraded = 0,
                delivered_downgraded = 0;
  for (net::QoSLevel qos = 0; qos < 2; ++qos) {
    slo_met += metrics.slo_met(qos);
    traced_slo_met += totals.qos[qos].slo_met;
    downgraded += metrics.downgraded(qos);
    delivered_downgraded += metrics.downgraded_delivered(qos);
  }
  EXPECT_EQ(traced_slo_met, slo_met);
  // Completed payload bytes agree exactly with the metrics' delivered-QoS
  // accounting; terminated bytes are kept apart and never pollute them.
  std::uint64_t bytes_completed = 0;
  for (net::QoSLevel qos = 0; qos < 2; ++qos) {
    bytes_completed += metrics.bytes_completed(qos);
  }
  EXPECT_EQ(totals.bytes_total, bytes_completed);
  EXPECT_GT(totals.bytes_total, 0u);
  // The trace counts downgrade *decisions*; metrics count downgraded RPCs
  // that completed. Decisions bound completions, and the two metrics views
  // (by requested vs by delivered QoS) must agree with each other exactly.
  EXPECT_GE(totals.downgrades, downgraded);
  EXPECT_EQ(downgraded, delivered_downgraded);
  EXPECT_GT(totals.downgrades, 0u);  // the workload overloads host 2
  // Per port: a drop event is a *rejected arrival* (no matching enqueue),
  // and dequeues never exceed enqueues — the residue is the backlog still
  // queued when the drain window closed.
  ASSERT_FALSE(totals.ports.empty());
  for (std::size_t p = 0; p < totals.ports.size(); ++p) {
    EXPECT_GE(totals.ports[p].enqueued, totals.ports[p].dequeued) << p;
  }
  EXPECT_GT(totals.packet_drops, 0u);  // 256KB buffers drop

  // The streamed JSON document is closed by the final flush.
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string trace = buffer.str();
  EXPECT_EQ(trace.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0), 0u);
  // Congestion-window updates reach the trace as counter tracks.
  EXPECT_NE(trace.find(R"("name":"cwnd dst)"), std::string::npos);
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.is_open());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header,
            "time_us,event,host,peer,port,qos,rpc_id,bytes,value,detail");
  std::remove(path.c_str());
  std::remove(csv_path.c_str());
  std::remove(timeseries_path.c_str());
}

TEST(TracingIdentityTest, TraceToTwiceDies) {
  auto config = traced_config(net::SchedulerType::kWfq,
                              sim::SchedulerBackend::kHeap);
  runner::Experiment experiment(config);
  runner::TelemetrySpec spec;
  spec.trace = ::testing::TempDir() + "obs_twice.json";
  experiment.enable_telemetry(spec);
  spec.trace = ::testing::TempDir() + "obs_twice_again.json";
  EXPECT_DEATH(experiment.enable_telemetry(spec), "already enabled");
}

}  // namespace
}  // namespace aeq
