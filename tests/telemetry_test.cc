// Tests for the windowed telemetry pipeline (src/obs/): TimeseriesSink
// window folding and golden CSV/JSON bytes, Watchdog rule/hysteresis
// behavior on synthetic windows, FlightRecorder ring wraparound and dump
// contents, the assert-failure dump hook, and experiment-level wiring —
// including the property the whole layer inherits from PR 4: full telemetry
// enabled leaves every simulation result bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/recorder.h"
#include "obs/timeseries_sink.h"
#include "obs/watchdog.h"
#include "runner/experiment.h"
#include "sim/assert.h"

namespace aeq {
namespace {

obs::TimeseriesConfig small_config() {
  obs::TimeseriesConfig config;
  config.window = 5 * sim::kUsec;
  config.num_qos = 2;
  return config;
}

// Replays one RPC lifecycle through a recorder: generated at 1.5us,
// downgraded, one enqueue + one drop on port 0, a cwnd move (all inside
// window 0) and the completion at 9us (window 1), then flush at 10us.
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

// Golden-file test: the exact bytes of the windowed CSV for the fixed
// lifecycle. Deliberately brittle — the timeline is consumed by
// tools/validate_trace.py and downstream plotting, so any schema change
// should be a conscious one that updates this expectation. Notable cells:
// the admission-plane aggregates live only in window 0 (where the decision
// happened), the completion's bytes are attributed to the *delivered*
// QoS 1 while the RPC-level stats stay with the *requested* QoS 0, the
// single-sample RNL percentiles coincide (4us, reported at the log-bucket
// upper edge 4.151us, within the histogram's 2%-wide bucket), and the idle
// port row is omitted from
// window 1.
TEST(TimeseriesGoldenTest, CsvBytes) {
  std::ostringstream csv;
  obs::TimeseriesSink sink(small_config(), &csv, nullptr);
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  replay_lifecycle(recorder);

  const std::string expected =
      std::string(obs::TimeseriesSink::csv_header()) + "\n" +
      "0.000,5.000,global,0,0,,,,,,0,,0.75,0.75,0,1,0,1,1,0,,\n"
      "0.000,5.000,qos0,0,0,0,1,0.000,0.000,0.000,0,0,,,,,,,,,,\n"
      "0.000,5.000,qos1,0,0,0,1,0.000,0.000,0.000,0,0,,,,,,,,,,\n"
      "0.000,5.000,port:sw0-port0,,,,,,,,,,,,,,,1,1,0,500,500\n"
      "5.000,10.000,global,1,0,,,,,,1000,,1,1,0,0,0,0,0,0,,\n"
      "5.000,10.000,qos0,1,0,0,0,4.151,4.151,4.151,0,0,,,,,,,,,,\n"
      "5.000,10.000,qos1,0,0,0,1,0.000,0.000,0.000,1000,1,,,,,,,,,,\n";
  EXPECT_EQ(csv.str(), expected);
  EXPECT_EQ(sink.windows_closed(), 2u);
}

TEST(TimeseriesGoldenTest, JsonBytes) {
  std::ostringstream json;
  obs::TimeseriesSink sink(small_config(), nullptr, &json);
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  replay_lifecycle(recorder);

  const std::string expected =
      "{\"window_width_us\":5,\"windows\":[\n"
      "{\"window_start_us\":0.000,\"window_end_us\":5.000,"
      "\"global\":{\"completed\":0,\"terminated\":0,\"generated\":1,"
      "\"bytes\":0,\"admits\":0,\"downgrades\":1,\"admission_drops\":0,"
      "\"p_admit_mean\":0.75,\"p_admit_min\":0.75,\"packet_drops\":1},"
      "\"qos\":["
      "{\"qos\":0,\"completed\":0,\"terminated\":0,\"slo_met\":0,"
      "\"slo_compliance\":1,\"rnl_p50_us\":0.000,\"rnl_p90_us\":0.000,"
      "\"rnl_p99_us\":0.000,\"bytes\":0,\"byte_share\":0},"
      "{\"qos\":1,\"completed\":0,\"terminated\":0,\"slo_met\":0,"
      "\"slo_compliance\":1,\"rnl_p50_us\":0.000,\"rnl_p90_us\":0.000,"
      "\"rnl_p99_us\":0.000,\"bytes\":0,\"byte_share\":0}],"
      "\"ports\":[{\"port\":\"sw0-port0\",\"enqueued\":1,\"dequeued\":0,"
      "\"drops\":1,\"qlen_max_bytes\":500,\"qlen_mean_bytes\":500}]},\n"
      "{\"window_start_us\":5.000,\"window_end_us\":10.000,"
      "\"global\":{\"completed\":1,\"terminated\":0,\"generated\":0,"
      "\"bytes\":1000,\"admits\":0,\"downgrades\":0,\"admission_drops\":0,"
      "\"p_admit_mean\":1,\"p_admit_min\":1,\"packet_drops\":0},"
      "\"qos\":["
      "{\"qos\":0,\"completed\":1,\"terminated\":0,\"slo_met\":0,"
      "\"slo_compliance\":0,\"rnl_p50_us\":4.151,\"rnl_p90_us\":4.151,"
      "\"rnl_p99_us\":4.151,\"bytes\":0,\"byte_share\":0},"
      "{\"qos\":1,\"completed\":0,\"terminated\":0,\"slo_met\":0,"
      "\"slo_compliance\":1,\"rnl_p50_us\":0.000,\"rnl_p90_us\":0.000,"
      "\"rnl_p99_us\":0.000,\"bytes\":1000,\"byte_share\":1}],"
      "\"ports\":[]}\n"
      "]}\n";
  EXPECT_EQ(json.str(), expected);
}

// Golden bytes for the controller-gauge rows (PR-10 satellite): with a
// gauge provider attached, every closed window grows one `gauge:<name>`
// CSV row per gauge (fleet mean / fleet min in the p_admit columns) and a
// JSON "gauges" array. The provider is sampled at window close, so the
// two windows can carry different values.
TEST(TimeseriesGoldenTest, GaugeRowsCsvAndJsonBytes) {
  std::ostringstream csv;
  std::ostringstream json;
  obs::TimeseriesSink sink(small_config(), &csv, &json);
  int samples = 0;
  sink.set_gauge_provider([&samples] {
    ++samples;
    std::vector<obs::WindowStats::GaugeStat> gauges;
    gauges.push_back({"fq_threshold", 0.5 * samples, 0.25 * samples});
    gauges.push_back({"p_admit", 1.0, 0.75});
    return gauges;
  });
  obs::Recorder recorder;
  recorder.add_sink(&sink);
  replay_lifecycle(recorder);

  ASSERT_EQ(samples, 2);  // one sample per closed window
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find(
                "0.000,5.000,gauge:fq_threshold,,,,,,,,,,0.5,0.25,,,,,,,,\n"),
            std::string::npos);
  EXPECT_NE(
      csv_text.find("0.000,5.000,gauge:p_admit,,,,,,,,,,1,0.75,,,,,,,,\n"),
      std::string::npos);
  EXPECT_NE(csv_text.find(
                "5.000,10.000,gauge:fq_threshold,,,,,,,,,,1,0.5,,,,,,,,\n"),
            std::string::npos);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find(
                "\"gauges\":[{\"name\":\"fq_threshold\",\"mean\":0.5,"
                "\"min\":0.25},{\"name\":\"p_admit\",\"mean\":1,"
                "\"min\":0.75}]"),
            std::string::npos);
  // Gauge rows ride after the port rows, inside the same window block.
  EXPECT_LT(csv_text.find("port:sw0-port0"),
            csv_text.find("gauge:fq_threshold"));
}

TEST(TimeseriesSinkTest, GaugeProviderTwiceDies) {
  obs::TimeseriesSink sink(small_config(), nullptr, nullptr);
  sink.set_gauge_provider(
      [] { return std::vector<obs::WindowStats::GaugeStat>{}; });
  EXPECT_DEATH(sink.set_gauge_provider(
                   [] { return std::vector<obs::WindowStats::GaugeStat>{}; }),
               "gauge provider already set");
}

TEST(TimeseriesSinkTest, AdvanceClosesEmptyWindowsAndFlushIsIdempotent) {
  obs::TimeseriesSink sink(small_config(), nullptr, nullptr);
  sink.advance_to(17 * sim::kUsec);  // windows [0,5) [5,10) [10,15) close
  EXPECT_EQ(sink.windows_closed(), 3u);
  for (const auto& window : sink.recent()) {
    EXPECT_EQ(window.events, 0u);
    EXPECT_DOUBLE_EQ(window.qos[0].slo_compliance, 1.0);
  }
  sink.flush(17 * sim::kUsec);  // empty partial window is not emitted
  EXPECT_EQ(sink.windows_closed(), 3u);
  sink.flush(25 * sim::kUsec);  // finalized: no further windows
  EXPECT_EQ(sink.windows_closed(), 3u);
}

TEST(TimeseriesSinkTest, RecentRingIsBoundedAndRendersStandaloneCsv) {
  const auto config = small_config();
  constexpr std::size_t kCapacity = obs::TimeseriesSink::kRecentCapacity;
  obs::TimeseriesSink sink(config, nullptr, nullptr);
  sink.advance_to(static_cast<double>(kCapacity + 6) * config.window +
                  config.window / 2);
  EXPECT_EQ(sink.windows_closed(), kCapacity + 6);
  ASSERT_EQ(sink.recent().size(), kCapacity);
  EXPECT_EQ(sink.recent().front().index, 6u);
  EXPECT_EQ(sink.recent().back().index, kCapacity + 5);

  std::ostringstream out;
  sink.write_recent_csv(out);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind(obs::TimeseriesSink::csv_header(), 0), 0u);
  EXPECT_NE(text.find("\n30.000,35.000,global,"), std::string::npos);
  EXPECT_EQ(text.find("\n25.000,30.000,global,"), std::string::npos);
}

TEST(TimeseriesSinkTest, WindowListenersRunAtCloseInOrder) {
  obs::TimeseriesSink sink(small_config(), nullptr, nullptr);
  std::vector<std::string> log;
  sink.add_window_listener([&log](const obs::WindowStats& window) {
    std::string entry = "a";
    entry += std::to_string(window.index);
    log.push_back(entry);
  });
  sink.add_window_listener([&log](const obs::WindowStats& window) {
    std::string entry = "b";
    entry += std::to_string(window.index);
    log.push_back(entry);
  });
  sink.advance_to(11 * sim::kUsec);
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
}

// --- watchdog rules on synthetic windows ----------------------------------

obs::WindowStats make_window(std::uint64_t index) {
  obs::WindowStats window;
  window.index = index;
  window.start = static_cast<double>(index) * 100 * sim::kUsec;
  window.end = window.start + 100 * sim::kUsec;
  window.qos.resize(2);
  window.qos[0].completed = 100;
  window.qos[0].slo_met = 100;
  window.qos[0].slo_compliance = 1.0;
  window.qos[1].slo_compliance = 1.0;
  window.ports.resize(1);
  window.events = 50;
  return window;
}

obs::WatchdogConfig strict_config() {
  obs::WatchdogConfig config;
  config.compliance_target = {0.9, 0.0};  // qos1: no alarm
  config.p_admit_floor = 0.05;
  config.saturation_qlen_bytes = 1000;
  return config;
}

TEST(WatchdogTest, ComplianceFiresAtKConsecutiveAndLatches) {
  obs::Watchdog watchdog(strict_config());
  int fired = 0;
  watchdog.add_callback([&fired](const obs::Anomaly&) { ++fired; });

  for (std::uint64_t i = 0; i < 10; ++i) {
    auto window = make_window(i);
    window.qos[0].slo_met = 40;
    window.qos[0].slo_compliance = 0.4;
    watchdog.on_window(window);
  }
  // Fires exactly once at the third bad window, then stays latched through
  // the sustained violation.
  EXPECT_EQ(fired, 1);
  ASSERT_EQ(watchdog.anomalies().size(), 1u);
  const obs::Anomaly& anomaly = watchdog.anomalies()[0];
  EXPECT_EQ(anomaly.kind, obs::Anomaly::Kind::kSloCompliance);
  EXPECT_EQ(anomaly.window, 2u);
  EXPECT_EQ(anomaly.qos, 0);
  EXPECT_DOUBLE_EQ(anomaly.value, 0.4);
  EXPECT_DOUBLE_EQ(anomaly.threshold, 0.9);
  EXPECT_EQ(anomaly.consecutive, 3u);
  EXPECT_EQ(obs::describe(anomaly),
            "t_us=300.000 window=2 kind=slo_compliance qos=0 value=0.4 "
            "threshold=0.9 consecutive=3");

  // One healthy window re-arms; K more bad windows fire again.
  watchdog.on_window(make_window(10));
  for (std::uint64_t i = 11; i < 14; ++i) {
    auto window = make_window(i);
    window.qos[0].slo_compliance = 0.4;
    watchdog.on_window(window);
  }
  EXPECT_EQ(fired, 2);
}

TEST(WatchdogTest, ShortStreaksAndThinWindowsStaySilent) {
  obs::Watchdog watchdog(strict_config());

  // Two bad windows, one good, two bad, ... never reaches K=3.
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto window = make_window(i);
    if (i % 3 != 2) window.qos[0].slo_compliance = 0.1;
    watchdog.on_window(window);
  }
  EXPECT_TRUE(watchdog.anomalies().empty());

  // Windows below the completion floor carry no statistical weight: three
  // awful-but-thin windows don't fire.
  for (std::uint64_t i = 12; i < 16; ++i) {
    auto window = make_window(i);
    window.qos[0].completed = 3;
    window.qos[0].slo_met = 0;
    window.qos[0].slo_compliance = 0.0;
    watchdog.on_window(window);
  }
  EXPECT_TRUE(watchdog.anomalies().empty());
  EXPECT_EQ(watchdog.windows_seen(), 16u);
}

TEST(WatchdogTest, QuietPeriodSuppressesEveryRule) {
  auto config = strict_config();
  config.quiet_until = 350 * sim::kUsec;  // windows 0..2 end inside it
  obs::Watchdog watchdog(config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto window = make_window(i);
    window.qos[0].slo_compliance = 0.0;
    window.qos[0].slo_met = 0;
    watchdog.on_window(window);
  }
  // Windows 3 and 4 are the only ones past the quiet period: streak 2 < 3.
  EXPECT_TRUE(watchdog.anomalies().empty());
  auto window = make_window(5);
  window.qos[0].slo_compliance = 0.0;
  window.qos[0].slo_met = 0;
  watchdog.on_window(window);
  EXPECT_EQ(watchdog.anomalies().size(), 1u);
}

TEST(WatchdogTest, PAdmitCollapseWatchesWorstChannel) {
  obs::Watchdog watchdog(strict_config());
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto window = make_window(i);
    window.admits = 10;
    window.p_admit_mean = 0.8;  // healthy on average...
    window.p_admit_min = 0.01;  // ...but one channel is collapsed
    watchdog.on_window(window);
  }
  ASSERT_EQ(watchdog.anomalies().size(), 1u);
  EXPECT_EQ(watchdog.anomalies()[0].kind,
            obs::Anomaly::Kind::kPAdmitCollapse);
  EXPECT_EQ(watchdog.anomalies()[0].window, 1u);  // fires at K=2

  // Windows with no admission decisions don't advance the streak.
  obs::Watchdog idle_watchdog(strict_config());
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto window = make_window(i);
    window.p_admit_min = 0.01;  // stale default, no decisions this window
    idle_watchdog.on_window(window);
  }
  EXPECT_TRUE(idle_watchdog.anomalies().empty());
}

TEST(WatchdogTest, PortSaturationIsPerPort) {
  obs::Watchdog watchdog(strict_config());
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto window = make_window(i);
    window.ports.resize(3);
    window.ports[2].qlen_max_bytes = 5000;  // > 1000-byte limit
    watchdog.on_window(window);
  }
  ASSERT_EQ(watchdog.anomalies().size(), 1u);
  EXPECT_EQ(watchdog.anomalies()[0].kind,
            obs::Anomaly::Kind::kPortSaturation);
  EXPECT_EQ(watchdog.anomalies()[0].port, 2);
  EXPECT_DOUBLE_EQ(watchdog.anomalies()[0].value, 5000.0);
}

TEST(WatchdogTest, StallNeedsOutstandingWorkAndRespectsHorizon) {
  obs::Watchdog watchdog(strict_config());
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto window = make_window(i);
    window.events = 0;  // quiet, but nothing outstanding: idle, not stalled
    watchdog.on_window(window);
  }
  EXPECT_TRUE(watchdog.anomalies().empty());

  for (std::uint64_t i = 4; i < 6; ++i) {
    auto window = make_window(i);
    window.events = 0;
    window.cum_generated = 100;
    window.cum_finished = 80;
    watchdog.on_window(window);
  }
  ASSERT_EQ(watchdog.anomalies().size(), 1u);
  EXPECT_EQ(watchdog.anomalies()[0].kind, obs::Anomaly::Kind::kStall);
  EXPECT_DOUBLE_EQ(watchdog.anomalies()[0].value, 20.0);

  // Past the stall horizon (the drain), quiescence with residue is normal.
  auto config = strict_config();
  config.stall_horizon = 400 * sim::kUsec;
  obs::Watchdog drained(config);
  for (std::uint64_t i = 4; i < 10; ++i) {  // windows end at 500us+
    auto window = make_window(i);
    window.events = 0;
    window.cum_generated = 100;
    window.cum_finished = 80;
    drained.on_window(window);
  }
  EXPECT_TRUE(drained.anomalies().empty());
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingRetainsOnlyTheLastNPerCategory) {
  constexpr std::uint64_t kCapacity = obs::FlightRecorder::kCapacity;
  obs::FlightRecorder flight;
  for (std::uint64_t i = 0; i < kCapacity + 6; ++i) {
    obs::RpcGenerated generated;
    generated.t = static_cast<double>(i) * sim::kUsec;
    generated.rpc_id = i;
    generated.src = 0;
    generated.dst = 1;
    flight.on_rpc_generated(generated);
  }
  EXPECT_EQ(flight.events_seen(), kCapacity + 6);
  EXPECT_EQ(flight.events_retained(), kCapacity);

  std::ostringstream out;
  flight.dump(out);
  const std::string dump = out.str();
  EXPECT_EQ(flight.dumps(), 1u);
  // Wraparound kept exactly rpc ids 6..kCapacity+5.
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(dump.find("\"rpc_id\":" + std::to_string(i) + ","),
              std::string::npos);
  }
  for (std::uint64_t i = 6; i < kCapacity + 6; ++i) {
    EXPECT_NE(dump.find("\"rpc_id\":" + std::to_string(i) + ","),
              std::string::npos);
  }
}

TEST(FlightRecorderTest, DumpMergesCategoriesNamesPortsAndMarksAnomaly) {
  obs::FlightRecorder flight;
  obs::Recorder recorder;
  recorder.add_sink(&flight);
  replay_lifecycle(recorder);

  obs::Anomaly anomaly;
  anomaly.kind = obs::Anomaly::Kind::kSloCompliance;
  anomaly.t = 10 * sim::kUsec;
  anomaly.window = 1;
  anomaly.qos = 0;
  anomaly.value = 0.0;
  anomaly.threshold = 0.9;
  anomaly.consecutive = 3;

  std::ostringstream out;
  flight.dump(out, &anomaly);
  const std::string dump = out.str();
  // A closed Chrome-trace document with the registered port named, every
  // retained category present, in time order, and the anomaly marked.
  EXPECT_EQ(dump.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0), 0u);
  EXPECT_EQ(dump.substr(dump.size() - 4), "\n]}\n");
  EXPECT_NE(dump.find(R"("name":"sw0-port0")"), std::string::npos);
  EXPECT_NE(dump.find(R"("name":"rpc_generated")"), std::string::npos);
  EXPECT_NE(dump.find(R"("name":"downgrade")"), std::string::npos);
  EXPECT_NE(dump.find(R"("name":"packet_drop")"), std::string::npos);
  EXPECT_NE(dump.find(R"("name":"qlen")"), std::string::npos);
  EXPECT_NE(dump.find(R"("cat":"anomaly")"), std::string::npos);
  EXPECT_NE(dump.find("kind=slo_compliance qos=0"), std::string::npos);
  EXPECT_LT(dump.find(R"("name":"rpc_generated")"),
            dump.find(R"("cat":"transport")"));
}

// --- assert-failure hook ---------------------------------------------------

TEST(FailureSinkTest, InvokeRunsHookOnceAndClearsIt) {
  int calls = 0;
  detail::g_failure_sink = +[](void* arg) {
    ++*static_cast<int*>(arg);
  };
  detail::g_failure_sink_arg = &calls;
  detail::invoke_failure_sink();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(detail::g_failure_sink, nullptr);
  detail::invoke_failure_sink();  // cleared: second invoke is a no-op
  EXPECT_EQ(calls, 1);
}

TEST(FailureSinkDeathTest, HookRunsBeforeAbort) {
  EXPECT_DEATH(
      {
        detail::g_failure_sink = +[](void*) {
          std::fprintf(stderr, "FLIGHT-DUMP-HOOK-RAN\n");
        };
        AEQ_ASSERT(false);
      },
      "FLIGHT-DUMP-HOOK-RAN");
}

// --- experiment-level wiring ----------------------------------------------

runner::ExperimentConfig wired_config(sim::SchedulerBackend backend) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.scheduler = net::SchedulerType::kWfq;
  config.scheduler_backend = backend;
  config.buffer_bytes = 256 * 1024;
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

runner::TelemetrySpec full_spec(const std::string& stem) {
  runner::TelemetrySpec spec;
  spec.timeseries_csv = stem + ".ts.csv";
  spec.timeseries_json = stem + ".ts.json";
  spec.timeseries_width = 100 * sim::kUsec;
  spec.watchdog = true;
  spec.watchdog_log = stem + ".watchdog.log";
  spec.flight_recorder = stem + ".flight.json";
  return spec;
}

void remove_outputs(const std::string& stem) {
  for (const char* suffix :
       {".ts.csv", ".ts.json", ".watchdog.log", ".flight.json",
        ".flight.json.timeseries.csv"}) {
    std::remove((stem + suffix).c_str());
  }
}

struct Outcome {
  std::uint64_t completed = 0;
  std::vector<double> p999;
  std::vector<double> share;
};

Outcome run_once(sim::SchedulerBackend backend, const std::string& stem) {
  runner::Experiment experiment(wired_config(backend));
  if (!stem.empty()) experiment.enable_telemetry(full_spec(stem));
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

// The PR-4 guarantee extended to the windowed pipeline: timeseries +
// watchdog + flight recorder all enabled must leave every simulation
// result bit-identical, on both scheduler backends.
TEST(TelemetryWiringTest, FullTelemetryIsBitIdentical) {
  for (const auto backend : {sim::SchedulerBackend::kHeap,
                             sim::SchedulerBackend::kCalendar}) {
    SCOPED_TRACE(sim::backend_name(backend));
    const std::string stem = ::testing::TempDir() + "telemetry_identity_" +
                             sim::backend_name(backend);
    const Outcome bare = run_once(backend, "");
    const Outcome full = run_once(backend, stem);
    EXPECT_GT(bare.completed, 0u);
    EXPECT_EQ(bare.completed, full.completed);
    for (std::size_t qos = 0; qos < 2; ++qos) {
      EXPECT_EQ(bare.p999[qos], full.p999[qos]);
      EXPECT_EQ(bare.share[qos], full.share[qos]);
    }
    remove_outputs(stem);
  }
}

TEST(TelemetryWiringTest, WatchdogFiresOnOverloadAndFlightDumps) {
  const std::string stem = ::testing::TempDir() + "telemetry_overload";
  runner::Experiment experiment(wired_config(sim::SchedulerBackend::kCalendar));
  experiment.enable_telemetry(full_spec(stem));
  ASSERT_NE(experiment.tracing(), nullptr);
  ASSERT_NE(experiment.timeseries(), nullptr);
  ASSERT_NE(experiment.watchdog(), nullptr);
  ASSERT_NE(experiment.flight_recorder(), nullptr);
  attach_overload(experiment);
  experiment.run(0.0, 3 * sim::kMsec);

  // The 110%-load workload against a 15us SLO must trip the compliance
  // rule; the first anomaly dumps the flight recorder.
  ASSERT_FALSE(experiment.watchdog()->anomalies().empty());
  EXPECT_GT(experiment.timeseries()->windows_closed(), 10u);
  EXPECT_GT(experiment.flight_recorder()->dumps(), 0u);

  std::ifstream flight(stem + ".flight.json");
  ASSERT_TRUE(flight.is_open());
  std::stringstream buffer;
  buffer << flight.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_EQ(dump.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0), 0u);
  EXPECT_EQ(dump.substr(dump.size() - 4), "\n]}\n");
  EXPECT_NE(dump.find(R"("cat":"anomaly")"), std::string::npos);

  std::ifstream sidecar(stem + ".flight.json.timeseries.csv");
  ASSERT_TRUE(sidecar.is_open());
  std::string header;
  std::getline(sidecar, header);
  EXPECT_EQ(header, obs::TimeseriesSink::csv_header());

  std::ifstream log(stem + ".watchdog.log");
  ASSERT_TRUE(log.is_open());
  std::string line;
  std::getline(log, line);
  EXPECT_NE(line.find("[watchdog] "), std::string::npos);
  EXPECT_NE(line.find("kind="), std::string::npos);
  remove_outputs(stem);
}

TEST(TelemetryWiringTest, CalmRunStaysSilent) {
  const std::string stem = ::testing::TempDir() + "telemetry_calm";
  runner::Experiment experiment(wired_config(sim::SchedulerBackend::kCalendar));
  experiment.enable_telemetry(full_spec(stem));
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.05 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.run(0.0, 3 * sim::kMsec);

  EXPECT_TRUE(experiment.watchdog()->anomalies().empty());
  EXPECT_EQ(experiment.flight_recorder()->dumps(), 0u);
  EXPECT_GT(experiment.timeseries()->windows_closed(), 10u);
  remove_outputs(stem);
}

TEST(TelemetryWiringTest, EnableTelemetryTwiceDies) {
  runner::Experiment experiment(wired_config(sim::SchedulerBackend::kHeap));
  experiment.enable_telemetry(full_spec(::testing::TempDir() + "tel_twice"));
  EXPECT_DEATH(experiment.enable_telemetry(
                   full_spec(::testing::TempDir() + "tel_twice2")),
               "already enabled");
  remove_outputs(::testing::TempDir() + "tel_twice");
}

// An audit/assert failure mid-run dumps the flight recorder before the
// abort: the child process dies on the failed check, and the dump it left
// behind is a closed, loadable trace.
TEST(TelemetryWiringDeathTest, AssertFailureLeavesFlightDump) {
  const std::string stem = ::testing::TempDir() + "telemetry_crash";
  remove_outputs(stem);
  EXPECT_DEATH(
      {
        runner::Experiment experiment(
            wired_config(sim::SchedulerBackend::kCalendar));
        experiment.enable_telemetry(full_spec(stem));
        attach_overload(experiment);
        experiment.run(0.0, 500 * sim::kUsec);
        AEQ_CHECK_EQ_MSG(1, 2, "injected invariant failure");
      },
      "injected invariant failure");

  std::ifstream flight(stem + ".flight.json");
  ASSERT_TRUE(flight.is_open());
  std::stringstream buffer;
  buffer << flight.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_EQ(dump.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0), 0u);
  EXPECT_EQ(dump.substr(dump.size() - 4), "\n]}\n");
  std::ifstream sidecar(stem + ".flight.json.timeseries.csv");
  EXPECT_TRUE(sidecar.is_open());
  remove_outputs(stem);
}

}  // namespace
}  // namespace aeq
