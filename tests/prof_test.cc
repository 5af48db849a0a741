// Tests for the execution profiler (src/obs/prof/, DESIGN.md §14):
// Collector region-stack semantics, deterministic tree sampling, the
// observe-only contract (profiled runs are result- and schedule-digest-
// identical to unprofiled runs on both scheduler backends at 1/2/4
// shards), and the --prof report outputs (JSON schema, Chrome tracks,
// text summary).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/prof/profiler.h"
#include "obs/prof/report.h"
#include "rpc/slo.h"
#include "runner/experiment.h"
#include "sim/digest.h"
#include "sim/units.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace {

using namespace aeq;
using obs::prof::Collector;
using obs::prof::ProfRegion;
using obs::prof::Region;

// --- Collector semantics ---------------------------------------------------

// Period 1 = exact mode: every tree is timed, counts are raw, scale is 1.
TEST(ProfCollectorTest, NestedRegionsAttributeSelfAndTotal) {
  Collector collector(1);
  collector.enter(Region::kDispatch);
  collector.enter(Region::kQueueWfq);
  collector.exit(Region::kQueueWfq);
  collector.exit(Region::kDispatch);

  const auto& dispatch = collector.stats(Region::kDispatch);
  const auto& wfq = collector.stats(Region::kQueueWfq);
  EXPECT_EQ(dispatch.count, 1u);
  EXPECT_EQ(wfq.count, 1u);
  // The child's inclusive time is subtracted from the parent's self time.
  EXPECT_LE(dispatch.self_cycles, dispatch.total_cycles);
  EXPECT_GE(dispatch.total_cycles, wfq.total_cycles);
  EXPECT_EQ(wfq.self_cycles, wfq.total_cycles);  // leaf: no children
  EXPECT_EQ(collector.depth(), 0u);
  EXPECT_DOUBLE_EQ(collector.sample_scale(), 1.0);
}

TEST(ProfCollectorTest, HistogramCountsMatchRegionCount) {
  Collector collector(1);
  for (int i = 0; i < 10; ++i) {
    collector.enter(Region::kPortTx);
    collector.exit(Region::kPortTx);
  }
  const auto& stats = collector.stats(Region::kPortTx);
  EXPECT_EQ(stats.count, 10u);
  std::uint64_t hist_sum = 0;
  for (std::size_t b = 0; b < obs::prof::kHistBuckets; ++b) {
    hist_sum += stats.hist[b];
  }
  EXPECT_EQ(hist_sum, 10u);
}

// The countdown starts at 1, so the first tree is always sampled; after
// that every period-th tree is. Deterministic — no clocks involved.
TEST(ProfCollectorTest, SampleRootCountdownIsDeterministic) {
  Collector collector(2);
  std::vector<bool> sampled;
  for (int i = 0; i < 5; ++i) sampled.push_back(collector.sample_root());
  EXPECT_EQ(sampled, (std::vector<bool>{true, false, true, false, true}));
  EXPECT_EQ(collector.roots_entered(), 5u);
  EXPECT_EQ(collector.roots_sampled(), 3u);
  EXPECT_DOUBLE_EQ(collector.sample_scale(), 5.0 / 3.0);
}

TEST(ProfCollectorTest, ResetClearsStatsAndCounters) {
  Collector collector(4);
  collector.sample_root();
  collector.enter(Region::kAudit);
  collector.exit(Region::kAudit);
  collector.reset();
  EXPECT_EQ(collector.roots_entered(), 0u);
  EXPECT_EQ(collector.roots_sampled(), 0u);
  EXPECT_EQ(collector.stats(Region::kAudit).count, 0u);
  // After reset the next tree is sampled again (countdown restarts at 1).
  EXPECT_TRUE(collector.sample_root());
}

// --- ProfRegion + thread-local install -------------------------------------

TEST(ProfRegionTest, NoOpWithoutInstalledCollector) {
  ASSERT_EQ(obs::prof::current(), nullptr);
  {
    ProfRegion root(Region::kDispatch);
    ProfRegion child(Region::kQueueFifo);
  }
  // Nothing to observe — the point is that this neither crashed nor
  // required a collector.
  EXPECT_EQ(obs::prof::current(), nullptr);
}

TEST(ProfRegionTest, TreeSamplingTimesEveryPeriodthTree) {
  Collector collector(2);
  obs::prof::install(&collector);
  for (int i = 0; i < 4; ++i) {
    ProfRegion root(Region::kDispatch);
    ProfRegion child(Region::kQueueFifo);
  }
  obs::prof::install(nullptr);

  // Trees 0 and 2 are timed (countdown starts at 1, period 2); trees 1
  // and 3 are skipped entirely — including their nested regions.
  EXPECT_EQ(collector.roots_entered(), 4u);
  EXPECT_EQ(collector.roots_sampled(), 2u);
  EXPECT_EQ(collector.stats(Region::kDispatch).count, 2u);
  EXPECT_EQ(collector.stats(Region::kQueueFifo).count, 2u);
  EXPECT_DOUBLE_EQ(collector.sample_scale(), 2.0);
}

TEST(ProfRegionTest, InstallResetsTreeStateAndCurrentReflectsCollector) {
  Collector collector(1);
  obs::prof::install(&collector);
  EXPECT_EQ(obs::prof::current(), &collector);
  {
    ProfRegion root(Region::kAudit);
  }
  obs::prof::install(nullptr);
  EXPECT_EQ(obs::prof::current(), nullptr);
  EXPECT_EQ(collector.stats(Region::kAudit).count, 1u);
}

TEST(ProfCollectorDeathTest, ExitWithoutEnterAborts) {
  Collector collector(1);
  EXPECT_DEATH(collector.exit(Region::kDispatch),
               "profiler region stack underflow");
}

TEST(ProfCollectorDeathTest, MismatchedExitAborts) {
  Collector collector(1);
  collector.enter(Region::kDispatch);
  EXPECT_DEATH(collector.exit(Region::kQueueWfq),
               "mismatched profiler region exit");
}

TEST(ProfCollectorDeathTest, StackOverflowAborts) {
  Collector collector(1);
  EXPECT_DEATH(
      {
        for (std::size_t i = 0; i <= obs::prof::kMaxDepth; ++i) {
          collector.enter(Region::kDispatch);
        }
      },
      "profiler region stack overflow");
}

// --- attributed_self_cycles -------------------------------------------------

TEST(ProfCollectorTest, AttributedSelfCyclesSumsRegions) {
  Collector collector(1);
  collector.enter(Region::kDispatch);
  collector.enter(Region::kQueueWfq);
  collector.exit(Region::kQueueWfq);
  collector.exit(Region::kDispatch);
  const obs::prof::Cycles expected =
      collector.stats(Region::kDispatch).self_cycles +
      collector.stats(Region::kQueueWfq).self_cycles;
  EXPECT_EQ(obs::prof::attributed_self_cycles(collector), expected);
}

// --- observe-only contract (experiment level) -------------------------------

struct RunResult {
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::vector<double> p999;
};

runner::ExperimentConfig workload_config(sim::SchedulerBackend backend,
                                         std::size_t shards) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.num_hosts = 8;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
  config.shards = shards;
  config.audit = true;
  config.schedule_digest = true;
  config.seed = 42;
  return config;
}

RunResult run_config(const runner::ExperimentConfig& config,
                     const std::string& prof_path) {
  runner::Experiment experiment(config);
  if (!prof_path.empty()) experiment.enable_profiling(prof_path);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kNC, 0.4 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  // Silence the end-of-run [prof] summary: it goes to stderr by contract,
  // so the test only needs to not care about it.
  experiment.run(0.1 * sim::kMsec, 0.5 * sim::kMsec, 0.2 * sim::kMsec);

  RunResult result;
  result.completed = experiment.metrics().total_completed();
  result.events = experiment.events_processed();
  result.digest = experiment.schedule_digest().canonical();
  for (net::QoSLevel qos = 0; qos < 3; ++qos) {
    result.p999.push_back(experiment.metrics().rnl_by_run_qos(qos).p999());
  }
  return result;
}

RunResult run_workload(sim::SchedulerBackend backend, std::size_t shards,
                       const std::string& prof_path) {
  return run_config(workload_config(backend, shards), prof_path);
}

void remove_prof_outputs(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".trace.json").c_str());
}

// The tentpole guarantee: enabling --prof changes no simulation result and
// no schedule, on either scheduler backend, serial or sharded.
TEST(ProfIdentityTest, ProfiledRunIsResultAndDigestIdentical) {
  for (const auto backend : {sim::SchedulerBackend::kHeap,
                             sim::SchedulerBackend::kCalendar}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      if (shards > 1 && backend == sim::SchedulerBackend::kHeap) continue;
      SCOPED_TRACE(std::string(sim::backend_name(backend)) + " x" +
                   std::to_string(shards));
      const std::string prof_path = ::testing::TempDir() + "prof_identity_" +
                                    sim::backend_name(backend) + "_" +
                                    std::to_string(shards) + ".json";
      const RunResult bare = run_workload(backend, shards, "");
      const RunResult profiled = run_workload(backend, shards, prof_path);
      ASSERT_GT(bare.completed, 0u);
      EXPECT_EQ(bare.completed, profiled.completed);
      EXPECT_EQ(bare.events, profiled.events);
      EXPECT_EQ(bare.digest, profiled.digest);
      for (std::size_t qos = 0; qos < bare.p999.size(); ++qos) {
        EXPECT_EQ(bare.p999[qos], profiled.p999[qos]);
      }
      remove_prof_outputs(prof_path);
    }
  }
}

// The digest must also agree across shard counts (the conservative-PDES
// contract) while profiled — sampling is per-thread, so this would catch a
// collector perturbing the barrier protocol.
TEST(ProfIdentityTest, ProfiledDigestAgreesAcrossShardCounts) {
  const std::string base = ::testing::TempDir() + "prof_shards_";
  const RunResult serial =
      run_workload(sim::SchedulerBackend::kCalendar, 1, base + "1.json");
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const RunResult sharded = run_workload(
        sim::SchedulerBackend::kCalendar, shards,
        base + std::to_string(shards) + ".json");
    EXPECT_EQ(sharded.digest, serial.digest) << shards << " shards";
    EXPECT_EQ(sharded.events, serial.events) << shards << " shards";
    remove_prof_outputs(base + std::to_string(shards) + ".json");
  }
  remove_prof_outputs(base + "1.json");
}

// --- report outputs ---------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The number after the first `key` that follows `anchor` in a report.
double number_after(const std::string& json, const std::string& anchor,
                    const std::string& key) {
  const std::size_t at = json.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  const std::size_t value = json.find(key, at);
  EXPECT_NE(value, std::string::npos) << anchor << " " << key;
  if (at == std::string::npos || value == std::string::npos) return 0.0;
  return std::stod(json.substr(value + key.size()));
}

TEST(ProfReportTest, SerialJsonReportHasSchemaAndSerialThread) {
  const std::string path = ::testing::TempDir() + "prof_serial_report.json";
  run_workload(sim::SchedulerBackend::kCalendar, 1, path);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\":\"aeq-prof-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"serial\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_period\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine/dispatch\""), std::string::npos);
  EXPECT_EQ(json.find("\"executive\""), std::string::npos);
  // The Chrome flame tracks ride along and use the merged framing.
  const std::string trace = slurp(path + ".trace.json");
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(trace.find("prof:serial"), std::string::npos);
  remove_prof_outputs(path);
}

TEST(ProfReportTest, ShardedJsonReportHasExecutiveAndShardThreads) {
  const std::string path = ::testing::TempDir() + "prof_sharded_report.json";
  run_workload(sim::SchedulerBackend::kCalendar, 4, path);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"num_shards\":4"), std::string::npos);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NE(json.find("\"label\":\"shard" + std::to_string(k) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"label\":\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"executive\":{\"windows\":"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_stall_share\":"), std::string::npos);
  EXPECT_NE(json.find("\"load_imbalance\":"), std::string::npos);
  EXPECT_NE(json.find("\"mailbox_depth_hwm\":"), std::string::npos);
  // The coordinator thread runs shard 0's windows, and those cycles are
  // shard0's: the two busy envelopes together fit in the run's wall
  // envelope instead of counting shard 0 twice (the slack covers the
  // 6-digit printing of elapsed_seconds and cycles_per_second).
  const double envelope =
      number_after(json, "{", "\"elapsed_seconds\":") *
      number_after(json, "{", "\"cycles_per_second\":");
  const double shard0 =
      number_after(json, "\"label\":\"shard0\"", "\"busy_cycles\":");
  const double coordinator =
      number_after(json, "\"label\":\"coordinator\"", "\"busy_cycles\":");
  EXPECT_GT(shard0, 0.0);
  EXPECT_LE(shard0 + coordinator, envelope * (1.0 + 1e-4));
  // The coordinator's serial time between windows is measured, and it is
  // part of the coordinator's own envelope.
  const double serial =
      number_after(json, "\"executive\"", "\"barrier_cycles\":");
  EXPECT_GT(serial, 0.0);
  EXPECT_LE(serial, coordinator);
  remove_prof_outputs(path);
}

// The Fig 22 baselines send and receive through protocols::BaseTransport,
// which books that work under the same transport regions as the Swift
// stack; without them it would show up as engine/dispatch self time.
TEST(ProfReportTest, BaselineTransportBooksTransportRegions) {
  runner::ExperimentConfig config =
      workload_config(sim::SchedulerBackend::kCalendar, 1);
  config.cc_kind = runner::ExperimentConfig::CcKind::kPfabric;
  config.scheduler = net::SchedulerType::kPfabric;
  config.buffer_bytes = 160 * 1024;  // ~2.5 BDP, as Figure 22 runs it
  config.admission.kind = policy::kAlwaysAdmit;
  const std::string path = ::testing::TempDir() + "prof_baseline_report.json";
  ASSERT_GT(run_config(config, path).completed, 0u);
  const std::string json = slurp(path);
  for (const std::string region : {"transport/tx", "transport/rx"}) {
    EXPECT_GT(number_after(json, "\"name\":\"" + region + "\"",
                           "\"calls\":"),
              0.0)
        << region;
  }
  remove_prof_outputs(path);
}

TEST(ProfReportTest, TextSummaryScalesCallsAndNamesSampling) {
  // Build a report by hand so the summary's numbers are predictable.
  obs::prof::Report report;
  report.events_processed = 1000;
  report.elapsed_seconds = 1.0;
  report.cycles_per_second = 1e9;
  obs::prof::ThreadProfile thread;
  thread.label = "serial";
  thread.events = 1000;
  thread.busy_cycles = 1000000;
  // Period-2 collector: 4 trees entered, 2 timed — scaled calls double.
  thread.collector = Collector(2);
  obs::prof::install(&thread.collector);
  for (int i = 0; i < 4; ++i) {
    ProfRegion root(Region::kDispatch);
  }
  obs::prof::install(nullptr);
  report.denominator_cycles = thread.busy_cycles;
  report.threads.push_back(std::move(thread));

  std::ostringstream out;
  obs::prof::write_text_summary(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("1-in-2 tree sampling"), std::string::npos);
  // 2 sampled dispatch calls at scale 2 report as 4.
  EXPECT_NE(text.find("engine/dispatch"), std::string::npos);
  EXPECT_NE(text.find("           4 "), std::string::npos);
}

TEST(ProfReportTest, ChromeTracksJoinThreadsInOneTraceFile) {
  // Measured cycles vary run to run, so the report prints them as zeros: a
  // clock so fast every duration rounds to 0.000us, and no share
  // denominator. Calls are exact at period 1.
  obs::prof::Report report;
  report.cycles_per_second = 1e300;
  report.denominator_cycles = 0;
  obs::prof::ThreadProfile shard0;
  shard0.label = "shard0";
  shard0.collector = Collector(1);
  for (int i = 0; i < 2; ++i) {
    shard0.collector.enter(Region::kDispatch);
    shard0.collector.enter(Region::kQueueWfq);
    shard0.collector.exit(Region::kQueueWfq);
    shard0.collector.exit(Region::kDispatch);
  }
  obs::prof::ThreadProfile shard1;
  shard1.label = "shard1";
  shard1.collector = Collector(1);
  shard1.collector.enter(Region::kPortTx);
  shard1.collector.exit(Region::kPortTx);
  report.threads.push_back(std::move(shard0));
  report.threads.push_back(std::move(shard1));

  const std::string path = ::testing::TempDir() + "prof_tracks.json";
  obs::prof::write_chrome_tracks(report, path);
  const std::string zero = "\"cat\":\"prof\",\"ts\":0.000,\"dur\":0.000,";
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":900000,\"tid\":0,"
      "\"args\":{\"name\":\"prof:shard0\"}},\n"
      "{\"ph\":\"X\",\"name\":\"engine/dispatch\"," + zero +
      "\"pid\":900000,\"tid\":0,\"args\":{\"calls\":2,\"self_share\":0}},\n"
      "{\"ph\":\"X\",\"name\":\"queue/wfq\"," + zero +
      "\"pid\":900000,\"tid\":0,\"args\":{\"calls\":2,\"self_share\":0}},\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":900001,\"tid\":0,"
      "\"args\":{\"name\":\"prof:shard1\"}},\n"
      "{\"ph\":\"X\",\"name\":\"port/tx\"," + zero +
      "\"pid\":900001,\"tid\":0,\"args\":{\"calls\":1,\"self_share\":0}}"
      "\n]}\n";
  EXPECT_EQ(slurp(path), expected);
  // Nothing is left beside the trace.
  EXPECT_FALSE(std::ifstream(path + ".shard0").is_open());
  std::remove(path.c_str());
}

}  // namespace
