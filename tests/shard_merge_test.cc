// Tests for the per-shard telemetry merge (obs/shard_merge.h) at the
// experiment level. The load-bearing regression: a K-shard run gives each
// shard's Recorder a disjoint first_port_id base (Experiment::
// wire_telemetry), so no two ports from different shards can land on the
// same pid in the merged Chrome trace. Before the base plumbing every
// shard numbered its ports from zero and the merged trace folded distinct
// ports onto one track.
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "rpc/slo.h"
#include "runner/experiment.h"
#include "sim/units.h"
#include "workload/size_dist.h"

namespace {

using namespace aeq;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every (pid -> port name) binding announced by a process_name metadata
// event in a Chrome trace.
std::map<std::string, std::set<std::string>> pid_names(
    const std::string& trace) {
  std::map<std::string, std::set<std::string>> names;
  const std::regex meta(
      R"re(\{"ph":"M","name":"process_name","pid":(\d+),"tid":0,)re"
      R"re("args":\{"name":"([^"]+)"\}\})re");
  for (auto it = std::sregex_iterator(trace.begin(), trace.end(), meta);
       it != std::sregex_iterator(); ++it) {
    names[(*it)[1]].insert((*it)[2]);
  }
  return names;
}

TEST(ShardMergeTest, PortTracksStayDistinctAcrossShards) {
  constexpr std::size_t kShards = 4;
  runner::ExperimentConfig config;
  config.scheduler_backend = sim::SchedulerBackend::kCalendar;
  config.num_hosts = 8;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
  config.shards = kShards;
  config.audit = false;
  config.seed = 7;

  const std::string trace_path =
      ::testing::TempDir() + "shard_merge_trace.json";
  config.telemetry.trace = trace_path;
  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {{rpc::Priority::kPC, 0.4 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  experiment.run(0.0, 0.3 * sim::kMsec);

  const std::string trace = slurp(trace_path);
  const auto names = pid_names(trace);

  // One pid never carries two different names — the collision the
  // first_port_id bases exist to prevent.
  std::set<std::string> all_port_names;
  for (const auto& [pid, port_names] : names) {
    EXPECT_EQ(port_names.size(), 1u)
        << "pid " << pid << " is shared by " << port_names.size()
        << " distinct tracks";
    all_port_names.insert(*port_names.begin());
  }

  // And every port of the sharded topology got its own track: 8 host NICs
  // plus each shard switch's ports (build_sharded_star creates one
  // "tor-shard<k>" switch per shard, so switch tracks exist for all four).
  std::size_t nic_tracks = 0;
  std::set<std::string> switches_seen;
  for (const auto& name : all_port_names) {
    if (name.find("-nic") != std::string::npos) ++nic_tracks;
    const auto dash = name.find("-port");
    if (dash != std::string::npos && name.rfind("tor-shard", 0) == 0) {
      switches_seen.insert(name.substr(0, dash));
    }
  }
  EXPECT_EQ(nic_tracks, config.num_hosts);
  EXPECT_EQ(switches_seen.size(), kShards);

  std::remove(trace_path.c_str());
}

// The merged file keeps the single-sink framing: one prologue, events
// joined shard by shard, one epilogue, and no leftover .shard<k> inputs.
TEST(ShardMergeTest, MergedTraceUsesSingleSinkFramingAndRemovesInputs) {
  constexpr std::size_t kShards = 2;
  runner::ExperimentConfig config;
  config.scheduler_backend = sim::SchedulerBackend::kCalendar;
  config.num_hosts = 4;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
  config.shards = kShards;
  config.audit = false;
  config.seed = 11;

  const std::string trace_path =
      ::testing::TempDir() + "shard_merge_framing.json";
  config.telemetry.trace = trace_path;
  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.4 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen);
  experiment.run(0.0, 0.2 * sim::kMsec);

  const std::string trace = slurp(trace_path);
  EXPECT_EQ(trace.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0), 0u);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
  for (std::size_t k = 0; k < kShards; ++k) {
    std::ifstream shard_file(trace_path + ".shard" + std::to_string(k));
    EXPECT_FALSE(shard_file.is_open())
        << "per-shard input " << k << " survived the merge";
  }

  std::remove(trace_path.c_str());
}

}  // namespace
