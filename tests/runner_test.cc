// Tests for the experiment harnesses themselves: sampler scheduling,
// utilization accounting, ownership helpers, generator windows, and
// contract violations (death tests on AEQ_ASSERT).
#include <gtest/gtest.h>

#include <memory>

#include "net/wfq.h"
#include "runner/experiment.h"

namespace aeq {
namespace {

runner::ExperimentConfig small_config() {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.admission.kind = policy::kAlwaysAdmit;
  config.slo = rpc::SloConfig::make({15.0 / 8 * sim::kUsec, 0.0}, 99.9);
  return config;
}

TEST(ExperimentTest, SamplerFiresAtConfiguredCadence) {
  runner::Experiment experiment(small_config());
  int samples = 0;
  sim::Time last = 0.0;
  experiment.sample_every(1 * sim::kMsec, [&](sim::Time t) {
    ++samples;
    EXPECT_GT(t, last);
    last = t;
  });
  experiment.run(0.0, 10 * sim::kMsec, /*drain=*/0.0);
  EXPECT_EQ(samples, 9);  // samples at 1..9ms (run end exclusive)
}

TEST(ExperimentTest, DownlinkUtilizationTracksTraffic) {
  runner::Experiment experiment(small_config());
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  // Zero drain: utilization is measured over exactly the offered window.
  experiment.run(0.0, 5 * sim::kMsec, /*drain=*/0.0);
  // One of three downlinks at ~50% load (plus tiny ACK traffic on others).
  EXPECT_NEAR(experiment.mean_downlink_utilization(), 0.5 / 3, 0.05);
  EXPECT_NEAR(experiment.network().downlink(2).utilization(
                  experiment.simulator().now()),
              0.5, 0.08);
}

TEST(ExperimentTest, GeneratorWindowRestrictsIssues) {
  runner::Experiment experiment(small_config());
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.2 * sim::gbps(100), sizes, 0.0}};
  gen.window_start = 2 * sim::kMsec;
  gen.window_stop = 4 * sim::kMsec;
  experiment.add_generator(0, gen, workload::fixed_destination(1));
  sim::Time first = -1.0, last = -1.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) {
        if (first < 0) first = r.issued;
        last = r.issued;
      });
  experiment.run(0.0, 10 * sim::kMsec);
  EXPECT_GE(first, 2 * sim::kMsec);
  EXPECT_LT(last, 4 * sim::kMsec);
}

TEST(ExperimentTest, UniformPickerNeverSelectsSelf) {
  sim::Rng rng(3);
  auto picker = workload::uniform_destinations(5, 2);
  for (int i = 0; i < 1000; ++i) {
    const net::HostId dst = picker(rng);
    EXPECT_NE(dst, 2);
    EXPECT_GE(dst, 0);
    EXPECT_LT(dst, 5);
  }
}

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, WfqRejectsEmptyWeights) {
  util::BlockPool buffer;
  EXPECT_DEATH(net::WfqQueue(buffer, std::vector<double>{}),
               "at least one class");
}

TEST(ContractDeathTest, WfqRejectsNonPositiveWeight) {
  util::BlockPool buffer;
  EXPECT_DEATH(net::WfqQueue(buffer, std::vector<double>{4.0, 0.0}),
               "weights must be positive");
}

TEST(ContractDeathTest, ExperimentRejectsMismatchedSlo) {
  runner::ExperimentConfig config = small_config();
  config.num_qos = 3;  // but SLO has 2 entries
  EXPECT_DEATH(runner::Experiment experiment(config),
               "SLO config must cover every QoS level");
}

// Serial-only accessors fail at the call site on a sharded experiment
// instead of handing back an executive that nothing runs.
TEST(ContractDeathTest, SimulatorRejectsShardedExperiment) {
  runner::ExperimentConfig config = small_config();
  config.shards = 2;
  EXPECT_DEATH(
      {
        runner::Experiment experiment(config);
        experiment.simulator();
      },
      "ExperimentConfig::shards");
}

TEST(ContractDeathTest, SampleEveryRejectsShardedExperiment) {
  runner::ExperimentConfig config = small_config();
  config.shards = 2;
  EXPECT_DEATH(
      {
        runner::Experiment experiment(config);
        experiment.sample_every(1 * sim::kMsec, [](sim::Time) {});
      },
      "ExperimentConfig::shards");
}

TEST(ContractDeathTest, SimulatorRejectsPastScheduling) {
  sim::Simulator s;
  s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_DEATH(s.schedule_at(0.5, [] {}), "into the past");
}

TEST(ContractDeathTest, AequitasRejectsBadPercentile) {
  core::AequitasConfig config;
  config.slo = rpc::SloConfig::make({15 * sim::kUsec, 0.0}, 100.0);
  EXPECT_DEATH(core::AequitasController(config, sim::Rng(1)),
               "percentile");
}

}  // namespace
}  // namespace aeq
