// Tests for the baseline protocol stacks: pFabric SRPT behaviour, QJump
// host rate limiting, Homa grants and priorities, the D3/PDQ deadline
// fabric (allocation, pausing, termination), and the properties every
// baseline keeps inside runner::Experiment (audit-clean, deterministic,
// backend- and telemetry-invariant, invalid configs rejected).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "protocols/deadline_fabric.h"
#include "runner/experiment.h"

namespace aeq::protocols {
namespace {

using CcKind = runner::ExperimentConfig::CcKind;

// A baseline transport on the queue discipline it assumes (as Figure 22
// runs it), with no admission control.
runner::ExperimentConfig base_config(CcKind kind, std::size_t hosts = 3) {
  runner::ExperimentConfig config;
  config.cc_kind = kind;
  config.num_hosts = hosts;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  config.admission.kind = policy::kAlwaysAdmit;
  switch (kind) {
    case CcKind::kPfabric:
      config.scheduler = net::SchedulerType::kPfabric;
      config.buffer_bytes = 160 * 1024;  // ~2.5 BDP
      break;
    case CcKind::kQjump:
      config.scheduler = net::SchedulerType::kSpq;
      break;
    case CcKind::kHoma:
      config.scheduler = net::SchedulerType::kSpq;
      config.wfq_weights.assign(8, 1.0);  // one class per Homa level
      break;
    default:
      config.scheduler = net::SchedulerType::kFifo;
      break;
  }
  return config;
}

TEST(PfabricTest, SingleMessageCompletes) {
  runner::Experiment experiment(base_config(CcKind::kPfabric));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kPC, 32 * sim::kKiB);
  experiment.simulator().run();
  EXPECT_EQ(done.bytes, 32 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
  EXPECT_GT(done.rnl, 0.0);
  EXPECT_LT(done.rnl, 50 * sim::kUsec);
}

TEST(PfabricTest, SmallMessageBeatsLargeUnderContention) {
  // Start a huge transfer, then a small one on the same bottleneck: SRPT
  // should let the small message finish almost as if the link were idle.
  runner::Experiment experiment(base_config(CcKind::kPfabric));
  sim::Time small_rnl = 0.0;
  experiment.stack(0).issue(2, rpc::Priority::kBE, 8 * sim::kMiB);
  experiment.stack(1).set_completion_listener(
      [&](const rpc::RpcRecord& r) { small_rnl = r.rnl; });
  experiment.simulator().schedule_in(50 * sim::kUsec, [&] {
    experiment.stack(1).issue(2, rpc::Priority::kPC, 16 * sim::kKiB);
  });
  experiment.simulator().run_until(5 * sim::kMsec);
  EXPECT_GT(small_rnl, 0.0);
  EXPECT_LT(small_rnl, 30 * sim::kUsec);
}

TEST(PfabricTest, SurvivesTinyBufferDrops) {
  auto config = base_config(CcKind::kPfabric);
  config.buffer_bytes = 32 * 1024;  // 8 packets
  runner::Experiment experiment(config);
  int done = 0;
  for (net::HostId src : {0, 1}) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord&) { ++done; });
    experiment.stack(src).issue(2, rpc::Priority::kPC, 1 * sim::kMiB);
  }
  experiment.simulator().run_until(50 * sim::kMsec);
  EXPECT_EQ(done, 2);
  EXPECT_GT(experiment.network()
                .downlink(2)
                .queue()
                .stats()
                .dropped_packets,
            0u);
}

TEST(QjumpTest, HighLevelRateLimited) {
  auto config = base_config(CcKind::kQjump);
  config.qjump_level_rate_fraction = {0.05, 0.20, 0.0};
  runner::Experiment experiment(config);
  sim::Time done_at = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done_at = r.completed; });
  // 1MB on the 5Gbps-limited top level: >= 1.6ms just to serialize.
  experiment.stack(0).issue(1, rpc::Priority::kPC, 1 * sim::kMiB);
  experiment.simulator().run();
  EXPECT_GT(done_at, 1.6 * sim::kMsec);
}

TEST(QjumpTest, UnthrottledLowLevelRunsAtLineRate) {
  runner::Experiment experiment(base_config(CcKind::kQjump));
  sim::Time done_at = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done_at = r.completed; });
  experiment.stack(0).issue(1, rpc::Priority::kBE, 1 * sim::kMiB);
  experiment.simulator().run();
  // 1MB at 100G is ~84us serialization + RTT.
  EXPECT_LT(done_at, 300 * sim::kUsec);
}

TEST(HomaTest, MessageLargerThanRttBytesNeedsGrants) {
  runner::Experiment experiment(base_config(CcKind::kHoma));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kNC, 512 * sim::kKiB);
  experiment.simulator().run();
  EXPECT_EQ(done.bytes, 512 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
}

TEST(HomaTest, SmallMessagePreferredUnderContention) {
  runner::Experiment experiment(base_config(CcKind::kHoma));
  sim::Time small_rnl = 0.0;
  experiment.stack(0).issue(2, rpc::Priority::kBE, 4 * sim::kMiB);
  experiment.stack(1).set_completion_listener(
      [&](const rpc::RpcRecord& r) { small_rnl = r.rnl; });
  experiment.simulator().schedule_in(100 * sim::kUsec, [&] {
    experiment.stack(1).issue(2, rpc::Priority::kPC, 8 * sim::kKiB);
  });
  experiment.simulator().run_until(20 * sim::kMsec);
  EXPECT_GT(small_rnl, 0.0);
  EXPECT_LT(small_rnl, 30 * sim::kUsec);
}

TEST(DeadlineFabricTest, D3GrantsRequestedRatesFcfs) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kD3, 100.0, 10 * sim::kUsec);
  std::vector<double> rates(2, -1.0);
  std::vector<bool> killed(2, false);
  // Flow 0 wants 80, flow 1 wants 50: FCFS grants 80 then 20(+base).
  fabric.register_flow(1, 0, /*deadline=*/1.0, /*remaining=*/80,
                       [&](double r, bool t) { rates[0] = r; killed[0] = t; });
  fabric.register_flow(2, 0, 1.0, 50,
                       [&](double r, bool t) { rates[1] = r; killed[1] = t; });
  s.run_until(15 * sim::kUsec);
  EXPECT_FALSE(killed[0]);
  EXPECT_GE(rates[0], 80.0 / 1.0 * 0.9);  // desired ~80 bytes/sec
  EXPECT_GE(rates[1], 0.0);
}

TEST(DeadlineFabricTest, D3TerminatesInfeasibleDeadline) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kD3, 100.0, 10 * sim::kUsec);
  bool killed_late = false;
  // Needs 10000 bytes in 1s over a 100 B/s link: infeasible even alone.
  fabric.register_flow(1, 0, 1.0, 10000,
                       [&](double, bool t) { killed_late |= t; });
  s.run_until(50 * sim::kUsec);
  EXPECT_TRUE(killed_late);
  EXPECT_GE(fabric.flows_terminated(), 1u);
}

TEST(DeadlineFabricTest, PdqServesEarliestDeadlineFirst) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kPdq, 100.0, 10 * sim::kUsec);
  double rate_late = -1.0, rate_early = -1.0;
  fabric.register_flow(1, 0, /*deadline=*/2.0, /*remaining=*/50,
                       [&](double r, bool) { rate_late = r; });
  fabric.register_flow(2, 0, /*deadline=*/1.0, 50,
                       [&](double r, bool) { rate_early = r; });
  s.run_until(15 * sim::kUsec);
  EXPECT_DOUBLE_EQ(rate_early, 100.0);  // head of EDF: full rate
  EXPECT_LT(rate_late, 5.0);            // probe rate or paused
}

TEST(DeadlineFabricTest, PdqTerminatesFlowsThatCannotMakeIt) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kPdq, 100.0, 10 * sim::kUsec);
  bool killed = false;
  fabric.register_flow(1, 0, 1.0, 90, [](double, bool) {});
  // Behind 0.9s of work, needs to finish 90 bytes by t=1.0: infeasible.
  fabric.register_flow(2, 0, 1.0, 90,
                       [&](double, bool t) { killed |= t; });
  s.run_until(15 * sim::kUsec);
  EXPECT_TRUE(killed);
}

TEST(D3Test, EndToEndCompletesWithDeadline) {
  runner::Experiment experiment(base_config(CcKind::kD3));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kPC, 64 * sim::kKiB,
                            /*deadline_budget=*/1 * sim::kMsec);
  experiment.simulator().run_until(5 * sim::kMsec);
  EXPECT_EQ(done.bytes, 64 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
}

TEST(D3Test, OverloadTerminatesSomeDeadlineFlows) {
  runner::Experiment experiment(base_config(CcKind::kD3, 5));
  int terminated = 0, completed = 0;
  for (net::HostId src = 0; src < 4; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          r.terminated ? ++terminated : ++completed;
        });
    // 4 x 2MB to one host with 300us deadlines: ~650us of serialization
    // demand; most cannot make it.
    experiment.stack(src).issue(4, rpc::Priority::kPC, 2 * sim::kMiB,
                                300 * sim::kUsec);
  }
  experiment.simulator().run_until(10 * sim::kMsec);
  EXPECT_GT(terminated, 0);
  EXPECT_EQ(terminated + completed, 4);
}

TEST(PdqTest, EndToEndPreemptionStillCompletesAll) {
  runner::Experiment experiment(base_config(CcKind::kPdq, 4));
  int completed = 0, terminated = 0;
  for (net::HostId src = 0; src < 3; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          r.terminated ? ++terminated : ++completed;
        });
    experiment.stack(src).issue(3, rpc::Priority::kPC, 256 * sim::kKiB,
                                (src + 1) * 1 * sim::kMsec);
  }
  experiment.simulator().run_until(20 * sim::kMsec);
  // Generous staggered deadlines: EDF should complete all three.
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(terminated, 0);
}

TEST(BaselineExperimentTest, GoodputUtilizationBounded) {
  runner::Experiment experiment(base_config(CcKind::kPfabric));
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.3 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.run(1 * sim::kMsec, 5 * sim::kMsec);
  // Offered vs delivered payload bytes over the measured window.
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (net::QoSLevel q = 0; q < 3; ++q) {
    offered += experiment.metrics().bytes_requested(q);
    delivered += experiment.metrics().bytes_completed(q);
  }
  ASSERT_GT(offered, 0u);
  const double goodput =
      static_cast<double>(delivered) / static_cast<double>(offered);
  EXPECT_GT(goodput, 0.9);
  EXPECT_LE(goodput, 1.0);
}

// --- Baseline properties: every baseline kind on both backends -------------

struct BaselineRun {
  std::uint64_t completed = 0;
  std::uint64_t terminated = 0;
  std::uint64_t bytes = 0;
  std::vector<double> p999;
  std::uint64_t digest = 0;
  std::uint64_t audit_evaluations = 0;
};

// A small all-to-all star, audited throughout; `telemetry` attaches a
// Chrome trace plus a windowed timeseries.
BaselineRun run_baseline(CcKind kind, sim::SchedulerBackend backend,
                         bool telemetry) {
  runner::ExperimentConfig config = base_config(kind, 4);
  config.scheduler_backend = backend;
  config.audit = true;
  config.audit_interval = 20 * sim::kUsec;
  config.schedule_digest = true;
  config.seed = 11;
  // One path per case: ctest runs the cases as concurrent processes.
  const std::string base =
      ::testing::TempDir() + "baseline_props_" +
      std::to_string(static_cast<int>(kind)) + "_" +
      std::to_string(static_cast<int>(backend));
  if (telemetry) {
    config.telemetry.trace = base + ".json";
    config.telemetry.timeseries_csv = base + ".csv";
  }
  runner::Experiment experiment(config);
  // Sizes straddle Homa's unscheduled cutoffs and RTTbytes, so its
  // packets use priority levels above the 3-class RPC QoS space too.
  auto fixed = [&experiment](std::uint64_t bytes) {
    return experiment.own(std::make_unique<workload::FixedSize>(bytes));
  };
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.25 * sim::gbps(100),
                  fixed(8 * sim::kKiB), 200 * sim::kUsec},
                 {rpc::Priority::kNC, 0.25 * sim::gbps(100),
                  fixed(96 * sim::kKiB), 400 * sim::kUsec},
                 {rpc::Priority::kBE, 0.25 * sim::gbps(100),
                  fixed(512 * sim::kKiB), 0.0}};
  for (net::HostId h = 0; h < 4; ++h) experiment.add_generator(h, gen);
  experiment.run(0.1 * sim::kMsec, 0.4 * sim::kMsec, 1 * sim::kMsec);

  BaselineRun run;
  const auto& metrics = experiment.metrics();
  run.completed = metrics.total_completed();
  for (net::QoSLevel q = 0; q < 3; ++q) {
    run.terminated += metrics.terminated(q);
    run.bytes += metrics.bytes_completed(q);
    run.p999.push_back(metrics.rnl_by_run_qos(q).p999());
  }
  run.digest = experiment.schedule_digest().canonical();
  run.audit_evaluations = experiment.auditor()->report().total_evaluations;
  if (telemetry) {
    std::remove((base + ".json").c_str());
    std::remove((base + ".csv").c_str());
  }
  return run;
}

void expect_same_metrics(const BaselineRun& a, const BaselineRun& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.p999, b.p999);  // bitwise, not near
}

class BaselinePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<CcKind, sim::SchedulerBackend>> {
 protected:
  CcKind kind() const { return std::get<0>(GetParam()); }
  sim::SchedulerBackend backend() const { return std::get<1>(GetParam()); }
};

TEST_P(BaselinePropertyTest, RunIsAuditClean) {
  // Any violated invariant aborts the run; reaching the end is the pass.
  const BaselineRun run = run_baseline(kind(), backend(), false);
  EXPECT_GT(run.completed, 20u) << "workload too light to mean anything";
  EXPECT_GT(run.audit_evaluations, 0u);
}

TEST_P(BaselinePropertyTest, SameSeedSameMetricsAndDigest) {
  const BaselineRun a = run_baseline(kind(), backend(), false);
  const BaselineRun b = run_baseline(kind(), backend(), false);
  expect_same_metrics(a, b);
  EXPECT_EQ(a.digest, b.digest);
}

TEST_P(BaselinePropertyTest, BackendsAgreeOnCanonicalDigest) {
  const sim::SchedulerBackend other =
      backend() == sim::SchedulerBackend::kHeap
          ? sim::SchedulerBackend::kCalendar
          : sim::SchedulerBackend::kHeap;
  const BaselineRun a = run_baseline(kind(), backend(), false);
  const BaselineRun b = run_baseline(kind(), other, false);
  expect_same_metrics(a, b);
  EXPECT_EQ(a.digest, b.digest);
}

TEST_P(BaselinePropertyTest, TelemetryDoesNotPerturbMetrics) {
  expect_same_metrics(run_baseline(kind(), backend(), false),
                      run_baseline(kind(), backend(), true));
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselinePropertyTest,
    ::testing::Combine(::testing::Values(CcKind::kPfabric, CcKind::kQjump,
                                         CcKind::kD3, CcKind::kPdq,
                                         CcKind::kHoma),
                       ::testing::Values(sim::SchedulerBackend::kHeap,
                                         sim::SchedulerBackend::kCalendar)),
    [](const ::testing::TestParamInfo<BaselinePropertyTest::ParamType>&
           param_info) {
      const sim::SchedulerBackend backend = std::get<1>(param_info.param);
      std::string name;
      switch (std::get<0>(param_info.param)) {
        case CcKind::kPfabric: name = "pFabric"; break;
        case CcKind::kQjump: name = "QJump"; break;
        case CcKind::kD3: name = "D3"; break;
        case CcKind::kPdq: name = "PDQ"; break;
        default: name = "Homa"; break;
      }
      return name + (backend == sim::SchedulerBackend::kHeap ? "_heap"
                                                             : "_calendar");
    });

// --- Unsupported baseline configurations fail at construction --------------

TEST(BaselineConfigDeathTest, ShardedBaselineDies) {
  runner::ExperimentConfig config = base_config(CcKind::kQjump, 4);
  config.shards = 2;
  EXPECT_DEATH(runner::Experiment experiment(config), "shards");
}

TEST(BaselineConfigDeathTest, HomaOnTooFewQueueClassesDies) {
  runner::ExperimentConfig config = base_config(CcKind::kHoma);
  config.wfq_weights = {1.0, 1.0, 1.0};
  EXPECT_DEATH(runner::Experiment experiment(config), "wfq_weights");
}

TEST(BaselineConfigDeathTest, HostStackOnBaselineDies) {
  runner::Experiment experiment(base_config(CcKind::kPdq));
  EXPECT_DEATH(experiment.host_stack(0), "host_stack");
}

}  // namespace
}  // namespace aeq::protocols
