// Deeper behavioural tests for the baseline protocol stacks: ordering
// properties, reentrancy of the deadline fabric, recovery under drops, and
// level isolation.
#include <gtest/gtest.h>

#include <memory>
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

TEST(QjumpExtraTest, TopLevelIsolatedFromScavengerBlast) {
  auto config = base_config(CcKind::kQjump);
  config.qjump_level_rate_fraction = {0.10, 0.30, 0.0};
  runner::Experiment experiment(config);
  // Host 1 dumps a huge BE message; host 0's small PC message must still
  // finish promptly (SPQ + its own rate budget).
  experiment.stack(1).issue(2, rpc::Priority::kBE, 16 * sim::kMiB);
  sim::Time pc_rnl = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) {
        if (r.priority == rpc::Priority::kPC) pc_rnl = r.rnl;
      });
  experiment.simulator().schedule_in(100 * sim::kUsec, [&] {
    experiment.stack(0).issue(2, rpc::Priority::kPC, 8 * sim::kKiB);
  });
  experiment.simulator().run_until(10 * sim::kMsec);
  EXPECT_GT(pc_rnl, 0.0);
  // 8KB at a 10Gbps cap is ~6.6us serialization + RTT; allow queueing slack.
  EXPECT_LT(pc_rnl, 60 * sim::kUsec);
}

TEST(HomaExtraTest, ShorterMessagesFinishFirstUnderSharedBottleneck) {
  runner::Experiment experiment(base_config(CcKind::kHoma, 5));
  std::vector<std::pair<std::uint64_t, sim::Time>> completions;
  for (net::HostId src = 0; src < 4; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          completions.emplace_back(r.bytes, r.completed);
        });
  }
  // Four concurrent messages of very different sizes into host 4.
  const std::uint64_t sizes[] = {2 * sim::kMiB, 64 * sim::kKiB,
                                 512 * sim::kKiB, 8 * sim::kKiB};
  for (net::HostId src = 0; src < 4; ++src) {
    experiment.stack(src).issue(4, rpc::Priority::kNC, sizes[src]);
  }
  experiment.simulator().run_until(50 * sim::kMsec);
  ASSERT_EQ(completions.size(), 4u);
  // Completion order should be (8KB, 64KB, 512KB, 2MB) — SRPT via grants.
  for (std::size_t i = 1; i < completions.size(); ++i) {
    EXPECT_LT(completions[i - 1].first, completions[i].first)
        << "completion order not SRPT";
  }
}

TEST(PfabricExtraTest, ManySendersAllComplete) {
  runner::Experiment experiment(base_config(CcKind::kPfabric, 9));
  int done = 0;
  for (net::HostId src = 0; src < 8; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord&) { ++done; });
    for (int m = 0; m < 5; ++m) {
      experiment.stack(src).issue(
          8, static_cast<rpc::Priority>(m % 3),
          (static_cast<std::uint64_t>(m) + 1) * 32 * sim::kKiB);
    }
  }
  experiment.simulator().run_until(100 * sim::kMsec);
  EXPECT_EQ(done, 40);
}

TEST(DeadlineFabricExtraTest, MassTerminationIsReentrancySafe) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kPdq, 100.0, 10 * sim::kUsec);
  int killed = 0;
  // All three flows are individually hopeless; the termination cascade
  // mutates the flow map while the allocator iterates.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    fabric.register_flow(id, 0, /*deadline=*/1e-6, /*remaining=*/1000000,
                         [&killed, &fabric, id](double, bool t) {
                           if (t) {
                             ++killed;
                             fabric.remove_flow(id);  // no-op: fabric forgot
                           }
                         });
  }
  s.run_until(50 * sim::kUsec);
  EXPECT_EQ(killed, 3);
  EXPECT_EQ(fabric.flows_terminated(), 3u);
}

TEST(DeadlineFabricExtraTest, UpdateRemainingShrinksDemand) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kD3, 1000.0, 10 * sim::kUsec);
  double rate1 = 0.0, rate2 = 0.0;
  fabric.register_flow(1, 0, /*deadline=*/1.0, /*remaining=*/400,
                       [&](double r, bool) { rate1 = r; });
  fabric.register_flow(2, 0, /*deadline=*/1.0, /*remaining=*/400,
                       [&](double r, bool) { rate2 = r; });
  s.run_until(15 * sim::kUsec);
  // Symmetric demands: equal grants + equal base share.
  EXPECT_NEAR(rate1, rate2, 1e-9);
  const double initial = rate1;
  fabric.update_remaining(1, 40);  // flow 1 is 90% done
  s.run_until(40 * sim::kUsec);
  // Flow 1's demand-capped share shrinks; flow 2 absorbs the difference.
  EXPECT_LT(rate1, initial);
  EXPECT_GT(rate2, rate1);
}

TEST(QjumpExtraTest, RecoversFromDropsWithTinyBuffers) {
  auto config = base_config(CcKind::kQjump);
  runner::Experiment experiment(config);
  // Shrink the victim downlink's effective buffer by blasting two
  // unthrottled BE streams; reliability must still complete everything.
  int done = 0;
  for (net::HostId src : {0, 1}) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord&) { ++done; });
    experiment.stack(src).issue(2, rpc::Priority::kBE, 4 * sim::kMiB);
  }
  experiment.simulator().run_until(100 * sim::kMsec);
  EXPECT_EQ(done, 2);
}

TEST(HomaExtraTest, UnscheduledOnlyMessageNeedsNoGrants) {
  auto config = base_config(CcKind::kHoma);
  runner::Experiment experiment(config);
  sim::Time rnl = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { rnl = r.rnl; });
  experiment.stack(0).issue(1, rpc::Priority::kPC, 32 * sim::kKiB);
  experiment.simulator().run();
  // Fits in the unscheduled window: one-way blast + per-packet ACKs.
  EXPECT_GT(rnl, 2 * sim::kUsec);
  EXPECT_LT(rnl, 20 * sim::kUsec);
}

}  // namespace
}  // namespace aeq::protocols
