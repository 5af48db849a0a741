// RPC-layer tests: priority->QoS mapping, SLO helpers, metrics accounting
// (mix shares, SLO compliance, outstanding gauges), and end-to-end issue ->
// completion through the experiment harness.
#include <gtest/gtest.h>

#include <memory>

#include "rpc/metrics.h"
#include "rpc/priority.h"
#include "rpc/slo.h"
#include "runner/experiment.h"
#include "workload/size_dist.h"

namespace aeq::rpc {
namespace {

TEST(PriorityTest, BijectiveMappingThreeQos) {
  EXPECT_EQ(qos_for_priority(Priority::kPC, 3), net::kQoSHigh);
  EXPECT_EQ(qos_for_priority(Priority::kNC, 3), net::kQoSMid);
  EXPECT_EQ(qos_for_priority(Priority::kBE, 3), net::kQoSLow);
}

TEST(PriorityTest, TwoQosCollapsesLowClasses) {
  EXPECT_EQ(qos_for_priority(Priority::kPC, 2), 0);
  EXPECT_EQ(qos_for_priority(Priority::kNC, 2), 1);
  EXPECT_EQ(qos_for_priority(Priority::kBE, 2), 1);
}

TEST(SloTest, SizeInMtus) {
  EXPECT_EQ(size_in_mtus(1, 4096), 1u);
  EXPECT_EQ(size_in_mtus(4096, 4096), 1u);
  EXPECT_EQ(size_in_mtus(4097, 4096), 2u);
  EXPECT_EQ(size_in_mtus(32768, 4096), 8u);
  EXPECT_EQ(size_in_mtus(0, 4096), 1u);
}

TEST(SloTest, HasSloForAllButLowest) {
  const auto slo =
      SloConfig::make({15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  EXPECT_TRUE(slo.has_slo(0));
  EXPECT_TRUE(slo.has_slo(1));
  EXPECT_FALSE(slo.has_slo(2));
  EXPECT_DOUBLE_EQ(slo.absolute_target(0, 8), 120 * sim::kUsec);
}

TEST(MetricsTest, MixSharesAndSloAccounting) {
  const auto slo = SloConfig::make({10 * sim::kUsec, 0.0}, 99.9);
  RpcMetrics metrics(2, slo, 4);

  RpcRecord record;
  record.dst = 1;
  record.qos_requested = 0;
  record.qos_run = 0;
  record.bytes = 1000;
  record.size_mtus = 1;
  record.rnl = 5 * sim::kUsec;  // meets 10us
  metrics.on_issue(1, 0, 0, 1000);
  metrics.record(record);

  record.rnl = 50 * sim::kUsec;  // misses
  metrics.on_issue(1, 0, 0, 1000);
  metrics.record(record);

  record.qos_run = 1;  // downgraded
  record.downgraded = true;
  record.rnl = 5 * sim::kUsec;  // still meets its requested-QoS target
  metrics.on_issue(1, 0, 1, 1000);
  metrics.record(record);

  EXPECT_EQ(metrics.slo_eligible(0), 3u);
  EXPECT_EQ(metrics.slo_met(0), 2u);
  EXPECT_NEAR(metrics.slo_met_fraction(0), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(metrics.downgraded(0), 1u);
  EXPECT_NEAR(metrics.admitted_share(0), 2.0 / 3.0, 1e-12);
  // Every byte requested QoS 0: a requested share of 1.
  EXPECT_EQ(metrics.bytes_requested(0), 3000u);
  EXPECT_EQ(metrics.bytes_requested(1), 0u);
  EXPECT_EQ(metrics.total_completed(), 3u);
}

TEST(MetricsTest, TerminatedCountsAsSloMiss) {
  const auto slo = SloConfig::make({10 * sim::kUsec, 0.0}, 99.9);
  RpcMetrics metrics(2, slo, 2);
  RpcRecord record;
  record.dst = 1;
  record.qos_requested = 0;
  record.qos_run = 0;
  record.bytes = 1000;
  record.size_mtus = 1;
  record.terminated = true;
  metrics.on_issue(1, 0, 0, 1000);
  metrics.record(record);
  EXPECT_EQ(metrics.slo_eligible(0), 1u);
  EXPECT_EQ(metrics.slo_met(0), 0u);
  EXPECT_EQ(metrics.terminated(0), 1u);
  EXPECT_EQ(metrics.total_completed(), 0u);
}

TEST(MetricsTest, OutstandingGaugeTracksIssueAndCompletion) {
  const auto slo =
      SloConfig::make({15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  RpcMetrics metrics(3, slo, 3);
  metrics.on_issue(2, 0, 0, 100);
  metrics.on_issue(2, 1, 1, 100);
  metrics.on_issue(2, 2, 2, 100);
  EXPECT_EQ(metrics.outstanding(2, 0), 2);  // QoS_h + QoS_m group
  EXPECT_EQ(metrics.outstanding(2, 1), 1);  // lowest QoS group
  RpcRecord record;
  record.dst = 2;
  record.qos_requested = 0;
  record.qos_run = 0;
  record.bytes = 100;
  record.size_mtus = 1;
  metrics.record(record);
  EXPECT_EQ(metrics.outstanding(2, 0), 1);
}

TEST(MetricsTest, WarmupExcludedFromLatencyButNotTraffic) {
  const auto slo = SloConfig::make({10 * sim::kUsec, 0.0}, 99.9);
  RpcMetrics metrics(2, slo, 2);
  metrics.set_warmup(1.0);
  RpcRecord record;
  record.dst = 1;
  record.qos_requested = 0;
  record.qos_run = 0;
  record.bytes = 1000;
  record.size_mtus = 1;
  record.issued = 0.5;  // during warmup
  record.rnl = 5 * sim::kUsec;
  metrics.on_issue(1, 0, 0, 1000);
  metrics.record(record);
  EXPECT_EQ(metrics.rnl_by_run_qos(0).count(), 0u);
  EXPECT_EQ(metrics.bytes_admitted(0), 1000u);
  record.issued = 2.0;  // after warmup
  metrics.on_issue(1, 0, 0, 1000);
  metrics.record(record);
  EXPECT_EQ(metrics.rnl_by_run_qos(0).count(), 1u);
}

TEST(RpcStackTest, EndToEndIssueCompletesAndNotifiesListener) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 3;
  config.admission.kind = policy::kAlwaysAdmit;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);

  std::vector<RpcRecord> seen;
  experiment.stack(0).set_completion_listener(
      [&](const RpcRecord& r) { seen.push_back(r); });
  experiment.stack(0).issue(1, Priority::kPC, 32 * sim::kKiB);
  experiment.stack(0).issue(2, Priority::kBE, 8 * sim::kKiB);
  experiment.simulator().run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].qos_run, net::kQoSHigh);
  EXPECT_EQ(seen[1].qos_run, net::kQoSLow);
  EXPECT_GT(seen[0].rnl, 0.0);
  EXPECT_EQ(seen[0].size_mtus, 8u);
  EXPECT_EQ(experiment.metrics().total_completed(), 2u);
}

TEST(RpcStackTest, DowngradeVisibleToApplication) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 3;
  config.admission.aequitas.p_admit_floor = 0.0;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);

  // Force the controller's p_admit to 0 toward host 1 on QoS_h.
  for (int i = 0; i < 300; ++i) {
    experiment.admission(0).on_completion(0.0, 0, 1, net::kQoSHigh,
                                          net::kQoSHigh, 1.0, 8);
  }
  int downgrades = 0;
  experiment.stack(0).set_completion_listener([&](const RpcRecord& r) {
    if (r.downgraded) {
      EXPECT_EQ(r.qos_run, net::kQoSLow);
      EXPECT_EQ(r.qos_requested, net::kQoSHigh);
      ++downgrades;
    }
  });
  for (int i = 0; i < 20; ++i) {
    experiment.stack(0).issue(1, Priority::kPC, 4096);
  }
  experiment.simulator().run();
  EXPECT_GE(downgrades, 18);
}

TEST(RpcMetricsTest, DowngradeAttributionByRequestedAndDelivered) {
  RpcMetrics metrics(3, SloConfig::make({15 * sim::kUsec, 25 * sim::kUsec,
                                         0.0}, 99.9), 4);
  auto downgrade = [&](net::HostId src, net::HostId dst,
                       net::QoSLevel from, net::QoSLevel to) {
    metrics.on_issue(dst, from, to, 4096);
    RpcRecord record;
    record.src = src;
    record.dst = dst;
    record.qos_requested = from;
    record.qos_run = to;
    record.downgraded = true;
    record.bytes = 4096;
    record.rnl = 1 * sim::kUsec;
    metrics.record(record);
  };
  downgrade(0, 1, net::kQoSHigh, 1);  // QoS_h -> QoS_m
  downgrade(0, 1, net::kQoSHigh, 2);  // QoS_h -> scavenger
  downgrade(2, 1, net::kQoSHigh, 2);  // same dst/qos, other src
  downgrade(0, 3, 1, 2);              // QoS_m -> scavenger

  // Who asked and suffered (by requested QoS)...
  EXPECT_EQ(metrics.downgraded(net::kQoSHigh), 3u);
  EXPECT_EQ(metrics.downgraded(1), 1u);
  EXPECT_EQ(metrics.downgraded(2), 0u);
  // ...and where the traffic actually landed (by delivered QoS).
  EXPECT_EQ(metrics.downgraded_delivered(net::kQoSHigh), 0u);
  EXPECT_EQ(metrics.downgraded_delivered(1), 1u);
  EXPECT_EQ(metrics.downgraded_delivered(2), 3u);
}

TEST(RpcMetricsTest, AdmissionDropCountsRequestedButNotAdmittedBytes) {
  RpcMetrics metrics(2, SloConfig::make({15 * sim::kUsec, 0.0}, 99.9), 2);
  metrics.on_issue(1, net::kQoSHigh, net::kQoSHigh, 1000);
  metrics.on_issue(1, net::kQoSHigh, net::kQoSHigh, 3000,
                   /*admission_dropped=*/true);
  EXPECT_EQ(metrics.bytes_requested(net::kQoSHigh), 4000u);
  EXPECT_EQ(metrics.bytes_requested(1), 0u);
  EXPECT_EQ(metrics.bytes_admitted(net::kQoSHigh), 1000u);
}

}  // namespace
}  // namespace aeq::rpc
