// RPC-layer tests: priority->QoS mapping, SLO helpers, metrics accounting
// (mix shares, SLO compliance, outstanding gauges), and end-to-end issue ->
// completion through the experiment harness.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "rpc/metrics.h"
#include "rpc/priority.h"
#include "rpc/slo.h"
#include "runner/experiment.h"
#include "sim/rng.h"
#include "stats/percentile.h"
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
  EXPECT_EQ(size_in_mtus(1), 1u);
  EXPECT_EQ(size_in_mtus(4096), 1u);
  EXPECT_EQ(size_in_mtus(4097), 2u);
  EXPECT_EQ(size_in_mtus(32768), 8u);
  EXPECT_EQ(size_in_mtus(0), 1u);
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
  RpcMetrics metrics(2, slo, 4, /*rnl_per_mtu=*/false);

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
  RpcMetrics metrics(2, slo, 2, /*rnl_per_mtu=*/false);
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
  RpcMetrics metrics(3, slo, 3, /*rnl_per_mtu=*/false);
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
  RpcMetrics metrics(2, slo, 2, /*rnl_per_mtu=*/false);
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

// The stack rebuilds each finished RPC's record from the transport's
// completion plus the few fields its completion closure keeps, so every
// field is checked against what issue() was given and returned, over the
// Swift stack and over a BaseTransport baseline (pFabric).
TEST(RpcStackTest, EndToEndIssueCompletesAndNotifiesListener) {
  using CcKind = runner::ExperimentConfig::CcKind;
  for (const CcKind cc_kind : {CcKind::kSwift, CcKind::kPfabric}) {
    SCOPED_TRACE(cc_kind == CcKind::kSwift ? "swift" : "pfabric");
    runner::ExperimentConfig config;
    config.num_hosts = 3;
    config.num_qos = 3;
    config.admission.kind = policy::kAlwaysAdmit;
    config.slo = rpc::SloConfig::make(
        {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
    config.cc_kind = cc_kind;
    if (cc_kind == CcKind::kPfabric) {
      config.scheduler = net::SchedulerType::kPfabric;
      config.buffer_bytes = 160 * 1024;  // ~2.5 BDP, as Figure 22 runs it
    }
    runner::Experiment experiment(config);

    std::vector<RpcRecord> seen;
    experiment.stack(0).set_completion_listener(
        [&](const RpcRecord& r) { seen.push_back(r); });
    // Issued off time zero, so `issued` cannot pass by defaulting to 0.
    const sim::Time t_issue = 3 * sim::kUsec;
    std::uint64_t id_pc = 0;
    std::uint64_t id_be = 0;
    experiment.simulator().schedule_at(t_issue, [&] {
      id_pc = experiment.stack(0).issue(1, Priority::kPC, 32 * sim::kKiB);
      id_be = experiment.stack(0).issue(2, Priority::kBE, 8 * sim::kKiB);
    });
    experiment.simulator().run();

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_NE(id_pc, id_be);
    const auto find = [&seen](std::uint64_t rpc_id) {
      for (const RpcRecord& r : seen) {
        if (r.rpc_id == rpc_id) return r;
      }
      ADD_FAILURE() << "no record for rpc " << rpc_id;
      return RpcRecord{};
    };
    struct Expected {
      std::uint64_t rpc_id;
      net::HostId dst;
      Priority priority;
      net::QoSLevel qos;
      std::uint64_t bytes;
      std::uint64_t size_mtus;
    };
    for (const Expected& want :
         {Expected{id_pc, 1, Priority::kPC, net::kQoSHigh, 32 * sim::kKiB, 8},
          Expected{id_be, 2, Priority::kBE, net::kQoSLow, 8 * sim::kKiB, 2}}) {
      const RpcRecord r = find(want.rpc_id);
      EXPECT_EQ(r.rpc_id, want.rpc_id);
      EXPECT_EQ(r.src, 0);
      EXPECT_EQ(r.dst, want.dst);
      EXPECT_EQ(r.priority, want.priority);
      EXPECT_EQ(r.qos_requested, want.qos);
      EXPECT_EQ(r.qos_run, want.qos);
      EXPECT_FALSE(r.downgraded);
      EXPECT_EQ(r.bytes, want.bytes);
      EXPECT_EQ(r.size_mtus, want.size_mtus);
      EXPECT_EQ(r.issued, t_issue);
      EXPECT_GT(r.completed, r.issued);
      EXPECT_EQ(r.rnl, r.completed - r.issued);
      EXPECT_FALSE(r.terminated);
    }
    EXPECT_EQ(experiment.metrics().total_completed(), 2u);
  }
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
                                         0.0}, 99.9), 4,
                     /*rnl_per_mtu=*/false);
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
  RpcMetrics metrics(2, SloConfig::make({15 * sim::kUsec, 0.0}, 99.9), 2,
                     /*rnl_per_mtu=*/false);
  metrics.on_issue(1, net::kQoSHigh, net::kQoSHigh, 1000);
  metrics.on_issue(1, net::kQoSHigh, net::kQoSHigh, 3000,
                   /*admission_dropped=*/true);
  EXPECT_EQ(metrics.bytes_requested(net::kQoSHigh), 4000u);
  EXPECT_EQ(metrics.bytes_requested(1), 0u);
  EXPECT_EQ(metrics.bytes_admitted(net::kQoSHigh), 1000u);
}

// Records one completed post-warmup RPC of `size_mtus` MTUs from host 0 to
// host 1 on `qos`.
void record_completed(RpcMetrics& metrics, net::QoSLevel qos,
                      std::uint64_t size_mtus, sim::Time rnl) {
  const std::uint64_t bytes = size_mtus * 4096;
  metrics.on_issue(1, qos, qos, bytes);
  RpcRecord record;
  record.src = 0;
  record.dst = 1;
  record.qos_requested = qos;
  record.qos_run = qos;
  record.bytes = bytes;
  record.size_mtus = size_mtus;
  record.rnl = rnl;
  metrics.record(record);
}

TEST(RpcMetricsDeathTest, PerMtuReadWithoutTheFlagAborts) {
  RpcMetrics metrics(2, SloConfig::make({15 * sim::kUsec, 0.0}, 99.9), 2,
                     /*rnl_per_mtu=*/false);
  record_completed(metrics, net::kQoSHigh, 4, 20 * sim::kUsec);
  EXPECT_EQ(metrics.rnl_by_run_qos(net::kQoSHigh).count(), 1u);
  EXPECT_DEATH(metrics.rnl_per_mtu_by_run_qos(net::kQoSHigh),
               "needs ExperimentConfig::rnl_per_mtu");
}

TEST(RpcMetricsTest, PerMtuSamplesAreRnlOverSizeWhenRequested) {
  RpcMetrics metrics(2, SloConfig::make({15 * sim::kUsec, 0.0}, 99.9), 2,
                     /*rnl_per_mtu=*/true);
  sim::Rng rng(5);
  stats::PercentileTracker expected;
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t size_mtus = 1 + rng.index(64);
    const sim::Time rnl = rng.uniform(1.0, 500.0) * sim::kUsec;
    record_completed(metrics, net::kQoSHigh, size_mtus, rnl);
    expected.add(rnl / static_cast<double>(size_mtus));
  }
  const auto& per_mtu = metrics.rnl_per_mtu_by_run_qos(net::kQoSHigh);
  EXPECT_EQ(per_mtu.count(), 1500u);
  for (const double pct : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(per_mtu.percentile(pct), expected.percentile(pct))
        << "pct " << pct;
  }
  EXPECT_EQ(metrics.rnl_per_mtu_by_run_qos(1).count(), 0u);
}

// The sharded fold moves each shard sink's samples: the merged sink equals
// one sink that saw every RPC, and the sink it moved from keeps no sample.
TEST(RpcMetricsTest, MergeMovesSamplesAndEmptiesTheSource) {
  const auto slo = SloConfig::make({15 * sim::kUsec, 0.0}, 99.9);
  RpcMetrics whole(2, slo, 2, /*rnl_per_mtu=*/true);
  RpcMetrics merged(2, slo, 2, /*rnl_per_mtu=*/true);
  RpcMetrics shard(2, slo, 2, /*rnl_per_mtu=*/true);
  sim::Rng rng(11);
  for (int i = 0; i < 1200; ++i) {
    const auto qos = static_cast<net::QoSLevel>(rng.index(2));
    const std::uint64_t size_mtus = 1 + rng.index(8);
    const sim::Time rnl = rng.exponential(20 * sim::kUsec);
    record_completed(whole, qos, size_mtus, rnl);
    record_completed(i % 3 == 0 ? merged : shard, qos, size_mtus, rnl);
  }
  merged.merge(std::move(shard));
  EXPECT_EQ(merged.total_completed(), whole.total_completed());
  for (net::QoSLevel q = 0; q < 2; ++q) {
    for (const auto tracker :
         {&RpcMetrics::rnl_by_run_qos, &RpcMetrics::rnl_per_mtu_by_run_qos}) {
      EXPECT_EQ((merged.*tracker)(q).count(), (whole.*tracker)(q).count());
      EXPECT_EQ((merged.*tracker)(q).p50(), (whole.*tracker)(q).p50());
      EXPECT_EQ((merged.*tracker)(q).p999(), (whole.*tracker)(q).p999());
      EXPECT_EQ((shard.*tracker)(q).count(), 0u);
    }
  }
}

}  // namespace
}  // namespace aeq::rpc
