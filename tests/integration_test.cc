// End-to-end integration tests of the full Aequitas loop: SLO tracking,
// downgrade accounting, fairness, mix convergence direction, determinism,
// and operation over the two-tier (leaf-spine) fabric.
#include <gtest/gtest.h>

#include <memory>

#include "runner/experiment.h"

namespace aeq {
namespace {

constexpr double kSizeMtus = 8.0;  // 32KB RPCs at 4KB MTU

runner::ExperimentConfig two_qos_config(double slo_us) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.slo =
      rpc::SloConfig::make({slo_us * sim::kUsec / kSizeMtus, 0.0}, 99.9);
  return config;
}

void attach_two_senders(runner::Experiment& experiment, double qosh_frac_a,
                        double qosh_frac_b) {
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  const double fractions[2] = {qosh_frac_a, qosh_frac_b};
  for (net::HostId h : {0, 1}) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, fractions[h] * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, (1 - fractions[h]) * sim::gbps(100), sizes,
         0.0}};
    experiment.add_generator(h, gen, workload::fixed_destination(2));
  }
}

TEST(AequitasIntegrationTest, TailTracksSloUnderOverload) {
  runner::Experiment experiment(two_qos_config(15.0));
  attach_two_senders(experiment, 0.7, 0.7);
  experiment.run(20 * sim::kMsec, 25 * sim::kMsec);
  const double p999 = experiment.metrics().rnl_by_run_qos(0).p999();
  // Within 40% of the 15us target despite 2x offered overload.
  EXPECT_LT(p999, 1.4 * 15 * sim::kUsec);
  EXPECT_GT(p999, 5 * sim::kUsec);  // and not trivially empty
  // Meaningful admitted share (not starved to the floor).
  EXPECT_GT(experiment.metrics().admitted_share(0), 0.05);
}

TEST(AequitasIntegrationTest, WithoutAequitasTailExplodes) {
  auto config = two_qos_config(15.0);
  config.admission.kind = policy::kAlwaysAdmit;
  runner::Experiment experiment(config);
  attach_two_senders(experiment, 0.7, 0.7);
  experiment.run(10 * sim::kMsec, 10 * sim::kMsec);
  // 140% offered on QoS_h alone: queues grow without bound.
  EXPECT_GT(experiment.metrics().rnl_by_run_qos(0).p999(),
            10 * 15 * sim::kUsec);
}

TEST(AequitasIntegrationTest, AccountingConsistent) {
  runner::Experiment experiment(two_qos_config(15.0));
  attach_two_senders(experiment, 0.7, 0.7);
  experiment.run(5 * sim::kMsec, 10 * sim::kMsec);
  const auto& metrics = experiment.metrics();
  // Every issued PC RPC either ran on QoS_h or was downgraded to QoS_l.
  const std::uint64_t total =
      metrics.completed(0) + metrics.completed(1);
  EXPECT_GT(metrics.downgraded(0), 0u);
  EXPECT_EQ(metrics.total_completed(), total);
  // Downgraded RPCs ran on the scavenger class.
  EXPECT_GT(metrics.bytes_admitted(1), metrics.bytes_requested(1));
  EXPECT_LT(metrics.bytes_admitted(0), metrics.bytes_requested(0));
}

TEST(AequitasIntegrationTest, InQuotaChannelKeepsHighAdmitProbability) {
  runner::Experiment experiment(two_qos_config(15.0));
  attach_two_senders(experiment, /*A=*/0.05, /*B=*/0.8);
  experiment.run(30 * sim::kMsec, 30 * sim::kMsec);
  const double p_a = experiment.aequitas(0)->p_admit(2, 0);
  const double p_b = experiment.aequitas(1)->p_admit(2, 0);
  EXPECT_GT(p_a, 0.7);  // well-behaved channel barely throttled
  EXPECT_LT(p_b, p_a);  // the heavy channel carries the downgrades
}

TEST(AequitasIntegrationTest, HeavierChannelGetsLowerAdmitProbability) {
  runner::Experiment experiment(two_qos_config(15.0));
  attach_two_senders(experiment, 0.4, 0.8);
  experiment.run(40 * sim::kMsec, 20 * sim::kMsec);
  const double p_a = experiment.aequitas(0)->p_admit(2, 0);
  const double p_b = experiment.aequitas(1)->p_admit(2, 0);
  EXPECT_LT(p_b, p_a);
  // Admitted throughput roughly equal => p ratio tracks load ratio.
  EXPECT_NEAR(p_b / p_a, 0.5, 0.35);
}

TEST(AequitasIntegrationTest, DeterministicForFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    auto config = two_qos_config(15.0);
    config.seed = seed;
    runner::Experiment experiment(config);
    attach_two_senders(experiment, 0.7, 0.7);
    experiment.run(2 * sim::kMsec, 4 * sim::kMsec);
    return std::tuple(experiment.metrics().total_completed(),
                      experiment.metrics().rnl_by_run_qos(0).p999(),
                      experiment.simulator().events_processed());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(AequitasIntegrationTest, WorksOnLeafSpine) {
  runner::ExperimentConfig config;
  config.use_leaf_spine = true;
  config.leaf_spine.hosts_per_leaf = 4;
  config.leaf_spine.num_leaves = 3;
  config.leaf_spine.num_spines = 2;
  // 2:1 oversubscription at the leaf uplinks.
  config.leaf_spine.fabric_rate = sim::gbps(100);
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.slo = rpc::SloConfig::make(
      {25 * sim::kUsec / kSizeMtus, 50 * sim::kUsec / kSizeMtus, 0.0},
      99.9);
  runner::Experiment experiment(config);
  ASSERT_EQ(experiment.network().num_hosts(), 12u);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  for (net::HostId h = 0; h < 12; ++h) {
    workload::GeneratorConfig gen;
    const double rate = 0.6 * sim::gbps(100);
    gen.classes = {{rpc::Priority::kPC, 0.5 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.2 * rate, sizes, 0.0}};
    experiment.add_generator(h, gen);
  }
  experiment.run(4 * sim::kMsec, 6 * sim::kMsec);
  EXPECT_GT(experiment.metrics().total_completed(), 1000u);
  // The SLO-bearing class is protected relative to the scavenger.
  EXPECT_LT(experiment.metrics().rnl_by_run_qos(0).p999(),
            experiment.metrics().rnl_by_run_qos(2).p999());
}

TEST(AequitasIntegrationTest, DwrrBehavesLikeWfqAtCoarseGrain) {
  for (auto scheduler :
       {net::SchedulerType::kWfq, net::SchedulerType::kDwrr}) {
    auto config = two_qos_config(15.0);
    config.scheduler = scheduler;
    runner::Experiment experiment(config);
    attach_two_senders(experiment, 0.7, 0.7);
    experiment.run(10 * sim::kMsec, 10 * sim::kMsec);
    // Both WFQ realizations keep the admitted class within ~2x of SLO.
    EXPECT_LT(experiment.metrics().rnl_by_run_qos(0).p999(),
              2.0 * 15 * sim::kUsec)
        << "scheduler " << static_cast<int>(scheduler);
  }
}

}  // namespace
}  // namespace aeq
