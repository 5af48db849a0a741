// Tests for the centralized per-tenant quota extension (paper §5.2):
// max-min allocation, demand capping, token-bucket enforcement, the
// downgrade/drop behaviour when a tenant exceeds its share, and the
// per-host tenant factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/quota.h"
#include "runner/experiment.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::core {
namespace {

AequitasConfig aeq_config() {
  AequitasConfig config;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  return config;
}

QuotaServerConfig server_config(double budget = 1e9) {
  QuotaServerConfig config;
  config.qos_budget_bytes_per_sec = {budget, budget};
  return config;
}

TEST(QuotaServerTest, InitialAllocationIsWeightedFairShare) {
  sim::Simulator s;
  QuotaServer server(s, server_config(900.0));
  const auto a = server.register_tenant(1.0);
  const auto b = server.register_tenant(2.0);
  EXPECT_DOUBLE_EQ(server.allocation(a, 0), 300.0);
  EXPECT_DOUBLE_EQ(server.allocation(b, 0), 600.0);
}

TEST(QuotaServerTest, AllocationCappedAtDemand) {
  sim::Simulator s;
  QuotaServer server(s, server_config(1000.0));
  const auto small = server.register_tenant(1.0);
  const auto big = server.register_tenant(1.0);
  // small demands 100 B/s worth, big demands far more than the budget.
  server.report_demand(small, 0, 100.0 * 1e-3);  // bytes over 1ms
  server.report_demand(big, 0, 5000.0 * 1e-3);
  s.run_until(1.5 * sim::kMsec);
  // small gets its (inflated) demand; big absorbs the rest.
  EXPECT_NEAR(server.allocation(small, 0), 125.0, 1e-9);  // 1.25x headroom
  EXPECT_NEAR(server.allocation(big, 0), 875.0, 1e-9);
  EXPECT_NEAR(server.allocation(small, 0) + server.allocation(big, 0),
              1000.0, 1e-9);
}

// Regression: registering a tenant mid-run used to recompute *every*
// tenant's allocation as the static weighted fair share, clobbering the
// demand-aware max-min allocation the last allocate() produced.
TEST(QuotaServerTest, MidRunRegistrationLeavesExistingAllocationsUntouched) {
  sim::Simulator s;
  QuotaServer server(s, server_config(1000.0));
  const auto a = server.register_tenant(1.0);
  const auto b = server.register_tenant(1.0);
  // Asymmetric demand: a wants little, b absorbs the rest.
  server.report_demand(a, 0, 100.0 * 1e-3);
  server.report_demand(b, 0, 5000.0 * 1e-3);
  s.run_until(1.5 * sim::kMsec);
  ASSERT_NEAR(server.allocation(a, 0), 125.0, 1e-9);
  ASSERT_NEAR(server.allocation(b, 0), 875.0, 1e-9);
  // Mid-interval registration: a and b keep their max-min shares until the
  // next allocate(); only the newcomer starts from its static fair share.
  const auto c = server.register_tenant(2.0);
  EXPECT_NEAR(server.allocation(a, 0), 125.0, 1e-9);
  EXPECT_NEAR(server.allocation(b, 0), 875.0, 1e-9);
  EXPECT_NEAR(server.allocation(c, 0), 1000.0 * 2.0 / 4.0, 1e-9);
  // The next interval folds the newcomer into the water-filling.
  server.report_demand(a, 0, 100.0 * 1e-3);
  server.report_demand(b, 0, 5000.0 * 1e-3);
  server.report_demand(c, 0, 5000.0 * 1e-3);
  s.run_until(2.5 * sim::kMsec);
  EXPECT_NEAR(server.allocation(a, 0), 125.0, 1e-9);
  EXPECT_NEAR(server.allocation(b, 0) + server.allocation(c, 0), 875.0,
              1e-9);
  // b (weight 1) and c (weight 2) split the remainder 1:2.
  EXPECT_NEAR(server.allocation(c, 0), 2.0 * server.allocation(b, 0), 1e-9);
}

TEST(QuotaServerTest, EqualDemandsSplitByWeight) {
  sim::Simulator s;
  QuotaServer server(s, server_config(1000.0));
  const auto a = server.register_tenant(3.0);
  const auto b = server.register_tenant(1.0);
  server.report_demand(a, 0, 10.0);  // both far above budget
  server.report_demand(b, 0, 10.0);
  s.run_until(1.5 * sim::kMsec);
  EXPECT_NEAR(server.allocation(a, 0), 750.0, 1e-9);
  EXPECT_NEAR(server.allocation(b, 0), 250.0, 1e-9);
}

TEST(QuotaControllerTest, WithinQuotaPassesThrough) {
  sim::Simulator s;
  // 1 GB/s: generous
  auto server = std::make_shared<QuotaServer>(s, server_config(1e9));
  const auto tenant = server->register_tenant(1.0);
  QuotaController controller(
      server, tenant,
      std::make_unique<AequitasController>(aeq_config(), sim::Rng(1)));
  const auto decision = controller.admit(1e-3, 0, 1, 0, 4096);
  EXPECT_EQ(decision.qos_run, 0);
  EXPECT_FALSE(decision.downgraded);
  EXPECT_FALSE(decision.dropped);
  EXPECT_EQ(controller.over_quota_count(), 0u);
}

TEST(QuotaControllerTest, OverQuotaDowngrades) {
  sim::Simulator s;
  // ~1 RPC/sec of budget
  auto server = std::make_shared<QuotaServer>(s, server_config(4096.0));
  const auto tenant = server->register_tenant(1.0);
  QuotaController controller(
      server, tenant,
      std::make_unique<AequitasController>(aeq_config(), sim::Rng(1)));
  int downgrades = 0;
  for (int i = 0; i < 50; ++i) {
    const auto decision =
        controller.admit(1e-3 + i * 1e-6, 0, 1, 0, 4096);
    if (decision.downgraded) {
      EXPECT_EQ(decision.qos_run, 2);  // lowest of 3 levels
      ++downgrades;
    }
  }
  EXPECT_GT(downgrades, 40);
  EXPECT_GT(controller.over_quota_count(), 0u);
}

TEST(QuotaControllerTest, ScavengerClassNeverGated) {
  sim::Simulator s;
  // Essentially zero budget
  auto server = std::make_shared<QuotaServer>(s, server_config(1.0));
  const auto tenant = server->register_tenant(1.0);
  QuotaController controller(
      server, tenant,
      std::make_unique<AequitasController>(aeq_config(), sim::Rng(1)));
  for (int i = 0; i < 20; ++i) {
    const auto decision = controller.admit(1e-3, 0, 1, 2, 1 << 20);
    EXPECT_EQ(decision.qos_run, 2);
    EXPECT_FALSE(decision.downgraded);
  }
}

TEST(QuotaControllerTest, TokensRefillOverTime) {
  sim::Simulator s;
  // Budget fits one 4KB RPC per millisecond.
  auto server = std::make_shared<QuotaServer>(s, server_config(4096.0 * 1000));
  const auto tenant = server->register_tenant(1.0);
  QuotaController controller(
      server, tenant,
      std::make_unique<AequitasController>(aeq_config(), sim::Rng(1)));
  // Exhaust the bucket...
  int admitted_burst = 0;
  for (int i = 0; i < 10; ++i) {
    if (!controller.admit(1e-3, 0, 1, 0, 4096).downgraded) ++admitted_burst;
  }
  EXPECT_LT(admitted_burst, 10);
  // ...then wait 5ms: 5 RPCs worth of tokens accrue, up to the bucket's
  // burst cap of two allocation intervals (2 RPCs).
  int admitted_later = 0;
  for (int i = 0; i < 10; ++i) {
    if (!controller.admit(6e-3, 0, 1, 0, 4096).downgraded) ++admitted_later;
  }
  EXPECT_GE(admitted_later, 1);
}

// The controller's audit sweep covers the shared quota server too, so a
// negative demand report aborts. AEQ_AUDIT builds already abort inside
// report_demand, hence the report sits inside the death statement.
TEST(QuotaControllerDeathTest, AuditCatchesNegativeDemandReport) {
  sim::Simulator s;
  auto server = std::make_shared<QuotaServer>(s, server_config());
  const auto tenant = server->register_tenant(1.0);
  QuotaController controller(
      server, tenant,
      std::make_unique<AequitasController>(aeq_config(), sim::Rng(1)));
  controller.audit_invariants(0.0);  // a clean server passes
  EXPECT_DEATH(
      {
        server->report_demand(tenant, 0, -1.0);
        controller.audit_invariants(0.0);
      },
      ">= 0\\.0 \\(-1 vs 0\\)");
}

// quota_tenants() hands each host its QuotaController itself, not behind a
// forwarding wrapper that would hide its gauges, so the audit and the
// timeseries see over_quota. Each experiment built from the config gets
// its own server: the second run repeats the first.
TEST(QuotaTenantsTest, HostsExposeOverQuotaAndEachRunGetsItsOwnServer) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 3;
  config.slo = aeq_config().slo;
  // A 20 MB/s budget: host 0's QoS_h traffic runs over quota, and its
  // buckets hold one 32 KiB RPC only once the server has re-divided the
  // budget by demand.
  config.admission.factory = quota_tenants(server_config(20e6), aeq_config(),
                                           {3.0, 1.0, 1.0});
  std::vector<double> over_quota;
  for (int run = 0; run < 2; ++run) {
    runner::Experiment experiment(config);
    const auto* sizes = experiment.own(
        std::make_unique<workload::FixedSize>(32 * sim::kKiB));
    workload::GeneratorConfig gen;
    gen.classes = {{rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(0, gen, workload::fixed_destination(2));
    experiment.run(0.0, 3 * sim::kMsec);
    for (net::HostId host = 0; host < 3; ++host) {
      const std::vector<rpc::Gauge> gauges =
          experiment.admission(host).gauges();
      const auto it =
          std::find_if(gauges.begin(), gauges.end(), [](const rpc::Gauge& g) {
            return std::string(g.name) == "over_quota";
          });
      ASSERT_NE(it, gauges.end()) << "host " << host;
      if (host == 0) over_quota.push_back(it->value);
    }
  }
  EXPECT_GT(over_quota[0], 0.0);
  EXPECT_EQ(over_quota[0], over_quota[1]);
}

}  // namespace
}  // namespace aeq::core
