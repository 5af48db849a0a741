// Workload tests: size distributions (means, bounds, CDF shape), arrival
// processes (rates, burst envelope), and the traffic generator's offered
// load and QoS mix.
#include <gtest/gtest.h>

#include <memory>

#include "rpc/metrics.h"
#include "runner/experiment.h"
#include "workload/arrival.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::workload {
namespace {

TEST(SizeDistTest, FixedSamplesItsSize) {
  sim::Rng rng(1);
  FixedSize fixed(32768);
  EXPECT_EQ(fixed.sample(rng), 32768u);
  EXPECT_DOUBLE_EQ(fixed.mean_bytes(), 32768.0);
}

TEST(SizeDistTest, EmpiricalInterpolatesAndMatchesMean) {
  sim::Rng rng(3);
  EmpiricalSize dist({{0.0, 1000}, {0.5, 1000}, {1.0, 9000}});
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(dist.sample(rng));
  // Mean: 0.5*1000 + 0.5*avg(1000,9000) = 500 + 2500 = 3000... wait:
  // first segment contributes 0.5 * avg(1000,1000) = 500; second
  // 0.5 * avg(1000,9000) = 2500; total 3000.
  EXPECT_DOUBLE_EQ(dist.mean_bytes(), 3000.0);
  EXPECT_NEAR(sum / n, 3000.0, 60.0);
}

TEST(SizeDistTest, ProductionShapesOrdered) {
  // BE >> NC >> PC in mean size; PC still has a large tail (Figure 1).
  auto pc = production_size_dist(rpc::Priority::kPC);
  auto nc = production_size_dist(rpc::Priority::kNC);
  auto be = production_size_dist(rpc::Priority::kBE);
  EXPECT_LT(pc->mean_bytes(), nc->mean_bytes());
  EXPECT_LT(nc->mean_bytes(), be->mean_bytes());
  sim::Rng rng(4);
  std::uint64_t pc_max = 0;
  for (int i = 0; i < 100000; ++i) {
    pc_max = std::max(pc_max, pc->sample(rng));
  }
  EXPECT_GT(pc_max, 200000u);  // the misalignment tail exists
}

TEST(ArrivalTest, PoissonRateMatches) {
  sim::Rng rng(5);
  PoissonArrivals arrivals(10000.0);
  sim::Time t = 0.0;
  int count = 0;
  while (t < 1.0) {
    t = arrivals.next_arrival(t, rng);
    ++count;
  }
  EXPECT_NEAR(count, 10000, 300);
}

TEST(ArrivalTest, BurstCycleAverageRatePreserved) {
  sim::Rng rng(6);
  BurstCycleArrivals arrivals(10000.0, 1.75, 100 * sim::kUsec);
  sim::Time t = 0.0;
  int count = 0;
  while (t < 1.0) {
    t = arrivals.next_arrival(t, rng);
    ++count;
  }
  EXPECT_NEAR(count, 10000, 300);
}

TEST(ArrivalTest, BurstCycleConfinesArrivalsToWindow) {
  sim::Rng rng(7);
  const sim::Time period = 100 * sim::kUsec;
  const double burst_over_avg = 2.0;  // window = 50us of each 100us
  BurstCycleArrivals arrivals(1e6, burst_over_avg, period);
  EXPECT_DOUBLE_EQ(arrivals.burst_window(), 50 * sim::kUsec);
  sim::Time t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t = arrivals.next_arrival(t, rng);
    const double phase = std::fmod(t, period);
    EXPECT_LE(phase, 50 * sim::kUsec + 1e-9) << "arrival outside burst";
  }
}

TEST(ArrivalTest, StrictlyIncreasing) {
  sim::Rng rng(8);
  BurstCycleArrivals arrivals(1e7, 1.75, 100 * sim::kUsec);
  sim::Time t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const sim::Time next = arrivals.next_arrival(t, rng);
    EXPECT_GT(next, t);
    t = next;
  }
}

TEST(GeneratorTest, OfferedLoadAndMixMatchConfig) {
  // Drive a 3-host experiment without admission control at moderate load
  // and verify the generator's byte mix approximates the configured one.
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 3;
  config.admission.kind = policy::kAlwaysAdmit;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  const auto* sizes =
      experiment.own(std::make_unique<FixedSize>(32 * sim::kKiB));
  GeneratorConfig gen;
  const double rate = 0.3 * sim::gbps(100);
  gen.classes = {{rpc::Priority::kPC, 0.6 * rate, sizes, 0.0},
                 {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                 {rpc::Priority::kBE, 0.1 * rate, sizes, 0.0}};
  experiment.add_generator(0, gen, fixed_destination(2));
  experiment.run(0.0, 20 * sim::kMsec);

  const auto& metrics = experiment.metrics();
  std::uint64_t total = 0;
  for (net::QoSLevel q = 0; q < 3; ++q) total += metrics.bytes_requested(q);
  const auto share = [&](net::QoSLevel q) {
    return static_cast<double>(metrics.bytes_requested(q)) /
           static_cast<double>(total);
  };
  EXPECT_NEAR(share(0), 0.6, 0.05);
  EXPECT_NEAR(share(1), 0.3, 0.05);
  EXPECT_NEAR(share(2), 0.1, 0.05);
  // Offered ~0.3*12.5GB/s*20ms = 75MB total.
  EXPECT_NEAR(static_cast<double>(total), 75e6, 12e6);
}

}  // namespace
}  // namespace aeq::workload
