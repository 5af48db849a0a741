// Tests for the parallel sweep runner: seed derivation (stable,
// platform-independent, collision-free), jobs resolution, submission-order
// result delivery, byte-identical output for any worker count, parity with
// a directly-run serial Experiment, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "runner/sweep.h"
#include "sim/rng.h"
#include "stats/table.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::runner {
namespace {

// --- seed derivation -------------------------------------------------------

// Hard-coded values from the reference SplitMix64 sequence; if these ever
// change, previously published results are no longer reproducible.
TEST(SeedDerivationTest, GoldenValuesStable) {
  EXPECT_EQ(sim::splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(sim::splitmix64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(sim::splitmix64(0xDEADBEEFull), 0x4adfb90f68c9eb9bull);
  EXPECT_EQ(sim::derive_seed(1, 0), 0x910a2dec89025cc1ull);
  EXPECT_EQ(sim::derive_seed(1, 1), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(sim::derive_seed(1, 2), 0xf893a2eefb32555eull);
  EXPECT_EQ(sim::derive_seed(42, 7), 0xccf635ee9e9e2fa4ull);
}

TEST(SeedDerivationTest, DistinctAcrossIndices) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(sim::derive_seed(1, i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SeedDerivationTest, DistinctAcrossBaseSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 100; ++base) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      seen.insert(sim::derive_seed(base, i));
    }
  }
  // Nearby (base, index) pairs collide in the *input* (base+1, i) ==
  // (base, i+phi) only when the golden-ratio stride aligns, which it never
  // does for small values; the mix keeps all 10k outputs distinct.
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SeedDerivationTest, StreamsDiverge) {
  // Adjacent point seeds must not produce correlated Rng streams: compare
  // the first draws of neighbouring points.
  sim::Rng a(sim::derive_seed(1, 0));
  sim::Rng b(sim::derive_seed(1, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// --- jobs resolution -------------------------------------------------------

// The --jobs flag is the only way to size the pool: a positive value wins,
// and a non-positive one means the hardware concurrency (at least 1).
TEST(JobsResolutionTest, FlagWinsOverEnvironment) {
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(-1), default_jobs());
  EXPECT_GE(default_jobs(), 1u);
}

// --- sweep runner ----------------------------------------------------------

SweepOptions options_with(std::size_t jobs, std::uint64_t base_seed = 1) {
  SweepOptions options;
  options.jobs = jobs;
  options.base_seed = base_seed;
  return options;
}

TEST(SweepRunnerTest, ResultsArriveInSubmissionOrder) {
  SweepRunner sweep(options_with(8));
  for (int i = 0; i < 32; ++i) {
    sweep.submit([i](const PointContext& ctx) {
      PointResult result;
      result.metrics["index"] = static_cast<double>(i);
      result.metrics["ctx_index"] = static_cast<double>(ctx.index);
      return result;
    });
  }
  const auto results = sweep.run();
  ASSERT_EQ(results.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(results[i].metrics.at("index"), i);
    EXPECT_EQ(results[i].metrics.at("ctx_index"), i);
  }
}

TEST(SweepRunnerTest, PointSeedsFollowDerivation) {
  SweepRunner sweep(options_with(4, /*base_seed=*/99));
  std::vector<std::uint64_t> seeds(8, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    sweep.submit([&seeds, i](const PointContext& ctx) {
      seeds[i] = ctx.seed;  // distinct slots — no data race
      return PointResult{};
    });
  }
  sweep.run();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seeds[i], sim::derive_seed(99, i));
    EXPECT_EQ(sweep.point_seed(i), sim::derive_seed(99, i));
  }
}

// The core determinism contract: structured results (and therefore any
// table rendered from them) are identical for --jobs 1 and --jobs 8.
TEST(SweepRunnerTest, JobCountDoesNotChangeResults) {
  auto run_sweep = [](std::size_t jobs) {
    SweepRunner sweep(options_with(jobs, /*base_seed=*/7));
    for (int i = 0; i < 12; ++i) {
      sweep.submit([](const PointContext& ctx) {
        sim::Rng rng(ctx.seed);
        double acc = 0.0;
        for (int k = 0; k < 1000; ++k) acc += rng.uniform(0.0, 1.0);
        return PointResult::single(
            {static_cast<double>(ctx.index), stats::Cell(acc, 6)});
      });
    }
    return sweep.run();
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());

  stats::Table table_serial({{"i", 6, 0}, {"acc", 14, 6}});
  stats::Table table_parallel(table_serial.columns());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].rows.size(), parallel[i].rows.size());
    table_serial.add_rows(serial[i].rows);
    table_parallel.add_rows(parallel[i].rows);
  }
  EXPECT_EQ(table_serial.to_string(), table_parallel.to_string());
}

// A point run through the sweep must match the same Experiment constructed
// directly with the derived seed — the harness adds no hidden state.
TEST(SweepRunnerTest, MatchesDirectSerialExperiment) {
  auto run_experiment = [](std::uint64_t seed) {
    ExperimentConfig config;
    config.num_hosts = 3;
    config.num_qos = 2;
    config.wfq_weights = {4.0, 1.0};
    config.seed = seed;
    config.slo = rpc::SloConfig::make({15.0 / 8 * sim::kUsec, 0.0}, 99.9);
    Experiment experiment(config);
    const auto* sizes = experiment.own(
        std::make_unique<workload::FixedSize>(32 * sim::kKiB));
    workload::GeneratorConfig gen;
    gen.classes = {{rpc::Priority::kPC, 0.7 * sim::gbps(100), sizes, 0.0},
                   {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(0, gen, workload::fixed_destination(2));
    experiment.run(1 * sim::kMsec, 2 * sim::kMsec);
    PointResult result;
    result.metrics["completed"] =
        static_cast<double>(experiment.metrics().completed(0));
    result.metrics["p999"] = experiment.metrics().rnl_by_run_qos(0).p999();
    result.metrics["share"] = experiment.metrics().admitted_share(0);
    return result;
  };

  SweepRunner sweep(options_with(4, /*base_seed=*/5));
  for (int i = 0; i < 4; ++i) {
    sweep.submit(
        [&](const PointContext& ctx) { return run_experiment(ctx.seed); });
  }
  const auto results = sweep.run();
  for (std::size_t i = 0; i < 4; ++i) {
    const PointResult direct = run_experiment(sim::derive_seed(5, i));
    EXPECT_EQ(results[i].metrics, direct.metrics) << "point " << i;
  }
}

TEST(SweepRunnerTest, LowestIndexExceptionWins) {
  SweepRunner sweep(options_with(4));
  for (int i = 0; i < 8; ++i) {
    sweep.submit([i](const PointContext&) -> PointResult {
      if (i == 3 || i == 5) {
        throw std::runtime_error("point " + std::to_string(i));
      }
      return PointResult{};
    });
  }
  try {
    sweep.run();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "point 3");
  }
}

TEST(SweepRunnerTest, RunTwiceDoesNotReExecutePoints) {
  std::atomic<int> executions{0};
  SweepRunner sweep(options_with(2));
  for (int i = 0; i < 4; ++i) {
    sweep.submit([&executions, i](const PointContext&) {
      executions.fetch_add(1);
      PointResult result;
      result.metrics["i"] = static_cast<double>(i);
      return result;
    });
  }
  const auto first = sweep.run();
  const auto second = sweep.run();
  EXPECT_EQ(executions.load(), 4);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].metrics, second[i].metrics);
  }
}

TEST(ParallelPointsTest, ReturnsRichPayloadsInOrder) {
  const auto values = parallel_points(
      10, 4, [](std::size_t index) { return std::vector<int>(index, 1); });
  ASSERT_EQ(values.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(values[i].size(), i);
  }
}

TEST(ParallelPointsTest, MoreJobsThanPoints) {
  const auto values =
      parallel_points(2, 16, [](std::size_t index) { return index * 3; });
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 0u);
  EXPECT_EQ(values[1], 3u);
}

}  // namespace
}  // namespace aeq::runner
