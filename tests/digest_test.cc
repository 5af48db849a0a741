// Schedule-digest property suite (sim/digest.h, DESIGN.md §12).
//
// The digest is the executable form of the determinism contract: for a
// fixed seed its canonical fingerprint must be identical
//   * across repeated runs in one process,
//   * across the heap and calendar scheduler backends,
//   * across shard counts 1/2/4 (serial vs conservative-PDES executive),
//   * with the observers (audit, windowed telemetry, samplers) on or off,
// and must CHANGE when the seed changes. CI additionally diffs it across
// two processes with different address-space layouts (the ASLR smoke step);
// this file covers everything observable inside one process.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runner/experiment.h"
#include "sim/digest.h"
#include "workload/size_dist.h"

namespace aeq {
namespace {

// ---------------------------------------------------------------------------
// ScheduleDigest unit behavior
// ---------------------------------------------------------------------------

TEST(ScheduleDigest, OrderedFoldIsOrderSensitiveCanonicalIsNot) {
  sim::ScheduleDigest forward;
  forward.record(1.0, 3);
  forward.record(2.0, sim::kTieRankDefault);
  sim::ScheduleDigest backward;
  backward.record(2.0, sim::kTieRankDefault);
  backward.record(1.0, 3);
  EXPECT_NE(forward.ordered, backward.ordered);
  EXPECT_EQ(forward.canonical(), backward.canonical());
  EXPECT_EQ(forward.count, 2u);
}

TEST(ScheduleDigest, MergeMatchesSingleStreamCanonical) {
  // Splitting a stream across two digests and merging equals recording the
  // whole stream into one — the property the sharded merge relies on.
  sim::ScheduleDigest whole;
  sim::ScheduleDigest part_a;
  sim::ScheduleDigest part_b;
  for (int i = 0; i < 100; ++i) {
    const sim::Time t = 0.25 * i;
    const auto rank = static_cast<std::uint16_t>(i % 5);
    whole.record(t, rank);
    (i % 2 == 0 ? part_a : part_b).record(t, rank);
  }
  sim::ScheduleDigest merged;
  merged.merge(part_a);
  merged.merge(part_b);
  EXPECT_EQ(merged.canonical(), whole.canonical());
  EXPECT_EQ(merged.count, whole.count);
}

TEST(ScheduleDigest, RankChangesTheDigest) {
  sim::ScheduleDigest a;
  a.record(1.0, 0);
  sim::ScheduleDigest b;
  b.record(1.0, 1);
  EXPECT_NE(a.canonical(), b.canonical());
}

TEST(ScheduleDigest, HexIsSixteenLowercaseDigits) {
  sim::ScheduleDigest digest;
  digest.record(1.0, 0);
  const std::string hex = digest.hex();
  ASSERT_EQ(hex.size(), 16u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

// ---------------------------------------------------------------------------
// End-to-end properties over a real admission-control workload
// ---------------------------------------------------------------------------

struct DigestRun {
  std::uint64_t canonical = 0;
  std::uint64_t ordered = 0;
  std::uint64_t count = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t observations = 0;  // audit passes + windows + samples
};

// `observers` turns on the audit sweep and, serially (the only mode the
// windowed telemetry and samplers support), the timeseries, the watchdog
// and one sampler.
DigestRun run_workload(std::size_t shards, sim::SchedulerBackend backend,
                       std::uint64_t seed, bool digest = true,
                       bool observers = true) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.num_hosts = 8;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
  config.shards = shards;
  config.audit = observers;
  config.telemetry.watchdog = observers && shards == 1;
  config.schedule_digest = digest;
  config.seed = seed;

  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kNC, 0.4 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  std::uint64_t samples = 0;
  if (observers && shards == 1) {
    experiment.sample_every(30 * sim::kUsec,
                            [&samples](sim::Time) { ++samples; });
  }
  experiment.run(0.2 * sim::kMsec, 0.8 * sim::kMsec, 0.5 * sim::kMsec);

  const sim::ScheduleDigest d = experiment.schedule_digest();
  DigestRun result;
  result.canonical = d.canonical();
  result.ordered = d.ordered;
  result.count = d.count;
  result.events = experiment.events_processed();
  result.completed = experiment.metrics().total_completed();
  result.observations = samples;
  if (experiment.auditor() != nullptr) {
    result.observations += experiment.auditor()->passes();
  }
  if (experiment.timeseries() != nullptr) {
    result.observations += experiment.timeseries()->windows_closed();
  }
  return result;
}

TEST(ScheduleDigestRuns, SameSeedTwiceIsIdentical) {
  const DigestRun a = run_workload(1, sim::SchedulerBackend::kCalendar, 42);
  const DigestRun b = run_workload(1, sim::SchedulerBackend::kCalendar, 42);
  ASSERT_GT(a.count, 10000u) << "workload too light to mean anything";
  EXPECT_EQ(a.ordered, b.ordered);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.count, b.count);
}

TEST(ScheduleDigestRuns, HeapAndCalendarDispatchTheSameSchedule) {
  const DigestRun heap = run_workload(1, sim::SchedulerBackend::kHeap, 42);
  const DigestRun cal =
      run_workload(1, sim::SchedulerBackend::kCalendar, 42);
  // Serial runs share a global dispatch order, so even the order-sensitive
  // fold must match across backends.
  EXPECT_EQ(heap.ordered, cal.ordered);
  EXPECT_EQ(heap.canonical, cal.canonical);
  EXPECT_EQ(heap.count, cal.count);
}

// The canonical digest is a commutative sum, blind to two events trading
// places; the ordered fold is not. Pinning the fold and the count holds any
// change to the dispatch machinery (the store, its backends, the transition
// sources) to the exact serial dispatch order, on both backends.
TEST(ScheduleDigestRuns, SerialDispatchOrderIsPinned) {
  constexpr std::uint64_t kOrdered = 0x67553fc5e2f0d24aull;
  constexpr std::uint64_t kCount = 242370;
  for (const auto backend :
       {sim::SchedulerBackend::kHeap, sim::SchedulerBackend::kCalendar}) {
    const DigestRun run = run_workload(1, backend, 42);
    EXPECT_EQ(run.ordered, kOrdered) << sim::backend_name(backend);
    EXPECT_EQ(run.count, kCount) << sim::backend_name(backend);
    EXPECT_EQ(run.events, kCount) << sim::backend_name(backend);
  }
}

class ShardDigestTest
    : public ::testing::TestWithParam<sim::SchedulerBackend> {};

TEST_P(ShardDigestTest, ShardCountsOneTwoFourAgree) {
  const auto backend = GetParam();
  const DigestRun serial = run_workload(1, backend, 42);
  ASSERT_GT(serial.count, 10000u);
  for (std::size_t shards : {2u, 4u}) {
    const DigestRun sharded = run_workload(shards, backend, 42);
    EXPECT_EQ(sharded.canonical, serial.canonical) << shards << " shards";
    EXPECT_EQ(sharded.count, serial.count) << shards << " shards";
  }
}

// Observers read the model at executive stops and never enter its event
// schedule, so turning them on changes neither the digest nor the event
// count: serially with the audit, timeseries, watchdog and a sampler, and
// at 4 shards with the audit.
TEST_P(ShardDigestTest, ObserversLeaveTheScheduleUnchanged) {
  const auto backend = GetParam();
  for (std::size_t shards : {1u, 4u}) {
    const DigestRun off = run_workload(shards, backend, 42, true, false);
    const DigestRun on = run_workload(shards, backend, 42, true, true);
    ASSERT_EQ(off.observations, 0u);
    ASSERT_GT(on.observations, 0u) << shards << " shards";
    EXPECT_EQ(on.canonical, off.canonical) << shards << " shards";
    EXPECT_EQ(on.events, off.events) << shards << " shards";
    EXPECT_EQ(on.completed, off.completed) << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardDigestTest,
                         ::testing::Values(sim::SchedulerBackend::kHeap,
                                           sim::SchedulerBackend::kCalendar),
                         [](const auto& param_info) {
                           return std::string(
                               sim::backend_name(param_info.param));
                         });

TEST(ScheduleDigestRuns, DifferentSeedDiffers) {
  const DigestRun a = run_workload(1, sim::SchedulerBackend::kCalendar, 42);
  const DigestRun b = run_workload(1, sim::SchedulerBackend::kCalendar, 43);
  EXPECT_NE(a.canonical, b.canonical);
}

TEST(ScheduleDigestRuns, DigestDoesNotPerturbTheRun) {
  const DigestRun with = run_workload(1, sim::SchedulerBackend::kCalendar,
                                      42, /*digest=*/true);
  const DigestRun without = run_workload(1, sim::SchedulerBackend::kCalendar,
                                         42, /*digest=*/false);
  EXPECT_EQ(with.completed, without.completed);
  EXPECT_EQ(without.count, 0u);  // off means off: nothing accumulated
}

}  // namespace
}  // namespace aeq
