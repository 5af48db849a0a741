// Sharded-execution property suite: the conservative-PDES executive
// (sim::ShardedSimulator + net::ShardFabric + topo::build_sharded_star)
// must reproduce the serial schedule exactly.
//
//  * ShardedSimulator unit tests: window protocol, adaptive horizon, the
//    cross-shard handoff hooks (landing at window start, and before every
//    return from run_until), a multi-window token-ring stress, and the
//    balanced shard plan.
//  * The determinism property: for a fixed seed, a 2- and 4-shard run
//    produces RpcMetrics identical to the serial run — same sample
//    multisets (percentiles, counts, maxima bit for bit), same byte/RPC
//    accounting — and the same event count (the cross-shard handoff costs
//    one tx-end plus one arrival event per packet, exactly like the serial
//    link pipeline), on both scheduler backends, with invariant auditing
//    enabled and clean.
//  * Event-count identity with audit off: the serial count equals the
//    audited one and every shard count reproduces it.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runner/experiment.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "topo/sharding.h"

namespace aeq {
namespace {

// ---------------------------------------------------------------------------
// ShardedSimulator unit tests
// ---------------------------------------------------------------------------

// A minimal CrossShardHandoff with net::ShardFabric's protocol: tokens
// sent during a window go to per-(src, dst) outboxes double-buffered by
// window parity, and each destination lands last window's tokens, in
// (source, FIFO) order, as events that call `deliver(dst, token)`.
class TokenHandoff final : public sim::CrossShardHandoff {
 public:
  using Deliver = std::function<void(std::size_t shard, int token)>;

  TokenHandoff(sim::ShardedSimulator& sharded, Deliver deliver)
      : sharded_(sharded),
        deliver_(std::move(deliver)),
        senders_(sharded.num_shards()) {
    for (auto& half : outboxes_) half.resize(shards() * shards());
    sharded_.set_handoff(this);
  }

  // Called from an event running on shard `src`.
  void send(std::size_t src, std::size_t dst, sim::Time arrival, int token) {
    Sender& sender = senders_[src];
    outboxes_[sender.parity][src * shards() + dst].push_back(
        {arrival, token});
    sender.earliest = std::min(sender.earliest, arrival);
  }

  void land_inbound(std::size_t k) override {
    Sender& own = senders_[k];
    const unsigned last = own.parity;
    own.parity ^= 1u;
    own.earliest = kNever;
    for (std::size_t src = 0; src < shards(); ++src) {
      for (const Token& msg : outboxes_[last][src * shards() + k]) {
        const int token = msg.token;
        sharded_.shard(k).schedule_at(
            msg.arrival, [this, k, token] { deliver_(k, token); });
      }
      outboxes_[last][src * shards() + k].clear();
    }
  }

  sim::Time earliest_pending() const override {
    sim::Time earliest = kNever;
    for (const Sender& sender : senders_) {
      earliest = std::min(earliest, sender.earliest);
    }
    return earliest;
  }

 private:
  static constexpr sim::Time kNever =
      std::numeric_limits<sim::Time>::infinity();
  struct Token {
    sim::Time arrival;
    int token;
  };
  struct Sender {
    unsigned parity = 0;
    sim::Time earliest = kNever;
  };

  std::size_t shards() const { return sharded_.num_shards(); }

  sim::ShardedSimulator& sharded_;
  Deliver deliver_;
  std::vector<Sender> senders_;
  std::array<std::vector<std::vector<Token>>, 2> outboxes_;
};

TEST(ShardedSimulatorTest, RunsEventsOnEveryShardAndSyncsClocks) {
  sim::ShardedSimulator sharded(3, sim::SchedulerBackend::kHeap,
                                /*lookahead=*/1.0);
  std::atomic<int> fired{0};
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    for (int i = 1; i <= 4; ++i) {
      sharded.shard(k).schedule_at(static_cast<double>(i),
                                   [&fired] { ++fired; });
    }
  }
  sharded.run_until(10.0);
  EXPECT_EQ(fired.load(), 12);
  EXPECT_DOUBLE_EQ(sharded.now(), 10.0);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    EXPECT_DOUBLE_EQ(sharded.shard(k).now(), 10.0) << "shard " << k;
  }
  EXPECT_EQ(sharded.events_processed(), 12u);
  EXPECT_EQ(sharded.pending_events(), 0u);
}

TEST(ShardedSimulatorTest, AdaptiveHorizonSkipsIdleGaps) {
  // Two events 1000 time units apart with lookahead 1: a fixed-step
  // window protocol would need ~1000 barriers; the adaptive horizon
  // chases the earliest pending event, so two windows suffice.
  sim::ShardedSimulator sharded(2, sim::SchedulerBackend::kHeap,
                                /*lookahead=*/1.0);
  int fired = 0;
  sharded.shard(0).schedule_at(1.0, [&fired] { ++fired; });
  sharded.shard(1).schedule_at(1000.0, [&fired] { ++fired; });
  sharded.run_until(2000.0);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(sharded.windows_executed(), 4u);
}

TEST(ShardedSimulatorTest, HandoffMayScheduleAcrossShards) {
  // Model the fabric handoff: forward a token from shard 0 into shard 1
  // at now + lookahead (the conservative-arrival bound).
  sim::ShardedSimulator sharded(2, sim::SchedulerBackend::kCalendar,
                                /*lookahead=*/0.5);
  std::vector<double> deliveries;
  TokenHandoff handoff(sharded, [&](std::size_t shard, int) {
    deliveries.push_back(sharded.shard(shard).now());
  });
  sharded.shard(0).schedule_at(1.0, [&] {
    handoff.send(0, 1, sharded.shard(0).now() + sharded.lookahead(), 0);
  });
  sharded.run_until(10.0);
  ASSERT_EQ(deliveries.size(), 1u);
  // The token left shard 0 at t=1 and landed one lookahead later or after.
  EXPECT_GE(deliveries[0], 1.0 + 0.5);
  EXPECT_LE(deliveries[0], 10.0);
}

TEST(ShardedSimulatorTest, TokenRingCrossesEveryWindowIntact) {
  // Every shard forwards each token it receives to the next shard one
  // lookahead later, so every window moves every token one hop: 10k
  // windows of park/wake, parity flips and FIFO landing. Lookahead 1 keeps
  // every time an exact integer.
  constexpr int kTokensPerShard = 3;
  constexpr int kHops = 10000;
  for (const std::size_t shards : {2u, 3u, 4u}) {
    sim::ShardedSimulator sharded(shards, sim::SchedulerBackend::kCalendar,
                                  /*lookahead=*/1.0);
    struct Delivery {
      sim::Time time;
      int token;
      bool operator==(const Delivery& other) const {
        return time == other.time && token == other.token;
      }
    };
    // Each shard's log is written only by the thread running that shard.
    std::vector<std::vector<Delivery>> log(shards);
    TokenHandoff* ring = nullptr;
    const auto on_token = [&](std::size_t k, int token) {
      const sim::Time now = sharded.shard(k).now();
      log[k].push_back({now, token});
      ring->send(k, (k + 1) % shards, now + sharded.lookahead(), token);
    };
    TokenHandoff handoff(sharded, on_token);
    ring = &handoff;
    for (std::size_t k = 0; k < shards; ++k) {
      for (int j = 0; j < kTokensPerShard; ++j) {
        const int token = static_cast<int>(k) * kTokensPerShard + j;
        sharded.shard(k).schedule_at(
            0.0, [&on_token, k, token] { on_token(k, token); });
      }
    }
    sharded.run_until(kHops + 0.5);
    EXPECT_GE(sharded.windows_executed(), static_cast<std::uint64_t>(kHops));
    for (std::size_t d = 0; d < shards; ++d) {
      // At time n shard d holds the tokens that started on shard d - n,
      // in their original (FIFO) order.
      std::vector<Delivery> expected;
      for (int n = 0; n <= kHops; ++n) {
        const std::size_t origin =
            (d + shards - static_cast<std::size_t>(n) % shards) % shards;
        for (int j = 0; j < kTokensPerShard; ++j) {
          expected.push_back({static_cast<sim::Time>(n),
                              static_cast<int>(origin) * kTokensPerShard + j});
        }
      }
      EXPECT_TRUE(log[d] == expected)
          << "shard " << d << " of " << shards << ": " << log[d].size()
          << " deliveries, expected " << expected.size();
      // The hop sent in the last window was landed before returning.
      EXPECT_DOUBLE_EQ(sharded.shard(d).next_event_time(), kHops + 1.0);
      EXPECT_EQ(sharded.shard(d).pending_events(),
                static_cast<std::size_t>(kTokensPerShard));
    }
    EXPECT_EQ(handoff.earliest_pending(),
              std::numeric_limits<sim::Time>::infinity());
  }
}

TEST(ShardedSimulatorTest, PendingHandoffLandsBeforeIdleReturn) {
  // The token outlives the lookahead (arrival 3 after its send), so after
  // the one window at t=1 nothing is due before t_end = 2.5 and run_until
  // returns through its idle path — with the token still in the handoff.
  // It must be landed into shard 1 before the call returns.
  sim::ShardedSimulator sharded(2, sim::SchedulerBackend::kHeap,
                                /*lookahead=*/1.0);
  std::vector<double> deliveries;
  TokenHandoff handoff(sharded, [&](std::size_t shard, int) {
    deliveries.push_back(sharded.shard(shard).now());
  });
  sharded.shard(0).schedule_at(1.0, [&] {
    handoff.send(0, 1, sharded.shard(0).now() + 3.0, 0);
  });
  sharded.run_until(2.5);
  EXPECT_EQ(sharded.windows_executed(), 1u);
  EXPECT_DOUBLE_EQ(sharded.now(), 2.5);
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(handoff.earliest_pending(),
            std::numeric_limits<sim::Time>::infinity());
  EXPECT_EQ(sharded.shard(1).pending_events(), 1u);
  EXPECT_DOUBLE_EQ(sharded.shard(1).next_event_time(), 4.0);
  sharded.run_until(10.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0], 4.0);
}

TEST(ShardedSimulatorTest, RepeatedRunUntilAdvancesMonotonically) {
  sim::ShardedSimulator sharded(2, sim::SchedulerBackend::kHeap, 1.0);
  int fired = 0;
  sharded.shard(0).schedule_at(1.0, [&fired] { ++fired; });
  sharded.shard(1).schedule_at(5.0, [&fired] { ++fired; });
  sharded.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sharded.now(), 3.0);
  sharded.run_until(8.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sharded.now(), 8.0);
}

TEST(ShardPlanTest, BlocksDifferByAtMostOneHostAndNoneIsEmpty) {
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> cases =
      {{5, {2, 1, 1, 1}},
       {9, {3, 2, 2, 2}},
       {33, {9, 8, 8, 8}},
       {576, {144, 144, 144, 144}}};
  for (const auto& [hosts, sizes] : cases) {
    topo::StarConfig star;
    star.num_hosts = hosts;
    const topo::ShardPlan plan = topo::make_shard_plan(star, 4);
    ASSERT_EQ(plan.shard_of_host.size(), hosts);
    std::vector<std::size_t> block(4, 0);
    for (std::size_t h = 0; h < hosts; ++h) {
      // Contiguous: shard ids never decrease along the host ids.
      if (h > 0) {
        EXPECT_GE(plan.shard_of_host[h], plan.shard_of_host[h - 1]);
      }
      ++block.at(plan.shard_of_host[h]);
    }
    EXPECT_EQ(block, sizes) << hosts << " hosts";
  }
}

// ---------------------------------------------------------------------------
// Shard-determinism property suite
// ---------------------------------------------------------------------------

// Everything RpcMetrics exposes that must be reproduced exactly. The
// tracker means are compared with a 1-ulp-scale tolerance instead: the
// per-shard merge adds the same samples in a different order, and float
// summation is not associative (see rpc::RpcMetrics::merge).
struct MetricsSnapshot {
  std::uint64_t total_completed = 0;
  std::vector<std::uint64_t> completed;
  std::vector<std::uint64_t> downgraded;
  std::vector<std::uint64_t> terminated;
  std::vector<std::uint64_t> bytes_requested;
  std::vector<std::uint64_t> bytes_admitted;
  std::vector<std::uint64_t> bytes_completed;
  std::vector<std::uint64_t> slo_eligible;
  std::vector<std::uint64_t> slo_met;
  std::vector<std::uint64_t> rnl_count;
  std::vector<double> rnl_p50;
  std::vector<double> rnl_p99;
  std::vector<double> rnl_p999;
  std::vector<double> rnl_max;
  std::vector<double> rnl_mean;
  std::vector<double> rnl_per_mtu_p999;
};

MetricsSnapshot snapshot(const rpc::RpcMetrics& metrics,
                         std::size_t num_qos) {
  MetricsSnapshot snap;
  snap.total_completed = metrics.total_completed();
  for (std::size_t q = 0; q < num_qos; ++q) {
    const auto qos = static_cast<net::QoSLevel>(q);
    snap.completed.push_back(metrics.completed(qos));
    snap.downgraded.push_back(metrics.downgraded(qos));
    snap.terminated.push_back(metrics.terminated(qos));
    snap.bytes_requested.push_back(metrics.bytes_requested(qos));
    snap.bytes_admitted.push_back(metrics.bytes_admitted(qos));
    snap.bytes_completed.push_back(metrics.bytes_completed(qos));
    snap.slo_eligible.push_back(metrics.slo_eligible(qos));
    snap.slo_met.push_back(metrics.slo_met(qos));
    const auto& rnl = metrics.rnl_by_run_qos(qos);
    snap.rnl_count.push_back(rnl.count());
    snap.rnl_p50.push_back(rnl.p50());
    snap.rnl_p99.push_back(rnl.p99());
    snap.rnl_p999.push_back(rnl.p999());
    snap.rnl_max.push_back(rnl.max());
    snap.rnl_mean.push_back(rnl.mean());
    snap.rnl_per_mtu_p999.push_back(
        metrics.rnl_per_mtu_by_run_qos(qos).p999());
  }
  return snap;
}

void expect_identical(const MetricsSnapshot& serial,
                      const MetricsSnapshot& sharded, std::size_t shards) {
  const std::string label = " (shards=" + std::to_string(shards) + ")";
  EXPECT_EQ(serial.total_completed, sharded.total_completed) << label;
  ASSERT_EQ(serial.completed.size(), sharded.completed.size()) << label;
  for (std::size_t q = 0; q < serial.completed.size(); ++q) {
    const std::string at = "qos=" + std::to_string(q) + label;
    EXPECT_EQ(serial.completed[q], sharded.completed[q]) << at;
    EXPECT_EQ(serial.downgraded[q], sharded.downgraded[q]) << at;
    EXPECT_EQ(serial.terminated[q], sharded.terminated[q]) << at;
    EXPECT_EQ(serial.bytes_requested[q], sharded.bytes_requested[q]) << at;
    EXPECT_EQ(serial.bytes_admitted[q], sharded.bytes_admitted[q]) << at;
    EXPECT_EQ(serial.bytes_completed[q], sharded.bytes_completed[q]) << at;
    EXPECT_EQ(serial.slo_eligible[q], sharded.slo_eligible[q]) << at;
    EXPECT_EQ(serial.slo_met[q], sharded.slo_met[q]) << at;
    EXPECT_EQ(serial.rnl_count[q], sharded.rnl_count[q]) << at;
    // Same sample multiset => order statistics match bit for bit.
    EXPECT_EQ(serial.rnl_p50[q], sharded.rnl_p50[q]) << at;
    EXPECT_EQ(serial.rnl_p99[q], sharded.rnl_p99[q]) << at;
    EXPECT_EQ(serial.rnl_p999[q], sharded.rnl_p999[q]) << at;
    EXPECT_EQ(serial.rnl_max[q], sharded.rnl_max[q]) << at;
    EXPECT_EQ(serial.rnl_per_mtu_p999[q], sharded.rnl_per_mtu_p999[q]) << at;
    // Summation order differs across the merge: ulp-scale tolerance.
    EXPECT_NEAR(serial.rnl_mean[q], sharded.rnl_mean[q],
                1e-12 * (1.0 + std::abs(serial.rnl_mean[q])))
        << at;
  }
}

runner::ExperimentConfig sharded_config(std::size_t shards,
                                        sim::SchedulerBackend backend,
                                        bool audit) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.num_hosts = 8;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
  config.rnl_per_mtu = true;  // the per-MTU samples fold across shards too
  config.shards = shards;
  config.audit = audit;
  config.seed = 42;
  return config;
}

struct RunResult {
  MetricsSnapshot metrics;
  std::uint64_t events = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t audit_passes = 0;
};

RunResult run_mixed_workload(std::size_t shards,
                             sim::SchedulerBackend backend, bool audit) {
  auto config = sharded_config(shards, backend, audit);
  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  // Aggregate offered load just above capacity so admission control has
  // real work (downgrades and SLO misses appear in the snapshot).
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kNC, 0.4 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  experiment.run(0.5 * sim::kMsec, 1.5 * sim::kMsec, 1.0 * sim::kMsec);

  RunResult result;
  result.metrics = snapshot(experiment.metrics(), config.num_qos);
  result.events = experiment.events_processed();
  if (experiment.shard_fabric() != nullptr) {
    result.cross_shard = experiment.shard_fabric()->cross_shard_packets();
  }
  if (experiment.auditor() != nullptr) {
    result.audit_passes = experiment.auditor()->passes();
  }
  return result;
}

class ShardDeterminismTest
    : public ::testing::TestWithParam<sim::SchedulerBackend> {};

// The defining constraint: same seed, any shard count, identical metrics
// and event counts — with auditing on and clean (a violated invariant
// aborts). The sharded executive dispatches exactly the serial event
// count: the handoff path costs one tx-end plus one arrival event per
// packet, like the serial two-event link pipeline, and audit sweeps run
// at executive stops, not as events.
TEST_P(ShardDeterminismTest, SameSeedAnyShardCountSameMetrics) {
  const auto backend = GetParam();
  const RunResult serial = run_mixed_workload(1, backend, /*audit=*/true);
  ASSERT_GT(serial.metrics.total_completed, 500u);
  ASSERT_GT(serial.metrics.downgraded[0], 0u)
      << "workload too light to exercise admission control";
  ASSERT_GT(serial.audit_passes, 0u);

  for (std::size_t shards : {2u, 4u}) {
    const RunResult parallel = run_mixed_workload(shards, backend, true);
    expect_identical(serial.metrics, parallel.metrics, shards);
    EXPECT_EQ(serial.events, parallel.events) << "shards=" << shards;
    EXPECT_GT(parallel.cross_shard, 0u)
        << "no cross-shard traffic: the test is not exercising the cut";
    EXPECT_EQ(parallel.audit_passes, serial.audit_passes)
        << "shards=" << shards;
  }
}

// With audit off, the sharded executive still dispatches exactly the serial
// event count, and that count equals the audited one: audit sweeps add no
// events at any shard count.
TEST_P(ShardDeterminismTest, EventCountMatchesSerialWithAuditOff) {
  const auto backend = GetParam();
  const RunResult serial = run_mixed_workload(1, backend, /*audit=*/false);
  EXPECT_EQ(serial.audit_passes, 0u);
  const RunResult audited = run_mixed_workload(1, backend, /*audit=*/true);
  EXPECT_EQ(serial.events, audited.events);
  expect_identical(serial.metrics, audited.metrics, 1);
  for (std::size_t shards : {2u, 4u}) {
    const RunResult parallel = run_mixed_workload(shards, backend, false);
    EXPECT_EQ(serial.events, parallel.events) << "shards=" << shards;
    expect_identical(serial.metrics, parallel.metrics, shards);
  }
}

// Reruns of the same sharded configuration are bit-stable (thread timing
// must not leak into the simulation).
TEST_P(ShardDeterminismTest, ShardedRunIsReproducible) {
  const auto backend = GetParam();
  const RunResult a = run_mixed_workload(2, backend, /*audit=*/false);
  const RunResult b = run_mixed_workload(2, backend, /*audit=*/false);
  expect_identical(a.metrics, b.metrics, 2);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cross_shard, b.cross_shard);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, ShardDeterminismTest,
    ::testing::Values(sim::SchedulerBackend::kHeap,
                      sim::SchedulerBackend::kCalendar),
    [](const ::testing::TestParamInfo<sim::SchedulerBackend>& param) {
      return param.param == sim::SchedulerBackend::kHeap ? "heap"
                                                         : "calendar";
    });

}  // namespace
}  // namespace aeq
