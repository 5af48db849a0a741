// Queue-discipline tests: FIFO/SPQ basics, WFQ bandwidth shares and
// work-conservation properties, DWRR shares, pFabric's priority
// dequeue/eviction rules, and block reuse across queues on one packet
// buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "net/dwrr.h"
#include "net/fifo_queue.h"
#include "net/pfabric_queue.h"
#include "net/queue_factory.h"
#include "net/spq.h"
#include "net/wfq.h"

namespace aeq::net {
namespace {

// `seq` tags each packet so a test can tell which one a queue served.
Packet make_packet(QoSLevel qos, std::uint32_t size, std::uint64_t seq = 0) {
  Packet p;
  p.seq = seq;
  p.qos = qos;
  p.size_bytes = size;
  return p;
}

TEST(FifoQueueTest, FifoOrderAndTailDrop) {
  util::BlockPool buffer;
  FifoQueue q(buffer, /*capacity_bytes=*/2000);
  EXPECT_TRUE(q.enqueue(make_packet(0, 1000, 1)));
  EXPECT_TRUE(q.enqueue(make_packet(0, 1000, 2)));
  EXPECT_FALSE(q.enqueue(make_packet(0, 1, 3)));  // full
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(SpqQueueTest, StrictPriorityOrder) {
  util::BlockPool buffer;
  SpqQueue q(buffer, 3);
  ASSERT_TRUE(q.enqueue(make_packet(2, 100, 1)));
  ASSERT_TRUE(q.enqueue(make_packet(0, 100, 2)));
  ASSERT_TRUE(q.enqueue(make_packet(1, 100, 3)));
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_EQ(q.dequeue()->seq, 3u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
}

TEST(SpqQueueTest, LowPriorityStarvesUnderHighLoad) {
  util::BlockPool buffer;
  SpqQueue q(buffer, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(1, 100)));
    ASSERT_TRUE(q.enqueue(make_packet(0, 100)));
  }
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.dequeue()->qos, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.dequeue()->qos, 1);
}

// Under continuous backlog, each WFQ class should receive service close to
// its weight share.
class WfqShareTest : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(WfqShareTest, BandwidthShareMatchesWeights) {
  const std::vector<double> weights = GetParam();
  util::BlockPool buffer;
  WfqQueue q(buffer, weights);
  const std::uint32_t pkt = 1000;
  const int per_class = 400;
  for (int i = 0; i < per_class; ++i) {
    for (std::size_t c = 0; c < weights.size(); ++c) {
      ASSERT_TRUE(q.enqueue(make_packet(static_cast<QoSLevel>(c), pkt)));
    }
  }
  // Serve only `per_class` packets so even a 0.9-share class cannot drain
  // its 400-packet backlog and every class stays backlogged throughout.
  const int serve = per_class;
  std::vector<int> served(weights.size(), 0);
  for (int i = 0; i < serve; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    ++served[p->qos];
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    const double share = static_cast<double>(served[c]) / serve;
    const double expected = weights[c] / total_weight;
    EXPECT_NEAR(share, expected, 0.02)
        << "class " << c << " share " << share << " expected " << expected;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightMixes, WfqShareTest,
    ::testing::Values(std::vector<double>{4.0, 1.0},
                      std::vector<double>{8.0, 4.0, 1.0},
                      std::vector<double>{50.0, 4.0, 1.0},
                      std::vector<double>{1.0, 1.0},
                      std::vector<double>{16.0, 8.0, 4.0, 2.0, 1.0}));

TEST(WfqQueueTest, WorkConservingWhenOneClassIdle) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {4.0, 1.0});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  // Only the low class has traffic: it gets the full link.
  for (int i = 0; i < 10; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->qos, 1);
  }
  EXPECT_TRUE(q.empty());
}

TEST(WfqQueueTest, NewlyBackloggedClassGetsNoIdleCredit) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {1.0, 1.0});
  // Class 1 builds a backlog while class 0 is idle.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(q.dequeue().has_value());
  // Class 0 wakes up: it should now share 50/50, not monopolize the link
  // with accumulated credit.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
  int served0 = 0;
  for (int i = 0; i < 50; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    if (p->qos == 0) ++served0;
  }
  EXPECT_NEAR(served0, 25, 2);
}

TEST(WfqQueueTest, PerClassFifoOrder) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {4.0, 1.0});
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(0, 1000, i)));
  }
  std::uint64_t last = 0;
  while (auto p = q.dequeue()) {
    EXPECT_GT(p->seq, last);
    last = p->seq;
  }
}

TEST(WfqQueueTest, SharedBufferTailDrop) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {4.0, 1.0}, /*capacity_bytes=*/2500);
  EXPECT_TRUE(q.enqueue(make_packet(0, 1000)));
  EXPECT_TRUE(q.enqueue(make_packet(1, 1000)));
  EXPECT_FALSE(q.enqueue(make_packet(0, 1000)));  // would exceed 2500
  EXPECT_EQ(q.backlog_bytes(), 2000u);
  EXPECT_EQ(q.class_backlog_bytes(0), 1000u);
  EXPECT_EQ(q.class_backlog_bytes(1), 1000u);
}

TEST(WfqQueueTest, PerClassDropCountersAttributeSharedBufferDrops) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {4.0, 1.0}, /*capacity_bytes=*/2500);
  ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
  ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  // Shared buffer is full: the drop is charged to the arriving class, even
  // though the buffer pressure comes from both.
  EXPECT_FALSE(q.enqueue(make_packet(1, 800)));
  EXPECT_FALSE(q.enqueue(make_packet(0, 600)));
  EXPECT_EQ(q.class_dropped_packets(0), 1u);
  EXPECT_EQ(q.class_dropped_bytes(0), 600u);
  EXPECT_EQ(q.class_dropped_packets(1), 1u);
  EXPECT_EQ(q.class_dropped_bytes(1), 800u);
  // Per-class counters partition the aggregate stats.
  EXPECT_EQ(q.stats().dropped_packets, 2u);
  EXPECT_EQ(q.stats().dropped_bytes, 1400u);
  // Backlog accessors are unaffected by drops.
  EXPECT_EQ(q.class_backlog_bytes(0), 1000u);
  EXPECT_EQ(q.class_backlog_bytes(1), 1000u);
}

TEST(SpqQueueTest, PerClassDropCounters) {
  util::BlockPool buffer;
  SpqQueue q(buffer, 2, /*capacity_bytes=*/2000);
  ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
  ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  EXPECT_FALSE(q.enqueue(make_packet(1, 500)));
  EXPECT_EQ(q.class_dropped_packets(0), 0u);
  EXPECT_EQ(q.class_dropped_packets(1), 1u);
  EXPECT_EQ(q.class_dropped_bytes(1), 500u);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
}

TEST(DwrrQueueTest, PerClassDropCounters) {
  util::BlockPool buffer;
  DwrrQueue q(buffer, {4.0, 1.0}, /*capacity_bytes=*/2000,
              /*quantum_scale=*/1000);
  ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
  ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  EXPECT_FALSE(q.enqueue(make_packet(0, 700)));
  EXPECT_EQ(q.class_dropped_packets(0), 1u);
  EXPECT_EQ(q.class_dropped_bytes(0), 700u);
  EXPECT_EQ(q.class_dropped_packets(1), 0u);
  EXPECT_EQ(q.stats().dropped_bytes, 700u);
}

TEST(WfqQueueTest, VirtualTimeMonotone) {
  util::BlockPool buffer;
  WfqQueue q(buffer, {2.0, 1.0});
  double last_vt = 0.0;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
    ASSERT_TRUE(q.enqueue(make_packet(1, 500)));
    ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_GE(q.virtual_time(), last_vt);
    last_vt = q.virtual_time();
  }
}

TEST(DwrrQueueTest, ShareMatchesWeights) {
  util::BlockPool buffer;
  DwrrQueue q(buffer, {4.0, 1.0}, 0, 1000);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(0, 1000)));
    ASSERT_TRUE(q.enqueue(make_packet(1, 1000)));
  }
  int served0 = 0;
  const int serve = 400;
  for (int i = 0; i < serve; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    if (p->qos == 0) ++served0;
  }
  EXPECT_NEAR(static_cast<double>(served0) / serve, 0.8, 0.03);
}

TEST(DwrrQueueTest, WorkConservingAndDrainsFully) {
  util::BlockPool buffer;
  DwrrQueue q(buffer, {8.0, 4.0, 1.0});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(static_cast<QoSLevel>(i % 3), 700)));
  }
  int count = 0;
  while (q.dequeue().has_value()) ++count;
  EXPECT_EQ(count, 30);
  EXPECT_TRUE(q.empty());
}

TEST(PfabricQueueTest, DequeuesMostUrgentFirst) {
  PfabricQueue q(100000);
  auto with_priority = [](double prio, std::uint64_t seq) {
    Packet p = make_packet(0, 1000, seq);
    p.priority = prio;
    return p;
  };
  ASSERT_TRUE(q.enqueue(with_priority(5000, 1)));
  ASSERT_TRUE(q.enqueue(with_priority(100, 2)));
  ASSERT_TRUE(q.enqueue(with_priority(2000, 3)));
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_EQ(q.dequeue()->seq, 3u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
}

TEST(PfabricQueueTest, EvictsLeastUrgentOnOverflow) {
  PfabricQueue q(2500);
  auto with_priority = [](double prio, std::uint64_t seq) {
    Packet p = make_packet(0, 1000, seq);
    p.priority = prio;
    return p;
  };
  ASSERT_TRUE(q.enqueue(with_priority(100, 1)));
  ASSERT_TRUE(q.enqueue(with_priority(9000, 2)));
  // Newcomer is more urgent than packet 2: packet 2 is evicted.
  EXPECT_TRUE(q.enqueue(with_priority(200, 3)));
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
  EXPECT_EQ(q.dequeue()->seq, 3u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(PfabricQueueTest, DropsNewcomerWhenLeastUrgent) {
  PfabricQueue q(2000);
  auto with_priority = [](double prio, std::uint64_t seq) {
    Packet p = make_packet(0, 1000, seq);
    p.priority = prio;
    return p;
  };
  ASSERT_TRUE(q.enqueue(with_priority(100, 1)));
  ASSERT_TRUE(q.enqueue(with_priority(200, 2)));
  EXPECT_FALSE(q.enqueue(with_priority(9000, 3)));
  EXPECT_EQ(q.backlog_packets(), 2u);
}

TEST(PfabricQueueTest, FifoAmongEqualPriorities) {
  PfabricQueue q(100000);
  auto with_priority = [](double prio, std::uint64_t seq) {
    Packet p = make_packet(0, 1000, seq);
    p.priority = prio;
    return p;
  };
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(q.enqueue(with_priority(100, i)));
  }
  for (std::uint64_t i = 1; i <= 4; ++i) EXPECT_EQ(q.dequeue()->seq, i);
}

// The memory property of one packet buffer per shard: storage follows what
// its queues hold at once, not the sum of each queue's peak.
TEST(PacketBufferTest, QueuesOnOneBufferReuseEachOthersBlocks) {
  util::BlockPool buffer;
  WfqQueue a(buffer, {4.0, 1.0});
  SpqQueue b(buffer, 2);
  constexpr std::uint64_t kPackets = 2000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(a.enqueue(make_packet(static_cast<QoSLevel>(i % 2), 1500, i)));
  }
  const std::size_t peak = buffer.blocks_owned();
  EXPECT_EQ(a.buffer_blocks(), peak);
  while (a.dequeue()) {
  }
  EXPECT_EQ(a.buffer_blocks(), 0u);
  EXPECT_EQ(buffer.blocks_free(), peak);
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(b.enqueue(make_packet(static_cast<QoSLevel>(i % 2), 1500, i)));
  }
  // B grew on the blocks A gave back: the buffer owns blocks for about
  // kPackets packets (one partial block per class), not 2 * kPackets.
  EXPECT_EQ(buffer.blocks_owned(), peak);
  const std::size_t blocks_for_n =
      kPackets * util::BlockPool::kMaxElementBytes /
          sizeof(util::BlockPool::Block::slots) +
      2;
  EXPECT_LE(buffer.blocks_owned(), blocks_for_n);
  EXPECT_EQ(buffer.blocks_owned(), buffer.blocks_free() + b.buffer_blocks());
}

TEST(QueueFactoryTest, BuildsEveryType) {
  for (auto type : {SchedulerType::kFifo, SchedulerType::kWfq,
                    SchedulerType::kDwrr, SchedulerType::kSpq,
                    SchedulerType::kPfabric}) {
    QueueConfig config;
    config.type = type;
    config.capacity_bytes = 1 << 20;
    util::BlockPool buffer;
    auto q = make_queue(config, buffer);
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(q->enqueue(make_packet(0, 100)));
    EXPECT_EQ(q->backlog_packets(), 1u);
    EXPECT_TRUE(q->dequeue().has_value());
    EXPECT_TRUE(q->empty());
  }
}

}  // namespace
}  // namespace aeq::net
