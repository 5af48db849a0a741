// Transport tests: Swift CC dynamics, flow reliability and message
// completion, RTT measurement, loss recovery, pacing, and host-stack demux.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fifo_queue.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "transport/host_stack.h"
#include "transport/swift.h"

namespace aeq::transport {
namespace {

TEST(SwiftTest, IncreasesBelowTarget) {
  SwiftConfig config;
  config.target_delay = 10 * sim::kUsec;
  config.max_cwnd = 64;
  SwiftCC cc(config);
  // Drive it down first so we can watch growth.
  cc.on_ack(0.0, 50 * sim::kUsec, 1.0, false);
  const double low = cc.cwnd_packets();
  double prev = low;
  for (int i = 1; i <= 50; ++i) {
    cc.on_ack(i * 1e-4, 5 * sim::kUsec, 1.0, false);
    EXPECT_GE(cc.cwnd_packets(), prev);
    prev = cc.cwnd_packets();
  }
  EXPECT_GT(cc.cwnd_packets(), low);
}

TEST(SwiftTest, DecreaseProportionalToOvershoot) {
  SwiftConfig config;
  config.target_delay = 10 * sim::kUsec;
  SwiftCC mild(config), severe(config);
  mild.on_ack(1.0, 11 * sim::kUsec, 1.0, false);
  severe.on_ack(1.0, 100 * sim::kUsec, 1.0, false);
  EXPECT_GT(mild.cwnd_packets(), severe.cwnd_packets());
  // The severe decrease is capped at max_mdf.
  EXPECT_GE(severe.cwnd_packets(),
            config.max_cwnd * (1.0 - config.max_mdf) - 1e-9);
}

TEST(SwiftTest, DecreaseAtMostOncePerRtt) {
  SwiftConfig config;
  config.target_delay = 10 * sim::kUsec;
  SwiftCC cc(config);
  cc.on_ack(0.0, 20 * sim::kUsec, 1.0, false);  // seeds srtt, first decrease
  const double after_first = cc.cwnd_packets();
  // Immediately again: inside one srtt, no further decrease.
  cc.on_ack(1 * sim::kUsec, 20 * sim::kUsec, 1.0, false);
  EXPECT_DOUBLE_EQ(cc.cwnd_packets(), after_first);
  // After an srtt has elapsed, it may decrease again.
  cc.on_ack(100 * sim::kUsec, 20 * sim::kUsec, 1.0, false);
  EXPECT_LT(cc.cwnd_packets(), after_first);
}

TEST(SwiftTest, RespectsMinCwnd) {
  SwiftConfig config;
  config.target_delay = 1 * sim::kUsec;
  SwiftCC cc(config);
  for (int i = 0; i < 200; ++i) {
    cc.on_ack(i * 1e-3, 1.0 * sim::kMsec, 1.0, false);
  }
  EXPECT_GE(cc.cwnd_packets(), config.min_cwnd);
}

// End-to-end harness: a 3-host star with host stacks.
struct Harness {
  sim::Simulator s;
  topo::Network network;
  const SwiftConfig swift;  // every Swift flow points at it
  std::vector<std::unique_ptr<HostStack>> stacks;

  explicit Harness(std::size_t hosts = 3, double fixed_window = 0.0) {
    topo::StarConfig config;
    config.num_hosts = hosts;
    config.host_queue.weights = {4.0, 1.0};
    config.switch_queue.weights = {4.0, 1.0};
    network = topo::build_star(s, config);
    for (std::size_t i = 0; i < hosts; ++i) {
      TransportConfig tc;
      stacks.push_back(std::make_unique<HostStack>(
          s, network.host(static_cast<net::HostId>(i)), hosts, tc,
          [this, fixed_window]() -> std::unique_ptr<CongestionControl> {
            if (fixed_window > 0) {
              return std::make_unique<FixedWindowCC>(fixed_window);
            }
            return std::make_unique<SwiftCC>(swift);
          }));
    }
  }
};

// Receiver reassembly: a segment that arrives after its successor is
// buffered in begin order (a repeat begin extends it), and the segment
// that fills the hole absorbs every buffered segment it makes contiguous.
// Each data packet gets one cumulative ACK, and bytes_delivered() counts
// in-order bytes only.
TEST(HostStackTest, ReassemblesOutOfOrderSegments) {
  Harness h;
  std::vector<std::uint64_t> acks;
  h.network.host(0).set_delivery_handler(
      [&acks](const net::Packet& packet) { acks.push_back(packet.seq); });
  const auto deliver = [&h](std::uint64_t seq, std::uint32_t bytes) {
    net::Packet packet;
    packet.src = 0;
    packet.dst = 1;
    packet.qos = 0;
    packet.type = net::PacketType::kData;
    packet.flow_id = h.stacks[0]->flow_to(1, 0).flow_id();
    packet.seq = seq;
    packet.size_bytes = bytes;
    h.network.host(1).receive(packet);
    return h.stacks[1]->bytes_delivered();
  };
  EXPECT_EQ(deliver(0, 1000), 1000u);
  EXPECT_EQ(deliver(4000, 500), 1000u);
  EXPECT_EQ(deliver(2000, 1000), 1000u);  // buffered ahead of [4000, 4500)
  EXPECT_EQ(deliver(4000, 1000), 1000u);  // same begin: now [4000, 5000)
  EXPECT_EQ(deliver(1000, 1000), 3000u);  // absorbs [2000, 3000) only
  EXPECT_EQ(deliver(3000, 1000), 5000u);  // absorbs [4000, 5000)
  EXPECT_EQ(deliver(0, 1000), 5000u);     // duplicate: nothing new
  h.s.run();
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{1000, 1000, 1000, 1000, 3000,
                                              5000, 5000}));
}

TEST(FlowTest, SingleMessageCompletes) {
  Harness h;
  std::vector<MessageCompletion> done;
  SendRequest request;
  request.dst = 1;
  request.qos = 0;
  request.bytes = 32 * sim::kKiB;
  request.rpc_id = 1;
  h.stacks[0]->send_message(request,
                            [&](const MessageCompletion& c) { done.push_back(c); });
  h.s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].bytes, 32 * sim::kKiB);
  EXPECT_FALSE(done[0].terminated);
  // 32KB at 100G through 2 hops + ack: a handful of microseconds.
  EXPECT_GT(done[0].rnl(), 2 * sim::kUsec);
  EXPECT_LT(done[0].rnl(), 20 * sim::kUsec);
  EXPECT_EQ(h.stacks[1]->bytes_delivered(), 32 * sim::kKiB);
}

TEST(FlowTest, ManyMessagesCompleteInOrder) {
  Harness h;
  std::vector<std::uint64_t> completed;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    SendRequest request;
    request.dst = 2;
    request.qos = 1;
    request.bytes = 10000;
    request.rpc_id = i;
    h.stacks[0]->send_message(
        request, [&completed](const MessageCompletion& c) {
          completed.push_back(c.rpc_id);
        });
  }
  h.s.run();
  ASSERT_EQ(completed.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(completed[i], i + 1);
}

TEST(FlowTest, RnlIncludesSenderQueueing) {
  Harness h;
  std::vector<MessageCompletion> done;
  // Queue 100 messages at once on one flow; later messages wait behind
  // earlier ones, so their RNL must grow roughly linearly.
  for (std::uint64_t i = 1; i <= 100; ++i) {
    SendRequest request;
    request.dst = 1;
    request.qos = 0;
    request.bytes = 32 * sim::kKiB;
    request.rpc_id = i;
    h.stacks[0]->send_message(
        request, [&](const MessageCompletion& c) { done.push_back(c); });
  }
  h.s.run();
  ASSERT_EQ(done.size(), 100u);
  // 32KB at 100Gbps is 2.62us of serialization per message.
  EXPECT_GT(done.back().rnl(), 50 * 2.6 * sim::kUsec);
  EXPECT_GT(done.back().rnl(), 2.0 * done.front().rnl());
}

TEST(FlowTest, SurvivesPacketLossViaRetransmission) {
  // Tiny switch buffers + fixed large window force drops.
  sim::Simulator s;
  topo::StarConfig config;
  config.num_hosts = 3;
  config.host_queue.weights = {4.0, 1.0};
  config.switch_queue.weights = {4.0, 1.0};
  config.switch_queue.capacity_bytes = 20000;  // ~5 MTUs
  topo::Network network = topo::build_star(s, config);
  std::vector<std::unique_ptr<HostStack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) {
    TransportConfig tc;
    tc.min_rto = 50 * sim::kUsec;
    stacks.push_back(std::make_unique<HostStack>(
        s, network.host(static_cast<net::HostId>(i)), 3, tc,
        [] { return std::make_unique<FixedWindowCC>(64.0); }));
  }
  int done = 0;
  for (net::HostId src : {0, 1}) {
    SendRequest request;
    request.dst = 2;
    request.qos = 0;
    request.bytes = 1 * sim::kMiB;
    request.rpc_id = static_cast<std::uint64_t>(src) + 1;
    stacks[static_cast<std::size_t>(src)]->send_message(
        request, [&](const MessageCompletion&) { ++done; });
  }
  s.run_until(1.0);
  EXPECT_EQ(done, 2);
  // Drops must actually have happened for this test to mean anything.
  EXPECT_GT(network.downlink(2).queue().stats().dropped_packets, 0u);
  EXPECT_EQ(stacks[2]->bytes_delivered(), 2 * sim::kMiB);
}

TEST(FlowTest, QoSLevelsUseSeparateFlows) {
  Harness h;
  auto& f0 = h.stacks[0]->flow_to(1, 0);
  auto& f1 = h.stacks[0]->flow_to(1, 1);
  EXPECT_NE(f0.flow_id(), f1.flow_id());
  EXPECT_EQ(&f0, &h.stacks[0]->flow_to(1, 0));
}

TEST(FlowTest, BytesDeliveredPerQosTracked) {
  Harness h;
  int done = 0;
  for (net::QoSLevel qos : {0, 1}) {
    SendRequest request;
    request.dst = 1;
    request.qos = qos;
    request.bytes = 10000;
    request.rpc_id = qos + 1u;
    h.stacks[0]->send_message(request,
                              [&](const MessageCompletion&) { ++done; });
  }
  h.s.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(h.stacks[1]->bytes_delivered(0), 10000u);
  EXPECT_EQ(h.stacks[1]->bytes_delivered(1), 10000u);
}

TEST(FlowTest, SubPacketWindowStillMakesProgress) {
  Harness h(3, /*fixed_window=*/0.3);  // cwnd < 1 packet => paced
  int done = 0;
  SendRequest request;
  request.dst = 1;
  request.qos = 0;
  request.bytes = 64 * sim::kKiB;
  request.rpc_id = 1;
  h.stacks[0]->send_message(request, [&](const MessageCompletion&) { ++done; });
  h.s.run_until(0.1);
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace aeq::transport
