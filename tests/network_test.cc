// Integration tests for ports, links, switches, hosts and the topology
// builders: delivery latency, serialization, routing, WFQ behaviour at a
// port under the simulator clock.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fifo_queue.h"
#include "net/host.h"
#include "net/port.h"
#include "net/switch.h"
#include "net/wfq.h"
#include "sim/simulator.h"
#include "topo/builders.h"

namespace aeq::net {
namespace {

class Collector final : public PacketSink {
 public:
  void receive(const Packet& packet) override { packets.push_back(packet); }
  std::vector<Packet> packets;
};

Packet data_packet(HostId src, HostId dst, std::uint32_t size,
                   QoSLevel qos = 0, std::uint64_t flow = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = size;
  p.qos = qos;
  p.flow_id = flow;
  return p;
}

TEST(PortTest, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator s;
  Collector sink;
  // 12500 bytes at 100Gbps = 1us serialization; 0.5us propagation.
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.5 * sim::kUsec,
            std::make_unique<FifoQueue>(buffer));
  port.connect(&sink);
  port.send(data_packet(0, 1, 12500));
  s.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 1.5 * sim::kUsec);
  EXPECT_DOUBLE_EQ(port.busy_time(), 1.0 * sim::kUsec);
}


TEST(PortTest, BusyTimeMidTransmissionCountsOnlyElapsedTime) {
  sim::Simulator s;
  Collector sink;
  // 12500 bytes at 100Gbps = 1us serialization.
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.0,
            std::make_unique<FifoQueue>(buffer));
  port.connect(&sink);
  s.schedule_at(0.0, [&] { port.send(data_packet(0, 1, 12500)); });
  // Mid-transmission the port must report only the elapsed busy time —
  // charging the full serialization up front would make utilization(now)
  // exceed 1 and over-account partially transmitted packets.
  s.schedule_at(0.4 * sim::kUsec, [&] {
    EXPECT_DOUBLE_EQ(port.busy_time(), 0.4 * sim::kUsec);
    EXPECT_NEAR(port.utilization(s.now()), 1.0, 1e-12);
  });
  s.run();
  EXPECT_DOUBLE_EQ(port.busy_time(), 1.0 * sim::kUsec);
}

TEST(PortTest, UtilizationNeverExceedsOneMidBurst) {
  sim::Simulator s;
  Collector sink;
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.0,
            std::make_unique<FifoQueue>(buffer));
  port.connect(&sink);
  // Queue a 10-packet burst, then sample utilization at odd times while
  // the port drains it.
  s.schedule_at(0.0, [&] {
    for (int i = 0; i < 10; ++i) port.send(data_packet(0, 1, 12500));
  });
  for (double t : {0.3, 1.7, 4.25, 9.99}) {
    s.schedule_at(t * sim::kUsec, [&port, &s] {
      EXPECT_LE(port.utilization(s.now()), 1.0 + 1e-12);
    });
  }
  s.run();
  EXPECT_DOUBLE_EQ(port.busy_time(), 10.0 * sim::kUsec);
}

TEST(PortTest, BackToBackPacketsSerializeSequentially) {
  sim::Simulator s;
  Collector sink;
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.0,
            std::make_unique<FifoQueue>(buffer));
  port.connect(&sink);
  for (int i = 0; i < 3; ++i) port.send(data_packet(0, 1, 12500));
  s.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_DOUBLE_EQ(s.now(), 3.0 * sim::kUsec);
  EXPECT_NEAR(port.utilization(s.now()), 1.0, 1e-9);
}

// With zero propagation a packet's delivery and its tx-end share a time.
// The delivery's key is drawn first, so it runs first: the next packet is
// still queued when the peer sees this one.
TEST(PortTest, ZeroPropagationDeliversBeforeTheTxEnd) {
  sim::Simulator s;
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.0,
            std::make_unique<FifoQueue>(buffer));
  struct BacklogAtArrival final : PacketSink {
    explicit BacklogAtArrival(const Port& p) : port(p) {}
    void receive(const Packet&) override {
      backlog.push_back(port.queue().backlog_packets());
    }
    const Port& port;
    std::vector<std::size_t> backlog;
  } sink(port);
  port.connect(&sink);
  for (int i = 0; i < 3; ++i) port.send(data_packet(0, 1, 12500));
  EXPECT_EQ(s.pending_events(), 2u);  // the first packet's tx-end, delivery
  s.run();
  // Tx-end first would have dequeued the next packet: {1, 0, 0}.
  EXPECT_EQ(sink.backlog, (std::vector<std::size_t>{2, 1, 0}));
  EXPECT_EQ(s.events_processed(), 6u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(PortTest, WfqOrderingUnderBacklog) {
  sim::Simulator s;
  Collector sink;
  util::BlockPool buffer;
  Port port(s, buffer, sim::gbps(100), 0.0,
            std::make_unique<WfqQueue>(buffer,
                                       std::vector<double>{4.0, 1.0}));
  port.connect(&sink);
  // Interleave enqueues while the port is busy with the first packet.
  port.send(data_packet(0, 1, 1000, 0));
  for (int i = 0; i < 10; ++i) {
    port.send(data_packet(0, 1, 1000, 1));
    port.send(data_packet(0, 1, 1000, 0));
  }
  s.run();
  ASSERT_EQ(sink.packets.size(), 21u);
  // In the first 10 deliveries after the head packet, the high class (4:1)
  // should get ~8.
  int high = 0;
  for (int i = 1; i <= 10; ++i) {
    if (sink.packets[static_cast<std::size_t>(i)].qos == 0) ++high;
  }
  EXPECT_GE(high, 7);
}

TEST(SwitchTest, RoutesByDestination) {
  sim::Simulator s;
  util::BlockPool buffer;
  Switch sw("sw");
  Collector sink0, sink1;
  auto p0 = std::make_unique<Port>(s, buffer, sim::gbps(100), 0.0,
                                   std::make_unique<FifoQueue>(buffer));
  p0->connect(&sink0);
  auto p1 = std::make_unique<Port>(s, buffer, sim::gbps(100), 0.0,
                                   std::make_unique<FifoQueue>(buffer));
  p1->connect(&sink1);
  sw.set_route(0, sw.add_port(std::move(p0)));
  sw.set_route(1, sw.add_port(std::move(p1)));

  sw.receive(data_packet(1, 0, 100));
  sw.receive(data_packet(0, 1, 100));
  sw.receive(data_packet(0, 1, 100));
  s.run();
  EXPECT_EQ(sink0.packets.size(), 1u);
  EXPECT_EQ(sink1.packets.size(), 2u);
}

TEST(SwitchTest, EcmpKeepsFlowOnOnePath) {
  sim::Simulator s;
  util::BlockPool buffer;
  Switch sw("sw");
  Collector sinks[2];
  std::vector<std::size_t> ports;
  for (auto& sink : sinks) {
    auto p = std::make_unique<Port>(s, buffer, sim::gbps(100), 0.0,
                                    std::make_unique<FifoQueue>(buffer));
    p->connect(&sink);
    ports.push_back(sw.add_port(std::move(p)));
  }
  sw.set_ecmp_route(7, ports);
  for (int i = 0; i < 20; ++i) sw.receive(data_packet(0, 7, 100, 0, 42));
  s.run();
  // All packets of flow 42 take the same uplink.
  EXPECT_TRUE(sinks[0].packets.empty() || sinks[1].packets.empty());
  EXPECT_EQ(sinks[0].packets.size() + sinks[1].packets.size(), 20u);
}

TEST(SwitchTest, EcmpSpreadsDistinctFlows) {
  sim::Simulator s;
  util::BlockPool buffer;
  Switch sw("sw");
  Collector sinks[2];
  std::vector<std::size_t> ports;
  for (auto& sink : sinks) {
    auto p = std::make_unique<Port>(s, buffer, sim::gbps(100), 0.0,
                                    std::make_unique<FifoQueue>(buffer));
    p->connect(&sink);
    ports.push_back(sw.add_port(std::move(p)));
  }
  sw.set_ecmp_route(7, ports);
  for (std::uint64_t flow = 1; flow <= 200; ++flow) {
    sw.receive(data_packet(0, 7, 100, 0, flow));
  }
  s.run();
  EXPECT_GT(sinks[0].packets.size(), 50u);
  EXPECT_GT(sinks[1].packets.size(), 50u);
}

TEST(StarTopologyTest, HostToHostDelivery) {
  sim::Simulator s;
  topo::StarConfig config;
  config.num_hosts = 4;
  topo::Network network = topo::build_star(s, config);
  ASSERT_EQ(network.num_hosts(), 4u);

  std::vector<Packet> delivered;
  network.host(2).set_delivery_handler(
      [&](const Packet& p) { delivered.push_back(p); });
  network.host(0).send(data_packet(0, 2, 4096));
  s.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].src, 0);
  // Two hops: 2 serializations (4096B @100G = 0.33us) + 2 propagations.
  EXPECT_NEAR(s.now(),
              2 * (4096 / sim::gbps(100)) + 2 * 0.5 * sim::kUsec, 1e-12);
}

TEST(StarTopologyTest, FanInCongestsDownlink) {
  sim::Simulator s;
  topo::StarConfig config;
  config.num_hosts = 5;
  topo::Network network = topo::build_star(s, config);
  int delivered = 0;
  network.host(0).set_delivery_handler([&](const Packet&) { ++delivered; });
  // 4 senders, 10 packets each into host 0: the downlink serializes all 40.
  for (HostId src = 1; src <= 4; ++src) {
    for (int i = 0; i < 10; ++i) {
      network.host(src).send(data_packet(src, 0, 12500));
    }
  }
  s.run();
  EXPECT_EQ(delivered, 40);
  // Downlink busy time: 40 packets * 1us.
  EXPECT_NEAR(network.downlink(0).busy_time(), 40 * sim::kUsec, 1e-12);
}

TEST(LeafSpineTest, CrossLeafDelivery) {
  sim::Simulator s;
  topo::LeafSpineConfig config;
  config.hosts_per_leaf = 2;
  config.num_leaves = 2;
  config.num_spines = 2;
  topo::Network network = topo::build_leaf_spine(s, config);
  ASSERT_EQ(network.num_hosts(), 4u);

  int local = 0, remote = 0;
  network.host(1).set_delivery_handler([&](const Packet&) { ++local; });
  network.host(3).set_delivery_handler([&](const Packet&) { ++remote; });
  network.host(0).send(data_packet(0, 1, 1000));  // same leaf
  network.host(0).send(data_packet(0, 3, 1000));  // via spine
  s.run();
  EXPECT_EQ(local, 1);
  EXPECT_EQ(remote, 1);
}

TEST(LeafSpineTest, AllPairsReachable) {
  sim::Simulator s;
  topo::LeafSpineConfig config;
  config.hosts_per_leaf = 3;
  config.num_leaves = 3;
  config.num_spines = 2;
  topo::Network network = topo::build_leaf_spine(s, config);
  const auto n = static_cast<HostId>(network.num_hosts());
  std::vector<int> received(static_cast<std::size_t>(n), 0);
  for (HostId h = 0; h < n; ++h) {
    network.host(h).set_delivery_handler(
        [&received, h](const Packet&) { ++received[static_cast<std::size_t>(h)]; });
  }
  std::uint64_t flow = 1;
  for (HostId src = 0; src < n; ++src) {
    for (HostId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      network.host(src).send(data_packet(src, dst, 500, 0, flow++));
    }
  }
  s.run();
  for (HostId h = 0; h < n; ++h) {
    EXPECT_EQ(received[static_cast<std::size_t>(h)], n - 1) << "host " << h;
  }
}

}  // namespace
}  // namespace aeq::net
