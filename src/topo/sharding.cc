#include "topo/sharding.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "net/queue_factory.h"
#include "sim/assert.h"

namespace aeq::topo {

ShardPlan make_shard_plan(const StarConfig& config, std::size_t num_shards) {
  AEQ_CHECK_GE(num_shards, 1u);
  AEQ_CHECK_GE(config.num_hosts, num_shards);
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of_host.resize(config.num_hosts);
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    plan.shard_of_host[h] =
        static_cast<std::uint32_t>(h * num_shards / config.num_hosts);
  }
  // Min-latency cut: the cut edges are exactly the host<->switch hops, and
  // the star wires every one of them with kLinkDelay, so the minimum is the
  // uniform delay itself. (A topology with heterogeneous cut delays must
  // take the min over its cut edges here.)
  static_assert(kLinkDelay > 0.0,
                "sharding requires a positive cross-shard link delay");
  plan.lookahead = kLinkDelay;
  return plan;
}

Network build_sharded_star(const std::vector<sim::Simulator*>& sims,
                           const StarConfig& config, const ShardPlan& plan,
                           net::ShardFabric& fabric) {
  AEQ_CHECK_GE(config.num_hosts, 2u);
  AEQ_CHECK_EQ(sims.size(), plan.num_shards);
  AEQ_CHECK_EQ(plan.shard_of_host.size(), config.num_hosts);

  Network network;
  std::vector<net::Switch*> switches;
  switches.reserve(plan.num_shards);
  for (std::size_t k = 0; k < plan.num_shards; ++k) {
    network.add_buffer();
    switches.push_back(network.add_switch(std::make_unique<net::Switch>(
        "tor-shard" + std::to_string(k))));
    fabric.set_local_switch(k, switches.back());
  }

  // Hosts in global id order; the NIC hands packets to the shard's link at
  // serialization end (LinkReceiver mode) instead of scheduling delivery
  // itself — the propagation leg is what the cut's lookahead is made of.
  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    const std::uint32_t shard = plan.shard_of(id);
    util::BlockPool& buffer = network.buffer(shard);
    auto uplink = std::make_unique<net::Port>(
        *sims[shard], buffer, config.link_rate, kLinkDelay,
        net::make_queue(config.host_queue, buffer));
    uplink->connect(fabric.nic_link(shard));
    network.add_host(std::make_unique<net::Host>(id, std::move(uplink)));
  }

  // Downlinks in global host order (register_downlink is indexed by host
  // id), each on its owner's switch and simulator; switches only route
  // their own hosts because the fabric never hands them foreign packets.
  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    const std::uint32_t shard = plan.shard_of(id);
    util::BlockPool& buffer = network.buffer(shard);
    auto downlink = std::make_unique<net::Port>(
        *sims[shard], buffer, config.link_rate, kLinkDelay,
        net::make_queue(config.switch_queue, buffer));
    downlink->connect(&network.host(id));
    const std::size_t port = switches[shard]->add_port(std::move(downlink));
    switches[shard]->set_route(id, port);
    network.register_downlink(&switches[shard]->port(port));
  }
  return network;
}

}  // namespace aeq::topo
