#include "topo/builders.h"

#include <memory>
#include <string>
#include <vector>

#include "sim/assert.h"

namespace aeq::topo {

namespace {

std::unique_ptr<net::Port> make_port(sim::Simulator& simulator,
                                     util::BlockPool& buffer, sim::Rate rate,
                                     const net::QueueConfig& queue) {
  return std::make_unique<net::Port>(simulator, buffer, rate, kLinkDelay,
                                     net::make_queue(queue, buffer));
}

}  // namespace

Network build_star(sim::Simulator& simulator, const StarConfig& config) {
  AEQ_CHECK_GE(config.num_hosts, 2u);
  Network network;
  util::BlockPool& buffer = network.add_buffer();
  auto* fabric = network.add_switch(std::make_unique<net::Switch>("tor"));

  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    auto uplink = make_port(simulator, buffer, config.link_rate,
                            config.host_queue);
    uplink->connect(fabric);
    // Host-NIC deliveries rank by source so the serial schedule is the one
    // a sharded run of the same seed reproduces (see Port).
    uplink->rank_deliveries_by_source();
    network.add_host(std::make_unique<net::Host>(id, std::move(uplink)));
  }
  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    auto downlink = make_port(simulator, buffer, config.link_rate,
                              config.switch_queue);
    downlink->connect(&network.host(id));
    const std::size_t port = fabric->add_port(std::move(downlink));
    fabric->set_route(id, port);
    network.register_downlink(&fabric->port(port));
  }
  return network;
}

Network build_leaf_spine(sim::Simulator& simulator,
                         const LeafSpineConfig& config) {
  AEQ_CHECK_GE(config.hosts_per_leaf, 1u);
  AEQ_CHECK_GE(config.num_leaves, 2u);
  AEQ_CHECK_GE(config.num_spines, 1u);
  Network network;
  util::BlockPool& buffer = network.add_buffer();
  const std::size_t total_hosts = config.hosts_per_leaf * config.num_leaves;

  std::vector<net::Switch*> leaves;
  std::vector<net::Switch*> spines;
  for (std::size_t l = 0; l < config.num_leaves; ++l) {
    leaves.push_back(network.add_switch(
        std::make_unique<net::Switch>("leaf" + std::to_string(l))));
  }
  for (std::size_t s = 0; s < config.num_spines; ++s) {
    spines.push_back(network.add_switch(
        std::make_unique<net::Switch>("spine" + std::to_string(s))));
  }

  // Hosts and their uplinks into the owning leaf.
  for (std::size_t i = 0; i < total_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    auto uplink = make_port(simulator, buffer, config.edge_rate,
                            config.host_queue);
    uplink->connect(leaves[i / config.hosts_per_leaf]);
    network.add_host(std::make_unique<net::Host>(id, std::move(uplink)));
  }

  // Leaf downlinks to hosts.
  for (std::size_t i = 0; i < total_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    net::Switch* leaf = leaves[i / config.hosts_per_leaf];
    auto downlink = make_port(simulator, buffer, config.edge_rate,
                              config.switch_queue);
    downlink->connect(&network.host(id));
    const std::size_t port = leaf->add_port(std::move(downlink));
    leaf->set_route(id, port);
    network.register_downlink(&leaf->port(port));
  }

  // Leaf <-> spine wiring.
  for (std::size_t l = 0; l < config.num_leaves; ++l) {
    std::vector<std::size_t> uplink_ports;
    for (std::size_t s = 0; s < config.num_spines; ++s) {
      auto up = make_port(simulator, buffer, config.fabric_rate,
                          config.switch_queue);
      up->connect(spines[s]);
      uplink_ports.push_back(leaves[l]->add_port(std::move(up)));

      auto down = make_port(simulator, buffer, config.fabric_rate,
                            config.switch_queue);
      down->connect(leaves[l]);
      const std::size_t spine_port = spines[s]->add_port(std::move(down));
      // The spine routes every host under leaf l out of this port.
      for (std::size_t i = 0; i < config.hosts_per_leaf; ++i) {
        spines[s]->set_route(
            static_cast<net::HostId>(l * config.hosts_per_leaf + i),
            spine_port);
      }
    }
    // The leaf ECMPs remote destinations across its uplinks.
    for (std::size_t i = 0; i < total_hosts; ++i) {
      if (i / config.hosts_per_leaf == l) continue;
      leaves[l]->set_ecmp_route(static_cast<net::HostId>(i), uplink_ports);
    }
  }
  return network;
}

}  // namespace aeq::topo
