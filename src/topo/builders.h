// Topology builders.
//
// `build_star` is the paper's workhorse: N hosts on a single switch, so each
// host downlink is a WFQ bottleneck under all-to-all fan-in (the 3-node,
// 20-node, 33-node and 144-node setups are all stars in our reproduction).
// `build_leaf_spine` provides a two-tier fabric with ECMP so overloads can
// also form on uplinks (paper §2.2.2 stresses that overloads occur anywhere).
// Both run on one simulator, so every port's packets share one packet buffer
// (Network::buffer(0)).
#pragma once

#include <cstddef>

#include "net/queue_factory.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "topo/network.h"

namespace aeq::topo {

// Propagation delay of every link in every topology. The sharded star's
// lookahead is this delay (topo/sharding.h).
inline constexpr sim::Time kLinkDelay = 0.5 * sim::kUsec;

struct StarConfig {
  std::size_t num_hosts = 3;
  sim::Rate link_rate = sim::gbps(100);
  net::QueueConfig host_queue;    // host NIC egress discipline
  net::QueueConfig switch_queue;  // switch egress (downlink) discipline
};

Network build_star(sim::Simulator& simulator, const StarConfig& config);

struct LeafSpineConfig {
  std::size_t hosts_per_leaf = 8;
  std::size_t num_leaves = 4;
  std::size_t num_spines = 2;
  sim::Rate edge_rate = sim::gbps(100);
  sim::Rate fabric_rate = sim::gbps(100);  // per uplink; oversubscription =
                                           // hosts_per_leaf*edge /
                                           // (num_spines*fabric)
  net::QueueConfig host_queue;
  net::QueueConfig switch_queue;
};

Network build_leaf_spine(sim::Simulator& simulator,
                         const LeafSpineConfig& config);

}  // namespace aeq::topo
