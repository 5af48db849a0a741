// Topology partitioning for the sharded (conservative-PDES) executive.
//
// A shard owns a contiguous block of hosts plus the switch egress ports
// that feed them, so every queue, flow, and controller touches exactly one
// shard's state. The only cut edges are host-NIC -> foreign-switch links;
// the plan records the minimum latency across that cut, which becomes the
// executive's lookahead window (sim::ShardedSimulator).
#pragma once

#include <cstdint>
#include <vector>

#include "net/shard_fabric.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "topo/network.h"

namespace aeq::topo {

struct ShardPlan {
  std::size_t num_shards = 1;
  std::vector<std::uint32_t> shard_of_host;  // host id -> owning shard
  // Minimum one-hop latency across the shard cut: every cross-shard packet
  // spends at least this long between its producing event (NIC tx-end) and
  // its effect (switch arrival), so it bounds the conservative window.
  sim::Time lookahead = 0.0;

  std::uint32_t shard_of(net::HostId id) const {
    return shard_of_host.at(static_cast<std::size_t>(id));
  }
};

// Balanced contiguous block assignment (host h to shard h*K/n, so block
// sizes differ by at most one host and no shard is empty) over a star
// topology, with the min-latency cut computed from the link delays. All-to-
// all workloads are symmetric across hosts, so balanced contiguous blocks
// spread load as well as any assignment.
ShardPlan make_shard_plan(const StarConfig& config, std::size_t num_shards);

// Builds the star of `config` partitioned per `plan`: shard k's hosts get
// their NIC ports on sims[k] connected to fabric.nic_link(k), and a
// shard-local switch "tor-shard<k>" (on sims[k]) carries their downlinks.
// Shard k's ports queue their packets in packet buffer k
// (Network::buffer(k)), which only the thread running shard k's window
// touches.
// Host ids, downlink registration order, and per-host wiring match
// build_star exactly, so everything indexed by host id (metrics, audits,
// telemetry port names) is shard-count independent.
Network build_sharded_star(const std::vector<sim::Simulator*>& sims,
                           const StarConfig& config, const ShardPlan& plan,
                           net::ShardFabric& fabric);

}  // namespace aeq::topo
