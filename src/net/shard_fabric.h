// Cross-shard packet fabric for the conservative-PDES executive.
//
// When the topology is partitioned into shards — each shard owning a group
// of hosts plus the switch egress ports that feed them — the only traffic
// that crosses shard boundaries is a host NIC transmitting toward a switch
// owned by another shard. The fabric models that cut:
//
//   * Every NIC egress port runs in LinkReceiver handoff mode (see
//     net::Port): at serialization end it hands (packet, arrival time =
//     tx-end + propagation) to its shard's link object.
//   * Same-shard packets are landed immediately: a slot in the shard's
//     arrival pool plus one event at the arrival time (the event captures
//     {pool, slot} — 16 bytes, well inside the scheduler's 48-byte inline
//     handler budget, which is why packets are never captured directly).
//   * Cross-shard packets go into the (src, dst) outbox, a plain vector
//     double-buffered by window parity: the sending shard fills one half
//     during its window, and the destination shard lands the other half —
//     last window's packets from every source, in fixed (source, FIFO)
//     order — into its arrival pool at the start of its own next window
//     (sim::CrossShardHandoff::land_inbound). No thread drains anything
//     serially, and no outbox is touched by two threads in the same
//     window. Arrival timestamps exceed the previous horizon by
//     construction (propagation >= lookahead), so the handoff never
//     schedules into a shard's past.
//
// Dispatch budget: one tx-end on the sending shard, which the NIC port
// keeps itself (see net::Port), plus one arrival event on the receiving
// shard per packet — the serial link's two transitions, tx-end and
// delivery, which is what makes serial and sharded dispatch counts equal
// (the "cross-shard event identity" pinned, with auditing on, by
// ShardDeterminismTest.SameSeedAnyShardCountSameMetrics). The arrivals stay
// events in the shard's store: they belong to no port, and they land from
// every source of the shard.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/packet.h"
#include "net/port.h"
#include "net/switch.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace aeq::net {

class ShardFabric final : public sim::CrossShardHandoff {
 public:
  // `sims[k]` is shard k's executive; `shard_of_host[h]` maps each host id
  // to its owning shard.
  ShardFabric(std::vector<sim::Simulator*> sims,
              std::vector<std::uint32_t> shard_of_host);

  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  std::size_t num_shards() const { return sims_.size(); }
  std::uint32_t shard_of(HostId host) const {
    return shard_of_host_.at(static_cast<std::size_t>(host));
  }

  // Topology wiring (called by topo::build_sharded_star): the switch whose
  // egress ports shard `k` owns, i.e. where shard-k-bound packets land.
  void set_local_switch(std::size_t shard, Switch* sw);

  // The LinkReceiver every NIC egress port of shard `k` connects to.
  LinkReceiver* nic_link(std::size_t shard);

  // sim::CrossShardHandoff, driven by sim::ShardedSimulator::set_handoff.
  // land_inbound(k) flips shard k's outbox parity, then lands what every
  // other shard sent k last window, in (source, FIFO) order.
  void land_inbound(std::size_t shard) override;
  sim::Time earliest_pending() const override;

  // True when no handed-over packet is waiting in an outbox.
  bool idle() const;

  // --- diagnostics (each counter is written only by the thread running
  // its shard's window, so read these only while the shards are parked —
  // between run_until calls) ---
  std::uint64_t cross_shard_packets() const;
  // Deepest any single (src, dst) outbox got within a window (sampled at
  // push time): the executive's peak cross-shard backlog, reported in the
  // --prof executive section.
  std::uint64_t mailbox_depth_hwm() const;

 private:
  struct StampedPacket {
    sim::Time arrival = 0.0;
    Packet packet;
  };

  // Per-shard pool of in-flight arrivals: the scheduled event captures only
  // {pool pointer, slot index}; slots are recycled through a free list so
  // steady state allocates nothing. Only the thread running the shard's
  // window touches it, so each pool gets its own cache line.
  struct alignas(64) ArrivalPool {
    sim::Simulator* sim = nullptr;
    Switch* local_switch = nullptr;
    std::vector<Packet> slots;
    std::vector<std::uint32_t> free_slots;

    void land(sim::Time arrival, const Packet& packet);
    void fire(std::uint32_t slot);
  };

  static constexpr sim::Time kNever =
      std::numeric_limits<sim::Time>::infinity();

  // Shard k's sending side of the cut, on its own cache line because the
  // shards push concurrently.
  //
  // Thread-safety analysis (DESIGN.md §12): no lock, so no AEQ_GUARDED_BY.
  // The role discipline is phase-based: within a window, shard k's thread
  // alone writes this struct and the `parity` half of its outboxes, and
  // destination d's thread alone reads and clears the other half of the
  // (·, d) outboxes. The ShardedSimulator pool mutex (already annotated)
  // orders each window's writes before the next window's reads, and the
  // coordinator touches this state only while every shard is parked.
  // Checked under TSan in CI.
  struct alignas(64) Outbound {
    unsigned parity = 0;  // the outbox half this window's pushes go to
    sim::Time earliest = kNever;  // earliest arrival pushed this window
    std::uint64_t pushed = 0;
    std::uint64_t depth_hwm = 0;  // peak outbox length at push time
  };

  // Shard-s side of the cut; one instance per shard, shared by all of the
  // shard's NICs (packets only need the destination host to route).
  class ShardLink final : public LinkReceiver {
   public:
    ShardLink(ShardFabric* fabric, std::uint32_t shard)
        : fabric_(fabric), shard_(shard) {}
    void on_tx_complete(const Packet& packet, sim::Time arrival) override;

   private:
    ShardFabric* fabric_;
    std::uint32_t shard_;
  };

  std::vector<StampedPacket>& outbox(unsigned parity, std::size_t src,
                                     std::size_t dst) {
    return outboxes_[parity][src * num_shards() + dst];
  }

  std::vector<sim::Simulator*> sims_;
  std::vector<std::uint32_t> shard_of_host_;
  std::vector<ArrivalPool> arrivals_;
  std::vector<ShardLink> links_;
  std::vector<Outbound> outbound_;  // [src]
  // [parity][src * K + dst], reused through clear() so steady state
  // allocates nothing; the diagonal stays empty (same-shard packets land
  // directly).
  std::array<std::vector<std::vector<StampedPacket>>, 2> outboxes_;
};

}  // namespace aeq::net
