#include "net/shard_fabric.h"

#include <algorithm>
#include <utility>

#include "sim/assert.h"

namespace aeq::net {

ShardFabric::ShardFabric(std::vector<sim::Simulator*> sims,
                         std::vector<std::uint32_t> shard_of_host)
    : sims_(std::move(sims)), shard_of_host_(std::move(shard_of_host)) {
  const std::size_t shards = sims_.size();
  AEQ_CHECK_GE(shards, 1u);
  for (const std::uint32_t shard : shard_of_host_) {
    AEQ_CHECK_LT(shard, shards);
  }
  arrivals_.resize(shards);
  links_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    arrivals_[k].sim = sims_[k];
    links_.emplace_back(this, static_cast<std::uint32_t>(k));
  }
  outbound_.resize(shards);
  for (auto& half : outboxes_) half.resize(shards * shards);
}

void ShardFabric::set_local_switch(std::size_t shard, Switch* sw) {
  AEQ_ASSERT(sw != nullptr);
  arrivals_.at(shard).local_switch = sw;
}

LinkReceiver* ShardFabric::nic_link(std::size_t shard) {
  return &links_.at(shard);
}

void ShardFabric::ArrivalPool::land(sim::Time arrival, const Packet& packet) {
  std::uint32_t slot;
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
    slots[slot] = packet;
  } else {
    slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(packet);
  }
  // Ranked exactly like the serial uplink's delivery (see
  // Port::rank_deliveries_by_source): the rank — not the landing order —
  // decides same-timestamp ties, so tx-end/barrier insertion reproduces the
  // serial tx-start schedule.
  sim->schedule_at(arrival, [this, slot] { fire(slot); },
                   delivery_tie_rank(packet.src));
}

void ShardFabric::ArrivalPool::fire(std::uint32_t slot) {
  const Packet packet = slots[slot];
  free_slots.push_back(slot);
  local_switch->receive(packet);
}

void ShardFabric::ShardLink::on_tx_complete(const Packet& packet,
                                            sim::Time arrival) {
  const std::uint32_t dst_shard = fabric_->shard_of(packet.dst);
  if (dst_shard == shard_) {
    // Same shard: land directly — one arrival event, exactly like the
    // serial link's delivery.
    fabric_->arrivals_[shard_].land(arrival, packet);
    return;
  }
  Outbound& out = fabric_->outbound_[shard_];
  std::vector<StampedPacket>& box =
      fabric_->outbox(out.parity, shard_, dst_shard);
  box.push_back({arrival, packet});
  ++out.pushed;
  out.earliest = std::min(out.earliest, arrival);
  out.depth_hwm = std::max<std::uint64_t>(out.depth_hwm, box.size());
}

void ShardFabric::land_inbound(std::size_t shard) {
  // Every shard flips exactly once per window, so all parities agree: the
  // half this shard filled last window is the half every source filled.
  Outbound& own = outbound_[shard];
  const unsigned last = own.parity;
  own.parity ^= 1u;
  own.earliest = kNever;
  // Fixed (source, FIFO) order keeps the destination shard's
  // event-insertion order — and therefore same-timestamp tie-breaking —
  // deterministic for a given seed and shard count.
  ArrivalPool& pool = arrivals_[shard];
  for (std::size_t src = 0; src < num_shards(); ++src) {
    std::vector<StampedPacket>& box = outbox(last, src, shard);
    for (const StampedPacket& msg : box) pool.land(msg.arrival, msg.packet);
    box.clear();
  }
}

sim::Time ShardFabric::earliest_pending() const {
  sim::Time earliest = kNever;
  for (const Outbound& out : outbound_) {
    earliest = std::min(earliest, out.earliest);
  }
  return earliest;
}

bool ShardFabric::idle() const {
  for (const auto& half : outboxes_) {
    for (const auto& box : half) {
      if (!box.empty()) return false;
    }
  }
  return true;
}

std::uint64_t ShardFabric::cross_shard_packets() const {
  std::uint64_t total = 0;
  for (const Outbound& out : outbound_) total += out.pushed;
  return total;
}

std::uint64_t ShardFabric::mailbox_depth_hwm() const {
  std::uint64_t hwm = 0;
  for (const Outbound& out : outbound_) hwm = std::max(hwm, out.depth_hwm);
  return hwm;
}

}  // namespace aeq::net
