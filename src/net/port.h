// An egress port: a queue discipline drained onto a link.
//
// The port serializes one packet at a time at the link rate and delivers it
// to the connected peer after the propagation delay. It is the only
// component that consumes simulated link time, so per-port busy time gives
// exact utilization.
//
// Event budget: none. The port's two transitions per packet, tx-end and
// delivery, are kept by the port itself (a sim::TransitionSource): the key
// of its pending tx-end, and the key of each delivery beside the packet on
// the link. It publishes the earliest to the simulator, which orders it
// against every other port and the event store. Each key is the one an
// event would carry: delivery at now + (ser + propagation), tx-end at
// now + ser, tie keys drawn in that order at tx-start, so the dispatch
// order is that of one event per transition.
#pragma once

#include <memory>
#include <utility>

#include "net/packet.h"
#include "net/queue.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "util/block_fifo.h"

namespace aeq::net {

// Alternative receiving end of a link for topologies whose far side lives
// on a *different* event scheduler (sharded simulation): instead of the
// port delivering the packet itself, it hands the packet over at
// serialization end together with the arrival timestamp (tx-complete +
// propagation), and the receiver is responsible for landing it at that
// time. Keeping the propagation leg on the receiver's side is what gives
// the sharded executive its lookahead window.
class LinkReceiver {
 public:
  virtual ~LinkReceiver() = default;
  virtual void on_tx_complete(const Packet& packet, sim::Time arrival) = 0;
};

// Tie-rank for a packet delivery (see sim/scheduler.h): the source host id,
// so equal-timestamp deliveries from distinct hosts order by host id in
// every execution mode. One NIC spaces its deliveries a serialization time
// apart, so two deliveries can never collide on the same (time, rank).
// Packets without a source (raw unit tests) keep insertion-order semantics.
inline std::uint16_t delivery_tie_rank(HostId src) {
  return (src >= 0 && src < static_cast<HostId>(sim::kTieRankDefault))
             ? static_cast<std::uint16_t>(src)
             : sim::kTieRankDefault;
}

class Port final : private sim::TransitionSource {
 public:
  // Packets in flight on the link queue in blocks of `buffer`, the packet
  // buffer `queue` was built on; it must outlive the port, and so must
  // `simulator`.
  Port(sim::Simulator& simulator, util::BlockPool& buffer,
       sim::Rate rate_bytes_per_sec, sim::Time propagation_delay,
       std::unique_ptr<QueueDiscipline> queue);
  ~Port();

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Sets the receiving end of the link. Must be called before send().
  void connect(PacketSink* peer) { peer_ = peer; }

  // Link-handoff mode: at serialization end the packet goes to `link`
  // (stamped with its arrival time) instead of this port delivering it.
  // Exactly one of connect(PacketSink*) / connect(LinkReceiver*) may be
  // used per port. Timing is identical to the sink mode as long as the
  // receiver lands the packet at the given arrival time; the conservation
  // counters treat the handoff as delivery.
  void connect(LinkReceiver* link) { link_ = link; }

  // Ranks this port's deliveries by the packet's source host
  // (delivery_tie_rank). Topology builders set this on host-NIC uplinks —
  // the one link class whose delivery is keyed at a different point in
  // serial (tx-start) vs sharded (tx-end or barrier) execution, so plain
  // insertion-order tie-breaking would diverge between the modes.
  // Handoff-mode ports ignore the flag: ShardFabric ranks the arrival it
  // lands instead.
  void rank_deliveries_by_source() { rank_by_src_ = true; }

  // Attaches the telemetry recorder; `port_id` is the id this port was
  // registered under (obs::Recorder::register_port). Null detaches — the
  // packet-event emission then costs a single predictable branch.
  void set_observer(obs::Recorder* recorder, std::uint32_t port_id) {
    obs_ = recorder;
    obs_port_id_ = port_id;
  }

  // Enqueues a packet and starts transmitting if the link is idle.
  void send(const Packet& packet);

  QueueDiscipline& queue() { return *queue_; }
  const QueueDiscipline& queue() const { return *queue_; }

  // The packet buffer this port's link and queue FIFOs live in, and the
  // blocks of it they hold, delivery keys included (the buffer audit sums
  // them).
  const util::BlockPool& buffer() const { return in_flight_.pool(); }
  std::size_t buffer_blocks() const {
    return in_flight_.blocks() + queue_->buffer_blocks();
  }

  sim::Rate rate() const { return rate_; }

  // Cumulative time spent serializing packets, up to the current simulated
  // time. Completed transmissions are accounted in full; an in-progress one
  // contributes only its elapsed part, so mid-packet samples never count
  // serialization time that has not happened yet.
  sim::Time busy_time() const {
    return busy_time_ + (transmitting() ? sim_.now() - tx_start_ : 0.0);
  }

  // Fraction of [0, now] the link spent transmitting.
  double utilization(sim::Time now) const {
    return now > 0 ? busy_time() / now : 0.0;
  }

  // Link-level conservation counters for the audit layer: every packet the
  // discipline hands to the link is either still propagating (in_flight) or
  // has been delivered to the peer — dequeued == delivered + in_flight.
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t in_flight_packets() const {
    return in_flight_.size() + (link_ != nullptr && transmitting() ? 1 : 0);
  }

  // Checks the transition keys against `now`: each pending key is at or
  // after it, the deliveries' keys rise in link order — the premise of
  // publishing only the head's — and the cached head key is the link's
  // (audit/checks.h, port/transition-order).
  void audit_transitions(sim::Time now) const;

 private:
  // A packet on the link and the key of its delivery.
  struct InFlight {
    Packet packet;
    sim::OrderKey due;
  };

  // sim::TransitionSource: runs the earlier of the tx-end and the head
  // delivery.
  void fire() override;
  std::size_t pending() const override {
    return in_flight_.size() + (transmitting() ? 1 : 0);
  }

  bool transmitting() const { return tx_end_.t != sim::kIdleKey.t; }
  // Starts serializing the next queued packet if the link is idle; true
  // when one started.
  bool try_transmit();
  void end_transmission();
  void deliver_head();
  // Publishes the earliest pending key.
  void publish();
  void emit_packet_event(obs::PacketEventKind kind, const Packet& packet);

  sim::Simulator& sim_;
  sim::Rate rate_;
  sim::Time propagation_;
  std::unique_ptr<QueueDiscipline> queue_;
  PacketSink* peer_ = nullptr;
  LinkReceiver* link_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_port_id_ = 0;
  std::uint32_t leaf_;  // this source's leaf in sim_'s winner tree
  bool rank_by_src_ = false;
  sim::Time busy_time_ = 0.0;  // completed transmissions only
  sim::Time tx_start_ = 0.0;   // start of the in-progress transmission
  // The in-progress transmission's end; kIdleKey while the link is idle.
  sim::OrderKey tx_end_ = sim::kIdleKey;
  // The head delivery's key, copied out of in_flight_ so choosing between
  // it and the tx-end reads no buffer block; kIdleKey when none.
  sim::OrderKey head_due_ = sim::kIdleKey;
  std::uint64_t delivered_packets_ = 0;
  // Sink mode: packets serialized but not yet delivered (propagation in
  // progress), each with its delivery key. Deliveries are keyed in link
  // order with a constant propagation delay, so the head is always the
  // next to arrive. Handoff mode hands each packet over at tx-end, so at
  // most one is in flight, in serializing_ with its arrival time, and
  // in_flight_ stays empty.
  util::BlockFifo<InFlight> in_flight_;
  Packet serializing_;
  sim::Time arrival_ = 0.0;
};

}  // namespace aeq::net
