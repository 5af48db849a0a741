#include "net/port.h"

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::net {

Port::Port(sim::Simulator& simulator, util::BlockPool& buffer,
           sim::Rate rate_bytes_per_sec, sim::Time propagation_delay,
           std::unique_ptr<QueueDiscipline> queue)
    : sim_(simulator),
      rate_(rate_bytes_per_sec),
      propagation_(propagation_delay),
      queue_(std::move(queue)),
      in_flight_(buffer) {
  AEQ_CHECK_GT(rate_, 0.0);
  AEQ_CHECK_GE(propagation_, 0.0);
  AEQ_ASSERT(queue_ != nullptr);
}

void Port::send(const Packet& packet) {
  AEQ_ASSERT_MSG(peer_ != nullptr || link_ != nullptr, "port not connected");
  const bool accepted =
      queue_->enqueue(packet);  // drop decision belongs to the discipline
  if (obs_ != nullptr) {
    emit_packet_event(accepted ? obs::PacketEventKind::kEnqueue
                               : obs::PacketEventKind::kDrop,
                      packet);
  }
  try_transmit();
}

void Port::emit_packet_event(obs::PacketEventKind kind, const Packet& packet) {
  obs::PacketEvent event;
  event.t = sim_.now();
  event.kind = kind;
  event.port = obs_port_id_;
  event.qos = packet.qos;
  event.bytes = packet.size_bytes;
  event.qlen_bytes = queue_->backlog_bytes();
  event.qlen_packets = queue_->backlog_packets();
  obs_->packet(event);
}

void Port::deliver_head() {
  AEQ_DCHECK(!in_flight_.empty());
  const Packet packet = in_flight_.front();
  in_flight_.pop_front();
  ++delivered_packets_;
  peer_->receive(packet);
}

void Port::try_transmit() {
  if (busy_) return;
  const obs::prof::ProfRegion prof(obs::prof::Region::kPortTx);
  auto next = queue_->dequeue();
  if (!next) return;
  if (obs_ != nullptr) {
    emit_packet_event(obs::PacketEventKind::kDequeue, *next);
  }
  const sim::Time ser =
      sim::serialization_delay(next->size_bytes, rate_);
  busy_ = true;
  tx_start_ = sim_.now();
  // Deliver at tx-complete + propagation; free the transmitter at
  // tx-complete (charging the full serialization time only then) and
  // immediately look for more work.
  if (link_ != nullptr) {
    // Handoff mode: the receiver owns the propagation leg, so the tx-end
    // event both frees the transmitter and hands the packet over — one
    // event per packet here plus one arrival event on the receiving side,
    // the same two-per-packet budget as the sink mode below. The one
    // packet in flight waits in serializing_, so the port holds no buffer
    // block and takes none per packet. The arrival timestamp is computed
    // here, as now + (ser + propagation) — the exact expression the sink
    // mode passes to schedule_in — so serial and sharded runs place the
    // arrival on the same float, bit for bit (computing now + ser first
    // and adding propagation at tx-end rounds differently and breaks
    // schedule equivalence).
    serializing_ = *next;
    const sim::Time arrival = sim_.now() + (ser + propagation_);
    sim_.schedule_in(ser, [this, arrival] {
      busy_time_ += sim_.now() - tx_start_;
      busy_ = false;
      ++delivered_packets_;
      link_->on_tx_complete(serializing_, arrival);
      try_transmit();
    });
    return;
  }
  in_flight_.push_back(*next);
  const std::uint16_t rank =
      rank_by_src_ ? delivery_tie_rank(next->src) : sim::kTieRankDefault;
  sim_.schedule_in(ser + propagation_, [this] { deliver_head(); }, rank);
  sim_.schedule_in(ser, [this] {
    busy_time_ += sim_.now() - tx_start_;
    busy_ = false;
    try_transmit();
  });
}

}  // namespace aeq::net
