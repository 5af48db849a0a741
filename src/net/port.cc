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
      leaf_(simulator.attach(*this)),
      in_flight_(buffer) {
  AEQ_CHECK_GT(rate_, 0.0);
  AEQ_CHECK_GE(propagation_, 0.0);
  AEQ_ASSERT(queue_ != nullptr);
}

Port::~Port() { sim_.detach(leaf_); }

void Port::send(const Packet& packet) {
  AEQ_ASSERT_MSG(peer_ != nullptr || link_ != nullptr, "port not connected");
  const bool accepted =
      queue_->enqueue(packet);  // drop decision belongs to the discipline
  if (obs_ != nullptr) {
    emit_packet_event(accepted ? obs::PacketEventKind::kEnqueue
                               : obs::PacketEventKind::kDrop,
                      packet);
  }
  if (try_transmit()) publish();
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

void Port::fire() {
  if (sim::earlier(head_due_, tx_end_)) {
    deliver_head();
  } else {
    end_transmission();
  }
  publish();
}

void Port::publish() {
  sim_.publish(leaf_, sim::earlier(head_due_, tx_end_) ? head_due_ : tx_end_);
}

void Port::deliver_head() {
  const Packet packet = in_flight_.front().packet;
  in_flight_.pop_front();
  head_due_ = in_flight_.empty() ? sim::kIdleKey : in_flight_.front().due;
  ++delivered_packets_;
  peer_->receive(packet);
}

void Port::end_transmission() {
  // The full serialization time is charged only now, at tx-complete.
  busy_time_ += sim_.now() - tx_start_;
  tx_end_ = sim::kIdleKey;
  if (link_ != nullptr) {
    // Handoff mode: the receiver owns the propagation leg.
    ++delivered_packets_;
    link_->on_tx_complete(serializing_, arrival_);
  }
  try_transmit();
}

bool Port::try_transmit() {
  if (transmitting()) return false;
  const obs::prof::ProfRegion prof(obs::prof::Region::kPortTx);
  auto next = queue_->dequeue();
  if (!next) return false;
  if (obs_ != nullptr) {
    emit_packet_event(obs::PacketEventKind::kDequeue, *next);
  }
  const sim::Time ser =
      sim::serialization_delay(next->size_bytes, rate_);
  tx_start_ = sim_.now();
  if (link_ != nullptr) {
    // Handoff mode: one tx-end here plus one arrival event on the receiving
    // side, the same two transitions per packet as the sink mode below. The
    // one packet in flight waits in serializing_, so the port holds no
    // buffer block and takes none per packet. The arrival is computed here,
    // as now + (ser + propagation) — the sink mode's delivery time — so
    // serial and sharded runs place the arrival on the same float, bit for
    // bit (computing now + ser first and adding propagation at tx-end
    // rounds differently and breaks schedule equivalence).
    serializing_ = *next;
    arrival_ = sim_.now() + (ser + propagation_);
    tx_end_ = sim_.make_key(sim_.now() + ser);
    return true;
  }
  // The delivery's key is drawn before the tx-end's, as their events were
  // scheduled; with zero propagation the two share a time and only this
  // order decides between them.
  const std::uint16_t rank =
      rank_by_src_ ? delivery_tie_rank(next->src) : sim::kTieRankDefault;
  const sim::OrderKey due =
      sim_.make_key(sim_.now() + (ser + propagation_), rank);
  if (in_flight_.empty()) head_due_ = due;
  in_flight_.push_back({*next, due});
  tx_end_ = sim_.make_key(sim_.now() + ser);
  return true;
}

void Port::audit_transitions(sim::Time now) const {
  if (transmitting()) {
    AEQ_CHECK_GE_MSG(tx_end_.t, now, "port tx-end key in the past");
  }
  const sim::OrderKey head =
      in_flight_.empty() ? sim::kIdleKey : in_flight_.front().due;
  AEQ_ASSERT_MSG(head.t == head_due_.t && head.tie == head_due_.tie,
                 "port head delivery key differs from its link's head");
  const sim::OrderKey* previous = nullptr;
  in_flight_.for_each([&](const InFlight& flight) {
    AEQ_CHECK_GE_MSG(flight.due.t, now, "port delivery key in the past");
    if (previous != nullptr) {
      AEQ_ASSERT_MSG(sim::earlier(*previous, flight.due),
                     "port deliveries keyed out of link order");
    }
    previous = &flight.due;
  });
}

}  // namespace aeq::net
