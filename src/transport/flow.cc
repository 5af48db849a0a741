#include "transport/flow.h"

#include <algorithm>
#include <utility>

#include "sim/assert.h"

namespace aeq::transport {

Flow::Flow(sim::Simulator& simulator, net::Host& src_host, net::HostId dst,
           net::QoSLevel qos, std::uint64_t flow_id,
           const TransportConfig& config, MessageSlab& messages,
           std::unique_ptr<CongestionControl> cc)
    : sim_(simulator),
      src_host_(src_host),
      dst_(dst),
      qos_(qos),
      flow_id_(flow_id),
      config_(&config),
      cc_(std::move(cc)),
      slab_(messages) {
  AEQ_ASSERT(cc_ != nullptr);
}

void Flow::send_message(std::uint64_t bytes, std::uint64_t rpc_id,
                        CompletionHandler on_complete) {
  AEQ_ASSERT_MSG(bytes > 0, "empty message");
  if (next_seq_ == stream_end_ && bytes_in_flight() == 0 &&
      sim_.now() - last_activity_ > config_->idle_restart_after) {
    cc_->on_idle_restart();
    emit_cwnd();
  }
  stream_end_ += bytes;
  const MessageSlab::Index slot = slab_.push_back(
      messages_, PendingMessage{stream_end_, bytes, rpc_id, sim_.now(),
                                std::move(on_complete)});
  if (send_ == MessageSlab::kNil) send_ = slot;
  try_send();
}

sim::Time Flow::pace_gap() const {
  const sim::Time base = srtt_ > 0.0 ? srtt_ : config_->initial_rtt;
  const double cwnd = std::max(cc_->cwnd_packets(), 1e-6);
  return base / cwnd;
}

void Flow::try_send() {
  while (next_seq_ < stream_end_) {
    const double cwnd_pkts = cc_->cwnd_packets();
    const std::uint64_t in_flight = next_seq_ - acked_;
    // Segments never span message boundaries, so every packet carries the
    // rpc_id of the one message its payload belongs to: the first queued
    // message that ends past next_seq_.
    while (slab_[send_].end_offset <= next_seq_) send_ = slab_.next(send_);
    const PendingMessage& msg = slab_[send_];
    const std::uint64_t rpc_id = msg.rpc_id;
    const auto payload = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        net::kMtuBytes, msg.end_offset - next_seq_));
    if (cwnd_pkts >= 1.0) {
      const double cwnd_bytes =
          cwnd_pkts * static_cast<double>(net::kMtuBytes);
      if (in_flight > 0 &&
          static_cast<double>(in_flight + payload) > cwnd_bytes) {
        break;
      }
    } else {
      // Sub-packet window: at most one packet in flight, paced.
      if (in_flight > 0) break;
      if (sim_.now() < next_pace_time_) {
        if (!pace_event_) {
          pace_event_ = sim_.schedule_at(next_pace_time_, [this] {
            pace_event_ = sim::EventId{};
            try_send();
          });
        }
        break;
      }
    }
    send_segment(next_seq_, payload, rpc_id);
    next_seq_ += payload;
    if (cc_->cwnd_packets() < 1.0) {
      next_pace_time_ = sim_.now() + pace_gap();
    }
  }
  rearm_rto();
}

void Flow::send_segment(std::uint64_t offset, std::uint32_t payload,
                        std::uint64_t rpc_id) {
  net::Packet p;
  p.src = src_host_.id();
  p.dst = dst_;
  p.size_bytes = payload;
  p.qos = qos_;
  p.type = net::PacketType::kData;
  p.flow_id = flow_id_;
  p.seq = offset;
  p.rpc_id = rpc_id;
  p.sent_time = sim_.now();
  last_activity_ = sim_.now();
  src_host_.send(p);
}

void Flow::update_srtt(sim::Time sample) {
  srtt_ = srtt_ == 0.0 ? sample : 0.875 * srtt_ + 0.125 * sample;
}

sim::Time Flow::rto() const {
  const sim::Time base = srtt_ > 0.0 ? srtt_ : config_->initial_rtt;
  return std::max(config_->min_rto, config_->rto_srtt_multiplier * base);
}

void Flow::rearm_rto() {
  // Lazy rearm: every ACK pushes the deadline forward, but the scheduled
  // event is left in place and chases the deadline when it fires early.
  // The eager cancel+reschedule-per-ACK alternative is the single largest
  // source of scheduler tombstones (§DESIGN 10) — on the fig03 workload it
  // roughly one-for-one doubles timer traffic through the event heap.
  if (bytes_in_flight() == 0) {
    rto_deadline_ = 0.0;  // disarm; a pending timer no-ops when it fires
    return;
  }
  rto_deadline_ = sim_.now() + rto();
  if (rto_event_) {
    if (rto_armed_ <= rto_deadline_) return;  // fires early, then chases
    sim_.cancel(rto_event_);  // deadline moved earlier: must reschedule
  }
  arm_rto_at(rto_deadline_);
}

void Flow::arm_rto_at(sim::Time t) {
  rto_armed_ = t;
  rto_event_ = sim_.schedule_at(t, [this] {
    rto_event_ = sim::EventId{};
    if (rto_deadline_ == 0.0) return;  // disarmed since it was scheduled
    if (sim_.now() < rto_deadline_) {  // deadline moved later: chase it
      arm_rto_at(rto_deadline_);
      return;
    }
    rto_deadline_ = 0.0;
    on_rto();
  });
}

void Flow::on_rto() {
  if (bytes_in_flight() == 0) return;
  cc_->on_loss(sim_.now());
  emit_cwnd();
  retransmit_from_ack();
}

void Flow::emit_cwnd() {
  if (obs_ == nullptr) return;
  obs::CwndUpdate event;
  event.t = sim_.now();
  event.src = src_host_.id();
  event.dst = dst_;
  event.qos = qos_;
  event.cwnd_packets = cc_->cwnd_packets();
  obs_->cwnd(event);
}

void Flow::retransmit_from_ack() {
  next_seq_ = acked_;  // go-back-N
  // Every message ending at or before the ACK point has completed, so the
  // head holds acked_.
  send_ = messages_.head;
  next_pace_time_ = 0.0;
  try_send();
}

void Flow::handle_ack(const net::Packet& ack) {
  AEQ_DCHECK(ack.flow_id == flow_id_);
  if (ack.seq > acked_) {
    const std::uint64_t advanced = ack.seq - acked_;
    acked_ = ack.seq;
    // GBN can rewind next_seq_ below an ACK raced in flight.
    next_seq_ = std::max(next_seq_, acked_);
    dup_acks_ = 0;
    const sim::Time rtt = sim_.now() - ack.sent_time;
    update_srtt(rtt);
    cc_->on_ack(sim_.now(), rtt,
                static_cast<double>(advanced) /
                    static_cast<double>(net::kMtuBytes),
                ack.ecn_echo);
    emit_cwnd();
    complete_messages();
    rearm_rto();
    try_send();
  } else if (ack.seq == acked_ && bytes_in_flight() > 0) {
    if (++dup_acks_ >= 3) {
      dup_acks_ = 0;
      cc_->on_loss(sim_.now());
      emit_cwnd();
      retransmit_from_ack();
    }
  }
}

void Flow::audit_invariants() const {
  AEQ_CHECK_LE_MSG(acked_, next_seq_, "ACK point beyond send point");
  AEQ_CHECK_LE_MSG(next_seq_, stream_end_, "send point beyond stream end");
  std::uint64_t prev_end = acked_;
  std::uint64_t count = 0;
  bool cursor_seen = send_ == MessageSlab::kNil;
  MessageSlab::Index last = MessageSlab::kNil;
  for (MessageSlab::Index i = messages_.head; i != MessageSlab::kNil;
       i = slab_.next(i)) {
    const PendingMessage& msg = slab_[i];
    // Completed messages are popped eagerly, so every queued message ends
    // strictly past the ACK point, and the queue stays sorted (the send
    // cursor only ever steps forward through it).
    AEQ_CHECK_GT_MSG(msg.end_offset, prev_end,
                     "message end_offset not increasing past ACK point");
    AEQ_CHECK_GE_MSG(msg.end_offset, msg.bytes, "message larger than stream");
    if (i == send_) cursor_seen = true;
    if (!cursor_seen) {
      AEQ_CHECK_LE_MSG(msg.end_offset, next_seq_,
                       "unsent bytes queued ahead of the send cursor");
    }
    prev_end = msg.end_offset;
    last = i;
    ++count;
  }
  AEQ_CHECK_EQ_MSG(count, messages_.size, "message FIFO length mismatch");
  AEQ_CHECK_EQ_MSG(last, messages_.tail, "message FIFO tail mismatch");
  AEQ_ASSERT_MSG(cursor_seen, "send cursor is not a queued message");
  if (!messages_.empty()) {
    AEQ_CHECK_EQ_MSG(slab_[messages_.tail].end_offset, stream_end_,
                     "last queued message does not end at stream end");
  }
  cc_->audit_invariants();
}

void Flow::complete_messages() {
  while (!messages_.empty() && slab_[messages_.head].end_offset <= acked_) {
    if (send_ == messages_.head) send_ = slab_.next(send_);
    PendingMessage msg = slab_.pop_front(messages_);
    if (msg.on_complete) {
      MessageCompletion done;
      done.rpc_id = msg.rpc_id;
      done.src = src_host_.id();
      done.dst = dst_;
      done.qos = qos_;
      done.bytes = msg.bytes;
      done.issued = msg.issued;
      done.completed = sim_.now();
      msg.on_complete(done);
    }
  }
}

}  // namespace aeq::transport
