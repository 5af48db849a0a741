// A reliable, congestion-controlled byte stream between two hosts at a fixed
// QoS level. Messages (RPCs) are queued FIFO onto the stream; a message
// completes when its last byte is cumulatively acknowledged — so RNL includes
// sender-side queueing behind earlier messages, which is exactly the
// "queued for long periods at the sending hosts" effect of §2.2.1.
//
// Loss recovery is go-back-N with duplicate-ACK fast retransmit and an RTO,
// which is sufficient because per-flow packets stay in order through the
// per-class FIFO queues of this simulator.
#pragma once

#include <cstdint>
#include <memory>

#include "net/host.h"
#include "net/packet.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "transport/congestion_control.h"
#include "transport/message.h"
#include "transport/message_slab.h"

namespace aeq::transport {

struct TransportConfig {
  sim::Time initial_rtt = 10 * sim::kUsec;  // seeds pacing/RTO before samples
  sim::Time min_rto = 200 * sim::kUsec;
  double rto_srtt_multiplier = 4.0;
  // A flow idle longer than this gets a congestion-window restart before
  // its next message (stale state no longer reflects the path).
  sim::Time idle_restart_after = 500 * sim::kUsec;
};

class Flow {
 public:
  // `config` is shared, not copied: it must outlive the flow (HostStack
  // owns the one instance all of its flows point at, fixed at construction).
  // `messages` is the host's slab the flow queues its messages in; it too
  // must outlive the flow.
  Flow(sim::Simulator& simulator, net::Host& src_host, net::HostId dst,
       net::QoSLevel qos, std::uint64_t flow_id, const TransportConfig& config,
       MessageSlab& messages, std::unique_ptr<CongestionControl> cc);

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  // Appends a message to the stream. `issued` is stamped now.
  void send_message(std::uint64_t bytes, std::uint64_t rpc_id,
                    CompletionHandler on_complete);

  // Cumulative-ACK input from the receiving host (demuxed by HostStack).
  void handle_ack(const net::Packet& ack);

  std::uint64_t flow_id() const { return flow_id_; }
  std::uint64_t bytes_in_flight() const { return next_seq_ - acked_; }
  std::uint64_t backlog_bytes() const { return stream_end_ - next_seq_; }

  // Attaches the telemetry recorder: every congestion-window move (ACK
  // advance, loss, idle restart) emits a CwndUpdate. Null detaches.
  void set_observer(obs::Recorder* recorder) { obs_ = recorder; }

  // Audit hook (src/audit/checks.h): asserts the cumulative-ACK stream
  // ordering acked <= next_seq <= stream_end (go-back-N can rewind next_seq,
  // but never below the ACK point), that queued messages partition the
  // unacknowledged stream suffix in strictly increasing end_offset order,
  // that the send cursor is one of them with no unsent byte before it, and
  // delegates to the congestion controller's own invariants. Aborts via
  // AEQ_CHECK_* on violation.
  void audit_invariants() const;

 private:
  void try_send();
  void send_segment(std::uint64_t offset, std::uint32_t payload,
                    std::uint64_t rpc_id);
  void complete_messages();
  void update_srtt(sim::Time sample);
  sim::Time rto() const;
  void rearm_rto();
  void arm_rto_at(sim::Time t);
  void on_rto();
  void retransmit_from_ack();
  sim::Time pace_gap() const;
  void emit_cwnd();

  sim::Simulator& sim_;
  net::Host& src_host_;
  net::HostId dst_;
  net::QoSLevel qos_;
  std::uint64_t flow_id_;
  const TransportConfig* config_;
  std::unique_ptr<CongestionControl> cc_;
  obs::Recorder* obs_ = nullptr;

  std::uint64_t stream_end_ = 0;  // total bytes enqueued
  std::uint64_t next_seq_ = 0;    // next byte to (re)transmit
  std::uint64_t acked_ = 0;       // cumulative ack point
  MessageSlab& slab_;
  MessageSlab::Fifo messages_;  // queued in end_offset order
  // Send cursor: a queued message with no unsent byte before it, so the
  // message holding next_seq_ is found by stepping forward from here (kNil
  // iff nothing is queued). Completion moves it off a freed slot, and a
  // go-back-N rewind resets it to the head.
  MessageSlab::Index send_ = MessageSlab::kNil;

  sim::Time srtt_ = 0.0;
  sim::Time last_activity_ = 0.0;
  int dup_acks_ = 0;
  sim::EventId rto_event_;
  // Lazy RTO state: the deadline ACKs keep pushing forward (0 = disarmed)
  // and the time the pending event actually fires. The event is only ever
  // cancelled when the deadline moves *earlier* (an srtt collapse), so the
  // common ACK path leaves no tombstones in the scheduler.
  sim::Time rto_deadline_ = 0.0;
  sim::Time rto_armed_ = 0.0;
  sim::EventId pace_event_;
  sim::Time next_pace_time_ = 0.0;
};

}  // namespace aeq::transport
