// FlightRecorder: bounded ring-buffer sink for post-mortem trace dumps.
//
// Full Chrome traces of long runs are gigabytes; what a crash or anomaly
// investigation actually needs is the last few thousand events before the
// trigger. The flight recorder keeps one fixed-capacity ring per event
// category (events are POD, so a slot is a few dozen bytes) and records
// continuously at O(1) per event. Nothing is written until dump() is
// called — by the experiment's watchdog callback, or by the assert/audit
// failure hook (sim/assert.h) just before abort — at which point the
// retained events are merged in time order and replayed through a
// ChromeTraceSink into a Perfetto-loadable snapshot, with the triggering
// anomaly (if any) marked as a global instant on the timeline.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "obs/watchdog.h"

namespace aeq::obs {

class FlightRecorder : public Sink {
 public:
  // Events retained per category. The five rings are independent so a
  // packet storm cannot evict the (much rarer) RPC lifecycle events.
  static constexpr std::size_t kCapacity = 4096;

  FlightRecorder();

  void on_port_registered(std::uint32_t port,
                          const std::string& name) override;
  void on_rpc_generated(const RpcGenerated& event) override;
  void on_admission(const AdmissionDecision& event) override;
  void on_packet(const PacketEvent& event) override;
  void on_cwnd(const CwndUpdate& event) override;
  void on_rpc_complete(const RpcComplete& event) override;

  // Writes a Chrome-trace snapshot of the retained events. `anomaly` (may
  // be null) is rendered as a global instant labelled with describe().
  void dump(std::ostream& out, const Anomaly* anomaly = nullptr);
  void dump(const std::string& path, const Anomaly* anomaly = nullptr);

  std::uint64_t events_seen() const { return events_seen_; }
  std::size_t events_retained() const;
  std::uint64_t dumps() const { return dumps_; }

 private:
  // Fixed-capacity ring of POD events; push overwrites the oldest.
  template <typename Event>
  class Ring {
   public:
    void reset(std::size_t capacity) {
      slots_.assign(capacity, Event{});
      next_ = 0;
      size_ = 0;
    }
    void push(const Event& event) {
      if (slots_.empty()) return;
      slots_[next_] = event;
      next_ = (next_ + 1) % slots_.size();
      if (size_ < slots_.size()) ++size_;
    }
    std::size_t size() const { return size_; }
    // Appends the retained events, oldest first.
    template <typename Fn>
    void visit(Fn&& fn) const {
      const std::size_t start = (next_ + slots_.size() - size_) %
                                (slots_.empty() ? 1 : slots_.size());
      for (std::size_t i = 0; i < size_; ++i) {
        fn(slots_[(start + i) % slots_.size()]);
      }
    }

   private:
    std::vector<Event> slots_;
    std::size_t next_ = 0;
    std::size_t size_ = 0;
  };

  std::vector<std::string> port_names_;  // indexed by port id
  Ring<RpcGenerated> generated_;
  Ring<AdmissionDecision> admissions_;
  Ring<PacketEvent> packets_;
  Ring<CwndUpdate> cwnds_;
  Ring<RpcComplete> completions_;
  std::uint64_t events_seen_ = 0;
  std::uint64_t dumps_ = 0;
};

}  // namespace aeq::obs
