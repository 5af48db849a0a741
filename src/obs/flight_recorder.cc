#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "obs/chrome_trace_sink.h"
#include "sim/assert.h"

namespace aeq::obs {
namespace {

// One entry of the merged, time-ordered replay: which ring the event came
// from plus its index into a per-category staging vector.
struct Slot {
  sim::Time t = 0.0;
  std::uint8_t category = 0;
  std::uint32_t index = 0;
};

}  // namespace

FlightRecorder::FlightRecorder() {
  generated_.reset(kCapacity);
  admissions_.reset(kCapacity);
  packets_.reset(kCapacity);
  cwnds_.reset(kCapacity);
  completions_.reset(kCapacity);
}

void FlightRecorder::on_port_registered(std::uint32_t port,
                                        const std::string& name) {
  if (port >= port_names_.size()) port_names_.resize(port + 1);
  port_names_[port] = name;
}

void FlightRecorder::on_rpc_generated(const RpcGenerated& event) {
  ++events_seen_;
  generated_.push(event);
}

void FlightRecorder::on_admission(const AdmissionDecision& event) {
  ++events_seen_;
  admissions_.push(event);
}

void FlightRecorder::on_packet(const PacketEvent& event) {
  ++events_seen_;
  packets_.push(event);
}

void FlightRecorder::on_cwnd(const CwndUpdate& event) {
  ++events_seen_;
  cwnds_.push(event);
}

void FlightRecorder::on_rpc_complete(const RpcComplete& event) {
  ++events_seen_;
  completions_.push(event);
}

std::size_t FlightRecorder::events_retained() const {
  return generated_.size() + admissions_.size() + packets_.size() +
         cwnds_.size() + completions_.size();
}

void FlightRecorder::dump(const std::string& path, const Anomaly* anomaly) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  AEQ_ASSERT_MSG(out.is_open(),
                 "FlightRecorder: cannot open dump output file");
  dump(out, anomaly);
}

void FlightRecorder::dump(std::ostream& out, const Anomaly* anomaly) {
  ++dumps_;

  // Stage each ring's retained events (oldest first) and index them.
  std::vector<RpcGenerated> generated;
  std::vector<AdmissionDecision> admissions;
  std::vector<PacketEvent> packets;
  std::vector<CwndUpdate> cwnds;
  std::vector<RpcComplete> completions;
  std::vector<Slot> slots;
  slots.reserve(events_retained());

  const auto stage = [&](auto& staged, std::uint8_t category,
                         const auto& event) {
    Slot slot;
    slot.t = event.t;
    slot.category = category;
    slot.index = static_cast<std::uint32_t>(staged.size());
    staged.push_back(event);
    slots.push_back(slot);
  };
  generated_.visit(
      [&](const RpcGenerated& e) { stage(generated, 0, e); });
  admissions_.visit(
      [&](const AdmissionDecision& e) { stage(admissions, 1, e); });
  packets_.visit([&](const PacketEvent& e) { stage(packets, 2, e); });
  cwnds_.visit([&](const CwndUpdate& e) { stage(cwnds, 3, e); });
  completions_.visit(
      [&](const RpcComplete& e) { stage(completions, 4, e); });

  // Each ring is already time-ordered; stable_sort on t merges them while
  // keeping same-timestamp events in a deterministic category order.
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.t < b.t; });

  ChromeTraceSink sink(&out);
  for (std::size_t id = 0; id < port_names_.size(); ++id) {
    sink.on_port_registered(static_cast<std::uint32_t>(id), port_names_[id]);
  }
  for (const Slot& slot : slots) {
    switch (slot.category) {
      case 0:
        sink.on_rpc_generated(generated[slot.index]);
        break;
      case 1:
        sink.on_admission(admissions[slot.index]);
        break;
      case 2:
        sink.on_packet(packets[slot.index]);
        break;
      case 3:
        sink.on_cwnd(cwnds[slot.index]);
        break;
      case 4:
        sink.on_rpc_complete(completions[slot.index]);
        break;
    }
  }
  sim::Time end = slots.empty() ? 0.0 : slots.back().t;
  if (anomaly != nullptr) {
    sink.annotate(anomaly->t, describe(*anomaly));
    end = std::max(end, anomaly->t);
  }
  sink.flush(end);
}

}  // namespace aeq::obs
