// Recorder: the single funnel every telemetry event flows through.
//
// Emitters (rpc::RpcStack, net::Port, transport::Flow, ...) hold a nullable
// `obs::Recorder*`. With tracing off the pointer is null and every emission
// site is one predictable branch — behaviour and output stay byte-identical
// to an untraced build. With tracing on, the recorder fans each event out to
// its registered sinks in registration order.
//
// Sinks implement the `Sink` interface below; all handlers default to no-ops
// so a sink overrides only the events it cares about. Sinks may be owned by
// the recorder (own_sink) or borrowed (add_sink) when the caller wants to
// inspect the sink afterwards.
//
// Ports are registered up front (register_port) so packet events carry a
// dense uint32 id instead of a string; registration order is the experiment
// wiring order, which is deterministic for a fixed config.
//
// Sharded runs build one Recorder per shard; each gets a distinct
// first_port_id base so the global port-id space stays collision-free and
// obs::shard_merge can interleave the per-shard Chrome-trace tracks without
// two shards' ports landing on one pid (tests/shard_merge_test.cc).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/prof/profiler.h"

namespace aeq::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  // A port id came into existence; `name` is stable for the run.
  virtual void on_port_registered(std::uint32_t /*port*/,
                                  const std::string& /*name*/) {}

  virtual void on_rpc_generated(const RpcGenerated& /*event*/) {}
  virtual void on_admission(const AdmissionDecision& /*event*/) {}
  virtual void on_packet(const PacketEvent& /*event*/) {}
  virtual void on_cwnd(const CwndUpdate& /*event*/) {}
  virtual void on_rpc_complete(const RpcComplete& /*event*/) {}

  // End of run; sinks that buffer or stream finalize their output here.
  virtual void flush(sim::Time /*now*/) {}
};

class Recorder {
 public:
  // `first_port_id` offsets every id this recorder assigns; per-shard
  // recorders pass disjoint bases so ids are globally unique across shards.
  Recorder() = default;
  explicit Recorder(std::uint32_t first_port_id)
      : first_port_id_(first_port_id) {}

  // Registers a sink the caller keeps alive for the recorder's lifetime.
  // Ports registered before the sink arrived are replayed immediately, so a
  // sink attached mid-run (e.g. a flight recorder armed on anomaly) still
  // learns every port's name.
  void add_sink(Sink* sink) {
    for (std::size_t id = 0; id < port_names_.size(); ++id) {
      sink->on_port_registered(
          first_port_id_ + static_cast<std::uint32_t>(id), port_names_[id]);
    }
    sinks_.push_back(sink);
  }

  // Registers a sink the recorder owns. Known ports replay as in add_sink.
  Sink* own_sink(std::unique_ptr<Sink> sink) {
    Sink* raw = sink.get();
    owned_.push_back(std::move(sink));
    add_sink(raw);
    return raw;
  }

  std::size_t sink_count() const { return sinks_.size(); }

  // Assigns the next port id (first_port_id + dense local index) and
  // announces it to the sinks.
  std::uint32_t register_port(const std::string& name) {
    const auto id =
        first_port_id_ + static_cast<std::uint32_t>(port_names_.size());
    port_names_.push_back(name);
    for (Sink* sink : sinks_) sink->on_port_registered(id, name);
    return id;
  }
  const std::string& port_name(std::uint32_t port) const {
    return port_names_.at(port - first_port_id_);
  }
  std::size_t port_count() const { return port_names_.size(); }

  void rpc_generated(const RpcGenerated& event) {
    const prof::ProfRegion region(prof::Region::kTelemetry);
    for (Sink* sink : sinks_) sink->on_rpc_generated(event);
  }
  void admission(const AdmissionDecision& event) {
    const prof::ProfRegion region(prof::Region::kTelemetry);
    for (Sink* sink : sinks_) sink->on_admission(event);
  }
  void packet(const PacketEvent& event) {
    const prof::ProfRegion region(prof::Region::kTelemetry);
    for (Sink* sink : sinks_) sink->on_packet(event);
  }
  void cwnd(const CwndUpdate& event) {
    const prof::ProfRegion region(prof::Region::kTelemetry);
    for (Sink* sink : sinks_) sink->on_cwnd(event);
  }
  void rpc_complete(const RpcComplete& event) {
    const prof::ProfRegion region(prof::Region::kTelemetry);
    for (Sink* sink : sinks_) sink->on_rpc_complete(event);
  }

  void flush(sim::Time now) {
    for (Sink* sink : sinks_) sink->flush(now);
  }

 private:
  std::vector<Sink*> sinks_;
  std::vector<std::unique_ptr<Sink>> owned_;
  std::vector<std::string> port_names_;
  std::uint32_t first_port_id_ = 0;
};

}  // namespace aeq::obs
