#include "analysis/packet_replay.h"

#include <algorithm>

#include "net/port.h"
#include "sim/simulator.h"

namespace aeq::analysis {

namespace {

// The far end of the link: keeps each class's worst delay.
struct WorstDelay final : net::PacketSink {
  WorstDelay(const sim::Simulator& simulator, std::size_t num_classes)
      : clock(simulator), worst(num_classes, 0.0) {}
  void receive(const net::Packet& packet) override {
    worst[packet.qos] =
        std::max(worst[packet.qos], clock.now() - packet.sent_time);
  }
  const sim::Simulator& clock;
  std::vector<double> worst;
};

}  // namespace

std::vector<double> replay_figure7(double mu, double rho,
                                   const std::vector<double>& shares,
                                   std::uint32_t packet_bytes,
                                   sim::Time period, int cycles,
                                   const ReplayQueue& make_queue) {
  sim::Simulator s;
  WorstDelay sink(s, shares.size());
  util::BlockPool buffer;
  net::Port port(s, buffer, kReplayLineRate, 0.0, make_queue(buffer));
  port.connect(&sink);

  const sim::Time window = period * mu / rho;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const sim::Time t0 = cycle * period;
    for (std::size_t cls = 0; cls < shares.size(); ++cls) {
      if (shares[cls] <= 0.0) continue;
      const double byte_rate = rho * kReplayLineRate * shares[cls];
      const sim::Time interval = packet_bytes / byte_rate;
      for (sim::Time t = t0; t < t0 + window; t += interval) {
        s.schedule_at(t, [&port, &s, cls, packet_bytes] {
          net::Packet packet;
          packet.qos = static_cast<net::QoSLevel>(cls);
          packet.size_bytes = packet_bytes;
          packet.sent_time = s.now();
          port.send(packet);
        });
      }
    }
  }
  s.run();

  for (double& delay : sink.worst) delay /= period;
  return sink.worst;
}

}  // namespace aeq::analysis
