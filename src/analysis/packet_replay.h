// Packet-level replay of Figure 7's burst/idle arrivals (paper §6.1, the
// Fig 10 validation of Eqs 1 and 8): every period, class i sends packets of
// one size at rho * C * shares[i] for the first mu/rho of the period and is
// idle for the rest, straight into one egress port of rate C with zero
// propagation. Congestion control is off and the buffer unbounded, so each
// class's worst delay is the packetized counterpart of the closed form in
// analysis/wfq_delay.h. fig10_sim_validation, abl_wfq_impl and
// WfqDelayBoundProperty (tests/property_test.cc) all run through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/queue.h"
#include "sim/units.h"
#include "util/block_fifo.h"

namespace aeq::analysis {

// Line rate C of the replay's port.
inline constexpr sim::Rate kReplayLineRate = sim::gbps(100);

// Packet-granularity slack, as a fraction of the period, by which a replay
// may stray from the closed form or from another discipline's replay:
// fig10_sim_validation and abl_wfq_impl exit 1 beyond it, and
// WfqDelayBoundProperty holds DWRR to it.
inline constexpr double kReplaySlack = 0.01;

// Builds the port's queue discipline on the replay's packet buffer.
using ReplayQueue =
    std::function<std::unique_ptr<net::QueueDiscipline>(util::BlockPool&)>;

// Runs `cycles` periods of the pattern and returns each class's worst
// queueing-plus-serialization delay, normalized to `period`. A class with
// a zero share sends nothing and reads 0.
std::vector<double> replay_figure7(double mu, double rho,
                                   const std::vector<double>& shares,
                                   std::uint32_t packet_bytes,
                                   sim::Time period, int cycles,
                                   const ReplayQueue& make_queue);

}  // namespace aeq::analysis
