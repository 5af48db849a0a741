// Open-loop traffic generator driving one host's RpcStack.
//
// Each (priority class) gets its own arrival process sized so that the
// class's *byte* rate matches its share of the configured load — matching
// the paper's QoS-mix definition (share of arriving traffic). Destinations
// are drawn by a pluggable picker (all-to-all uniform, fixed target, ...).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rpc/rpc_stack.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/arrival.h"
#include "workload/size_dist.h"

namespace aeq::workload {

// Picks a destination host for the next RPC.
using DestinationPicker = std::function<net::HostId(sim::Rng&)>;

// Uniform over all hosts except `self`.
DestinationPicker uniform_destinations(std::size_t num_hosts,
                                       net::HostId self);
// Always the same destination.
DestinationPicker fixed_destination(net::HostId dst);

struct ClassLoad {
  rpc::Priority priority = rpc::Priority::kPC;
  double byte_rate = 0.0;  // average offered bytes/sec for this class
  const SizeDistribution* sizes = nullptr;
  // Relative deadline handed to deadline-aware transports (0 = none).
  sim::Time deadline_budget = 0.0;
};

struct GeneratorConfig {
  std::vector<ClassLoad> classes;
  double burst_over_avg = 1.0;            // rho/mu; 1.0 = Poisson
  sim::Time burst_period = 100 * sim::kUsec;  // Figure 7 cycle length
  // Optional activation window, intersected with the run() span — lets an
  // experiment model surges that switch on and off (Figure 3).
  sim::Time window_start = 0.0;
  sim::Time window_stop = 0.0;  // 0 = unbounded
};

class TrafficGenerator {
 public:
  TrafficGenerator(sim::Simulator& simulator, rpc::RpcStack& stack,
                   DestinationPicker pick_destination,
                   const GeneratorConfig& config, sim::Rng rng);

  // Begins issuing at `start` and stops scheduling new RPCs after `stop`.
  void run(sim::Time start, sim::Time stop);

 private:
  struct ClassState {
    ClassLoad load;
    std::unique_ptr<ArrivalProcess> arrivals;
  };

  void schedule_next(std::size_t class_index, sim::Time from);

  sim::Simulator& sim_;
  rpc::RpcStack& stack_;
  DestinationPicker pick_destination_;
  sim::Rng rng_;
  sim::Time window_start_ = 0.0;
  sim::Time window_stop_ = 0.0;
  sim::Time stop_time_ = 0.0;
  std::vector<ClassState> classes_;
};

}  // namespace aeq::workload
