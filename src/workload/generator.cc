#include "workload/generator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::workload {

DestinationPicker uniform_destinations(std::size_t num_hosts,
                                       net::HostId self) {
  AEQ_ASSERT(num_hosts >= 2);
  return [num_hosts, self](sim::Rng& rng) {
    auto dst = static_cast<net::HostId>(rng.index(num_hosts - 1));
    if (dst >= self) ++dst;
    return dst;
  };
}

DestinationPicker fixed_destination(net::HostId dst) {
  return [dst](sim::Rng&) { return dst; };
}

TrafficGenerator::TrafficGenerator(sim::Simulator& simulator,
                                   rpc::RpcStack& stack,
                                   DestinationPicker pick_destination,
                                   const GeneratorConfig& config,
                                   sim::Rng rng)
    : sim_(simulator),
      stack_(stack),
      pick_destination_(std::move(pick_destination)),
      rng_(rng),
      window_start_(config.window_start),
      window_stop_(config.window_stop) {
  AEQ_ASSERT(pick_destination_ != nullptr);
  AEQ_ASSERT(!config.classes.empty());
  for (const ClassLoad& load : config.classes) {
    AEQ_ASSERT(load.sizes != nullptr);
    if (load.byte_rate <= 0.0) continue;  // class absent from this mix
    const double event_rate = load.byte_rate / load.sizes->mean_bytes();
    ClassState state;
    state.load = load;
    if (config.burst_over_avg > 1.0) {
      state.arrivals = std::make_unique<BurstCycleArrivals>(
          event_rate, config.burst_over_avg, config.burst_period);
    } else {
      state.arrivals = std::make_unique<PoissonArrivals>(event_rate);
    }
    classes_.push_back(std::move(state));
  }
}

void TrafficGenerator::run(sim::Time start, sim::Time stop) {
  AEQ_ASSERT(stop > start);
  start = std::max(start, window_start_);
  stop_time_ = window_stop_ > 0.0 ? std::min(stop, window_stop_) : stop;
  if (start >= stop_time_) return;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    schedule_next(i, start);
  }
}

void TrafficGenerator::schedule_next(std::size_t class_index,
                                     sim::Time from) {
  ClassState& state = classes_[class_index];
  const sim::Time at = state.arrivals->next_arrival(from, rng_);
  if (at >= stop_time_) return;
  sim_.schedule_at(at, [this, class_index, at] {
    const obs::prof::ProfRegion prof(obs::prof::Region::kWorkload);
    ClassState& cls = classes_[class_index];
    const net::HostId dst = pick_destination_(rng_);
    const std::uint64_t bytes = cls.load.sizes->sample(rng_);
    stack_.issue(dst, cls.load.priority, bytes, cls.load.deadline_budget);
    schedule_next(class_index, at);
  });
}

}  // namespace aeq::workload
