#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::sim {

EventId Simulator::schedule_at(Time t, EventScheduler::Handler handler,
                               std::uint16_t rank) {
  AEQ_CHECK_GE_MSG(t, now_, "cannot schedule into the past");
  return queue_->schedule(t, std::move(handler), rank);
}

void Simulator::dispatch(EventScheduler::Popped& popped) {
  AEQ_DCHECK(popped.time >= now_);
  now_ = popped.time;
  // Keep the diagnostic clock in step so AEQ_CHECK failure reports anywhere
  // in the call tree below carry the simulated time.
  detail::g_sim_now = now_;
  ++events_processed_;
  if (digest_enabled_) {
    digest_.record(popped.time, tie_rank_of(popped.tie_key));
  }
  // Root profiling region: every handler's cost lands under dispatch;
  // instrumented callees subtract themselves into their own buckets. One
  // thread-local load + branch when profiling is off (obs/prof/profiler.h).
  const obs::prof::ProfRegion prof(obs::prof::Region::kDispatch);
  popped.handler();
}

void Simulator::run() {
  stopped_ = false;
  EventScheduler::Popped popped;
  while (!stopped_ &&
         queue_->pop_if_at_most(std::numeric_limits<Time>::infinity(),
                                popped)) {
    dispatch(popped);
  }
}

void Simulator::run_until(Time t_end) {
  AEQ_CHECK_GE_MSG(t_end, now_, "run_until target precedes current time");
  stopped_ = false;
  EventScheduler::Popped popped;
  while (!stopped_ && queue_->pop_if_at_most(t_end, popped)) {
    dispatch(popped);
  }
  if (!stopped_ && now_ < t_end) {
    now_ = t_end;
    detail::g_sim_now = now_;
  }
}

}  // namespace aeq::sim
