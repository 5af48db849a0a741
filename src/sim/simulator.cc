#include "sim/simulator.h"

#include "obs/prof/profiler.h"

namespace aeq::sim {

void Simulator::dispatch_until(Time limit) {
  stopped_ = false;
  while (!stopped_) {
    const std::uint32_t slot = store_.pop_at_most(limit);
    if (slot == kNoSlot) return;
    const EventKey& key = store_.key(slot);
    AEQ_DCHECK(key.t >= now_);
    now_ = key.t;
    // Keep the diagnostic clock in step so AEQ_CHECK failure reports
    // anywhere in the call tree below carry the simulated time.
    detail::g_sim_now = now_;
    ++events_processed_;
    if (digest_enabled_) digest_.record(now_, tie_rank_of(key.tie));
    // Root profiling region: every handler's cost lands under dispatch;
    // instrumented callees subtract themselves into their own buckets. One
    // thread-local load + branch when profiling is off (obs/prof/profiler.h).
    const obs::prof::ProfRegion prof(obs::prof::Region::kDispatch);
    store_.run(slot);
  }
}

void Simulator::run_until(Time t_end) {
  AEQ_CHECK_GE_MSG(t_end, now_, "run_until target precedes current time");
  dispatch_until(t_end);
  if (!stopped_ && now_ < t_end) {
    now_ = t_end;
    detail::g_sim_now = now_;
  }
}

}  // namespace aeq::sim
