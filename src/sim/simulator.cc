#include "sim/simulator.h"

#include <algorithm>
#include <limits>

#include "obs/prof/profiler.h"

namespace aeq::sim {

void Simulator::dispatch_until(Time limit) {
  stopped_ = false;
  // An idle source's key is +inf: no run reaches it, run()'s included.
  limit = std::min(limit, std::numeric_limits<Time>::max());
  while (!stopped_) {
    const std::uint32_t slot = store_.head();
    const WinnerTree::Entry& source = sources_.top();
    // The store's empty head is the idle key, which no source key follows.
    const OrderKey event =
        slot == kNoSlot ? kIdleKey
                        : OrderKey{store_.key(slot).t, store_.key(slot).tie};
    const OrderKey transition{source.t(), source.tie};
    const bool is_event = earlier(event, transition);
    const OrderKey& next = is_event ? event : transition;
    if (next.t > limit) return;
    AEQ_DCHECK(next.t >= now_);
    // The executive's contract: dispatches leave in strictly increasing
    // (time, tie key) order, events and transitions alike. Backend
    // equivalence rests on it.
    AEQ_AUDIT_ONLY({
      AEQ_CHECK_GE_MSG(next.t, last_t_, "event dispatched out of time order");
      if (next.t == last_t_) {
        AEQ_CHECK_GT_MSG(next.tie, last_tie_,
                         "tied events dispatched out of insertion order");
      }
      last_t_ = next.t;
      last_tie_ = next.tie;
    });
    now_ = next.t;
    // Keep the diagnostic clock in step so AEQ_CHECK failure reports
    // anywhere in the call tree below carry the simulated time.
    detail::g_sim_now = now_;
    ++events_processed_;
    if (digest_enabled_) digest_.record(now_, tie_rank_of(next.tie));
    // Root profiling region: every handler's cost lands under dispatch;
    // instrumented callees subtract themselves into their own buckets. One
    // thread-local load + branch when profiling is off (obs/prof/profiler.h).
    const obs::prof::ProfRegion prof(obs::prof::Region::kDispatch);
    if (is_event) {
      store_.run(store_.pop_head());
    } else {
      sources_.fire(source.leaf);
    }
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
