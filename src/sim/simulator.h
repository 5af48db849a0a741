// The simulation executive: a clock plus a pluggable event scheduler.
//
// A Simulator is an explicit object passed (by reference) to every component
// that needs to schedule work; there is no global simulation state. The
// scheduler backend (binary heap or calendar queue) is chosen at
// construction; both dispatch events in identical order for a fixed seed,
// so the choice is purely a performance knob.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "sim/digest.h"
#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class Simulator {
 public:
  explicit Simulator(SchedulerBackend backend = SchedulerBackend::kHeap)
      : backend_(backend), queue_(make_scheduler(backend)) {}

  // Current simulated time.
  Time now() const { return now_; }

  // Which scheduler backend this executive runs on.
  SchedulerBackend backend() const { return backend_; }

  // Schedules `handler` at absolute time `t` (must be >= now()). `rank`
  // breaks equal-timestamp ties ahead of insertion order — see
  // sim/scheduler.h; the default keeps plain insertion-order semantics.
  EventId schedule_at(Time t, EventScheduler::Handler handler,
                      std::uint16_t rank = kTieRankDefault);

  // Schedules `handler` `dt` seconds from now (dt >= 0).
  EventId schedule_in(Time dt, EventScheduler::Handler handler,
                      std::uint16_t rank = kTieRankDefault) {
    return schedule_at(now_ + dt, std::move(handler), rank);
  }

  // Cancels a pending event; safe to call with an already-fired id.
  void cancel(EventId id) { queue_->cancel(id); }

  // Pre-sizes the scheduler for `n` concurrent pending events (see
  // EventScheduler::reserve_events): below that mark the event loop
  // performs no steady-state allocations.
  void reserve_events(std::size_t n) { queue_->reserve_events(n); }

  // Runs until the event queue drains or stop() is called.
  void run();

  // Runs all events with time <= `t_end`; afterwards now() == t_end
  // (even if the queue drained earlier). Pending later events remain queued.
  void run_until(Time t_end);

  // Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  // Total events dispatched so far (for micro-benchmarks and sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  // Schedule digest (sim/digest.h): when enabled, dispatch() folds every
  // popped (time, tie-rank) into the digest.
  void enable_schedule_digest() { digest_enabled_ = true; }
  const ScheduleDigest& schedule_digest() const { return digest_; }

  // Timestamp of the earliest pending event, +infinity when the queue is
  // empty. The sharded executive uses this to pick the next conservative
  // window; for the calendar backend it costs a head scan, so call it once
  // per window, not per event.
  Time next_event_time() {
    return queue_->empty() ? std::numeric_limits<Time>::infinity()
                           : queue_->next_time();
  }

  std::size_t pending_events() const { return queue_->size(); }

 private:
  void dispatch(EventScheduler::Popped& popped);

  SchedulerBackend backend_;
  std::unique_ptr<EventScheduler> queue_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  bool digest_enabled_ = false;
  ScheduleDigest digest_;
};

}  // namespace aeq::sim
