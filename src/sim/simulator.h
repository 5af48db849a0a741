// The simulation executive: a clock over the event store and the
// transition sources.
//
// A Simulator is an explicit object passed (by reference) to every component
// that needs to schedule work; there is no global simulation state. The
// scheduler backend (heap or calendar queue) is chosen at construction;
// both dispatch events in identical order for a fixed seed, so the choice is
// purely a performance knob.
//
// Two kinds of pending work share one dispatch order: events in the store
// (sim/scheduler.h), and the transitions sources keep themselves — a port's
// tx-ends and link deliveries — in a winner tree (sim/winner_tree.h). Each
// dispatch runs the earlier of the tree's root and the store's cached head
// by (time, tie key), and counts, digests and profiles either the same way.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/assert.h"
#include "sim/digest.h"
#include "sim/scheduler.h"
#include "sim/units.h"
#include "sim/winner_tree.h"

namespace aeq::sim {

class Simulator {
 public:
  explicit Simulator(SchedulerBackend backend = SchedulerBackend::kHeap)
      : backend_(backend), store_(make_scheduler(backend)) {}

  // Current simulated time.
  Time now() const { return now_; }

  // Which scheduler backend this executive runs on.
  SchedulerBackend backend() const { return backend_; }

  // Schedules `handler` (any callable whose capture fits the 48-byte
  // budget) at absolute time `t` (finite, >= now()). The callable is built
  // directly in its event slot. `rank` breaks equal-timestamp ties ahead of
  // insertion order — see sim/scheduler.h; the default keeps plain
  // insertion-order semantics.
  template <typename F>
  EventId schedule_at(Time t, F&& handler,
                      std::uint16_t rank = kTieRankDefault) {
    AEQ_CHECK_GE_MSG(t, now_, "cannot schedule into the past");
    AEQ_ASSERT_MSG(std::isfinite(t), "event time must be finite");
    AEQ_ASSERT_MSG(!util::is_null_callable(handler), "null event handler");
    return store_.schedule(t, std::forward<F>(handler), rank);
  }

  // Schedules `handler` `dt` seconds from now (dt >= 0).
  template <typename F>
  EventId schedule_in(Time dt, F&& handler,
                      std::uint16_t rank = kTieRankDefault) {
    return schedule_at(now_ + dt, std::forward<F>(handler), rank);
  }

  // Cancels a pending event; false (and harmless) when the id already
  // fired, is firing, or was already cancelled.
  bool cancel(EventId id) { return store_.cancel(id); }

  // Transition sources (sim/winner_tree.h). attach() gives `source` an
  // idle leaf; it must detach() it before it dies.
  std::uint32_t attach(TransitionSource& source) {
    return sources_.attach(&source);
  }
  void detach(std::uint32_t leaf) { sources_.detach(leaf); }

  // The key an event scheduled now at `t` with `rank` would get: the next
  // value of the event store's insertion counter is drawn here, so call it
  // exactly where that event would have been scheduled.
  OrderKey make_key(Time t, std::uint16_t rank = kTieRankDefault) {
    return {t, store_.draw_tie(rank)};
  }

  // Sets the earliest pending key of the source at `leaf` (kIdleKey: none).
  // A key below now() is rejected like an event scheduled into the past.
  void publish(std::uint32_t leaf, const OrderKey& key) {
    AEQ_CHECK_GE_MSG(key.t, now_, "cannot schedule into the past");
    sources_.publish(leaf, key);
  }

  // Pre-sizes the event store for `n` concurrent pending events (see
  // EventStore::reserve): below that mark the event loop performs no
  // steady-state allocations.
  void reserve_events(std::size_t n) { store_.reserve(n); }

  // Runs until no event or transition is pending, or stop() is called.
  void run() { dispatch_until(std::numeric_limits<Time>::infinity()); }

  // Runs all events with time <= `t_end`; afterwards now() == t_end
  // (even if the queue drained earlier). Pending later events remain queued.
  void run_until(Time t_end);

  // Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  // Total events dispatched so far (for micro-benchmarks and sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  // Schedule digest (sim/digest.h): when enabled, dispatch folds every
  // dispatched (time, tie-rank) into the digest.
  void enable_schedule_digest() { digest_enabled_ = true; }
  const ScheduleDigest& schedule_digest() const { return digest_; }

  // Timestamp of the earliest pending event or transition, +infinity when
  // none is. The sharded executive uses this to pick the next conservative
  // window; for the calendar backend it may cost a head scan, so call it
  // once per window, not per event.
  Time next_event_time() {
    return std::min(store_.next_time(), sources_.top().t());
  }

  // Pending events plus pending source transitions. Asks every source, so
  // it is for tests and diagnostics, not the event loop.
  std::size_t pending_events() const {
    return store_.size() + sources_.pending();
  }

 private:
  // The one dispatch loop: runs events and transitions up to `limit`
  // until stop().
  void dispatch_until(Time limit);

  SchedulerBackend backend_;
  EventStore store_;
  WinnerTree sources_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  bool digest_enabled_ = false;
  ScheduleDigest digest_;
  // Last dispatched (time, tie), read only by the AEQ_AUDIT build's
  // dispatch-order check.
  Time last_t_ = -1.0;
  std::uint64_t last_tie_ = 0;
};

}  // namespace aeq::sim
