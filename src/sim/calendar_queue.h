// Calendar queue (Brown 1988): an O(1)-amortized scheduler backend for
// workloads whose event horizon is short and dense — exactly a packet
// simulator's profile. Selectable behind Simulator alongside the heap
// EventQueue; both pop in identical (time, tie key) order.
//
// Buckets cover `bucket_width` of simulated time each and wrap around a
// ring of `num_buckets` (always a power of two); events further than one
// rotation ahead sit in their modulo bucket and are reached via a lazy
// sparse-jump scan. The structure resizes itself (doubling/halving
// buckets) when occupancy drifts far from one event per bucket, and each
// resize re-estimates the bucket width from the gaps between the earliest
// pending events (Brown's sampling rule) so a dense head cluster spreads
// across many buckets instead of piling into one. A population that stays
// between the doubling and halving marks but whose spacing drifts from the
// width shows up as long sorted-insert walks: when the inserts since the
// last resize walk more than kMaxMeanWalk links each on average, the queue
// re-lays itself out at the same bucket count and a fresh width.
//
// A bucket is just a head slot; keys chain through their `next` links in
// the store's dense key array, sorted by (t, tie). Insert, scan and resize
// read and relink 24-byte keys only — never a handler — and allocate
// nothing in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class CalendarQueue final : public EventScheduler {
 public:
  // `initial_buckets` must be a power of two >= 2.
  explicit CalendarQueue(Time initial_bucket_width = 1 * kUsec,
                         std::size_t initial_buckets = 256);

  void push(EventKey* keys, std::uint32_t slot) override;
  std::uint32_t pop_at_most(EventKey* keys, Time limit) override;
  std::uint32_t peek(EventKey* keys) override;
  void reserve(std::size_t n) override;

  std::size_t num_buckets() const { return buckets_.size(); }
  Time bucket_width() const { return width_; }

 private:
  // Slot index = which `width_`-wide window an event belongs to. Window
  // membership during the cursor scan and bucket placement both derive from
  // this one expression: using separate float arithmetic for the two (as a
  // textbook `current_ + width_` rolling window does) lets truncation in
  // t / width_ land an event one slot below the window that the rolling sum
  // says should contain it, and the scan then skips it as "future rotation"
  // on every pass — it only resurfaces, late and out of order, via the
  // sparse-jump fallback once the calendar drains.
  std::uint64_t slot_of(Time t) const {
    return static_cast<std::uint64_t>(t * inv_width_);
  }
  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(slot_of(t) & mask_);
  }
  // Chains keys[slot] into its bucket in (t, tie) order; returns the number
  // of links it walked past.
  std::size_t insert(EventKey* keys, std::uint32_t slot);
  void maybe_resize(EventKey* keys);
  void resize(EventKey* keys, std::size_t new_buckets);
  Time estimate_width(const EventKey* keys);
  // Advances the cursor to the bucket whose head is the minimum key and
  // returns that bucket. Precondition: count_ > 0.
  std::size_t find_earliest(const EventKey* keys);

  std::vector<std::uint32_t> buckets_;  // head slot, kNoSlot when empty
  // Scratch storage reused across resizes (bucket layout swap and the
  // width-estimation sample): capacity persists, so steady-state resizes
  // allocate only when the calendar outgrows every previous record.
  std::vector<std::uint32_t> scratch_buckets_;
  std::vector<Time> scratch_times_;
  Time width_;
  Time inv_width_;          // 1 / width_: slot_of multiplies
  std::uint64_t mask_;      // buckets_.size() - 1
  // The cursor: bucket cursor_ is scanned for keys of window slot_. No key
  // lies in a window below slot_ — a push below it moves the cursor back.
  std::uint64_t slot_ = 0;
  std::size_t cursor_ = 0;
  Time floor_time_ = 0.0;   // no key lies below it: resizes anchor here
  std::size_t count_ = 0;   // keys held, tombstones included
  // Pushes since the last resize, and the links their inserts walked.
  std::size_t pushes_ = 0;
  std::size_t walked_ = 0;
};

}  // namespace aeq::sim
