// The event store and the scheduler-backend concept behind the simulation
// executive.
//
// Two backends order pending events: the 4-ary-heap EventQueue (robust
// default for arbitrary horizons) and the O(1)-amortized CalendarQueue
// (Brown 1988, faster for the dense short-horizon profile of a packet
// simulator). Both pop events in strictly increasing (time, tie-rank,
// insertion-sequence) order, so a run is bit-identical on either backend
// for a fixed seed; the scheduler-equivalence property test enforces this.
//
// The tie rank exists for the sharded (PDES) executive. Equal-timestamp
// events are common (zero-delay chains, phase-locked ack-clocking), and
// breaking those ties purely by insertion order would tie the schedule to
// *when* each event was inserted — which differs between the serial
// executive (a link's delivery is keyed at tx-start) and the sharded one
// (the same delivery is an arrival event inserted at tx-end or at a
// lookahead barrier). Events whose insertion point is mode-dependent therefore carry
// an explicit rank derived from simulation identity (the packet's source
// host; see net::Port), which both executives compute identically; rank
// beats insertion order, so the dispatch schedule — and every metric — is
// the same serially and sharded. Events scheduled without a rank get
// kTieRankDefault (sorts after every ranked event at the same timestamp)
// and keep pure insertion order among themselves.
//
// Not every pending transition is an event: net::Port keeps its tx-end
// and link deliveries itself and the simulator orders them beside this
// store (sim/winner_tree.h). Each such transition still draws its tie key
// from this store's insertion counter (draw_tie), so it sorts exactly where
// an event scheduled at the same point would.
//
// Everything but the ordering lives once, in the EventStore both backends
// share. A pending event owns one slot: its 24-byte EventKey (time, packed
// tie key, the calendar's chain link, generation stamp) in one dense key
// array, and its handler in a 64-byte node of a chunked arena that never
// moves. A backend orders slots by their keys and never touches a handler.
// Handlers are built in their node (InlineFunction::emplace) and run there.
//
// Cancellation is generation-stamped rather than hash-based: an EventId
// packs a slot index and the slot's generation, so the store validates ids
// in O(1). A cancelled event stays in its backend as a tombstone; the store
// destroys and frees it when the backend hands it back. Storage is
// allocation-free in steady state: freed slots go on a free list, so once
// the live-event high-water mark stops rising, schedule/dispatch/cancel
// recycle slots without touching the allocator.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/assert.h"
#include "sim/units.h"
#include "util/inline_function.h"

namespace aeq::sim {

// Inline capture budget for event callbacks. 48 bytes covers every capture
// in the tree (the largest — trace replay's [stack, record] — is exactly
// 48); oversized captures fail to compile rather than silently allocating.
// With the two function pointers this makes a handler exactly one 64-byte
// arena node, so prefer shrinking captures to raising it.
inline constexpr std::size_t kHandlerInlineBytes = 48;

using EventHandler = util::InlineFunction<void(), kHandlerInlineBytes>;

// Tie rank for events scheduled without an explicit one: sorts after every
// ranked event at the same timestamp. Ranked events must use values
// strictly below this.
inline constexpr std::uint16_t kTieRankDefault = 0xffff;

// The (rank, insertion-counter) pair packed into one comparable word: rank
// in the top 16 bits, counter in the low 48 (2^48 schedules before
// wrap — checked). Backends order entries by (time, this key), so the
// comparator is exactly the old (time, seq) two-word compare.
inline std::uint64_t pack_tie_key(std::uint16_t rank,
                                  std::uint64_t counter) {
  AEQ_DCHECK(counter < (1ull << 48));
  return (static_cast<std::uint64_t>(rank) << 48) | counter;
}

// The rank half of a packed tie key.
inline std::uint16_t tie_rank_of(std::uint64_t tie_key) {
  return static_cast<std::uint16_t>(tie_key >> 48);
}

// A place in the dispatch order: a time and a packed tie key. What a
// transition kept outside the event store carries (sim/winner_tree.h).
struct OrderKey {
  Time t;
  std::uint64_t tie;
};

// The key of a source with nothing pending: after every real key.
inline constexpr OrderKey kIdleKey{std::numeric_limits<Time>::infinity(),
                                   ~std::uint64_t{0}};

// Dispatch order over anything keyed by (t, tie): EventKey, OrderKey.
template <typename A, typename B>
bool earlier(const A& a, const B& b) {
  return a.t < b.t || (a.t == b.t && a.tie < b.tie);
}

// Opaque handle to a scheduled event; value 0 means "no event". The high
// 32 bits are the slot's generation (>= 1), the low 32 the slot index.
struct EventId {
  std::uint64_t value = 0;
  explicit operator bool() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

// "No slot": an empty bucket, the end of a chain, or nothing to pop.
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

// A pending event's ordering key, one per store slot.
struct EventKey {
  // Top bit of `stamp`: the event was cancelled and is a tombstone.
  static constexpr std::uint32_t kCancelled = 0x80000000u;

  Time t = 0.0;
  std::uint64_t tie = 0;        // pack_tie_key(rank, insertion counter)
  std::uint32_t next = kNoSlot;  // calendar bucket chain link
  // The slot's generation in the low 31 bits (never 0, so ids are never
  // 0), kCancelled on top. An id is pending exactly while its generation
  // equals the whole stamp.
  std::uint32_t stamp = 1;
};
static_assert(sizeof(EventKey) == 24, "keys are three words");

// A scheduler backend: an ordering over the store's keys, minimum first by
// (t, tie). `keys` is the store's key array, indexed by slot; a backend
// reads keys (the calendar also writes `next`) and never sees a handler.
// Tombstones are ordered like any key — the store skips them.
class EventScheduler {
 public:
  virtual ~EventScheduler() = default;

  // Orders the key at keys[slot], whatever its time: below the last popped
  // key's too (Simulator forbids scheduling into the past, but a peek may
  // have popped tombstones past its clock).
  virtual void push(EventKey* keys, std::uint32_t slot) = 0;

  // Removes and returns the slot of the minimum key if its time is
  // <= `limit`; kNoSlot (nothing removed) otherwise or when empty.
  virtual std::uint32_t pop_at_most(EventKey* keys, Time limit) = 0;

  // The slot of the minimum key, not removed; kNoSlot when empty.
  virtual std::uint32_t peek(EventKey* keys) = 0;

  // Pre-sizes internal storage (heap entries, calendar buckets) for `n`
  // keys. A hint: the structure still grows past it on demand.
  virtual void reserve(std::size_t n) = 0;
};

enum class SchedulerBackend {
  kHeap,      // 4-ary heap EventQueue
  kCalendar,  // CalendarQueue (Brown 1988)
};

const char* backend_name(SchedulerBackend backend);

std::unique_ptr<EventScheduler> make_scheduler(SchedulerBackend backend);

// The one event store: slots, handlers, ids, lazy cancellation and the
// insertion counter, over whichever backend orders the keys.
class EventStore {
 public:
  explicit EventStore(std::unique_ptr<EventScheduler> order);

  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  // Builds `handler` in a free slot and orders it at (t, rank, insertion
  // order). Any time is accepted; Simulator::schedule_at is what forbids
  // the past, and checks the time and the handler.
  template <typename F>
  EventId schedule(Time t, F&& handler, std::uint16_t rank) {
    const std::uint32_t slot = free_.empty() ? grow() : take_free();
    handler_at(slot).emplace(std::forward<F>(handler));
    EventKey& key = keys_[slot];
    key.t = t;
    key.tie = draw_tie(rank);
    const EventId id{(static_cast<std::uint64_t>(key.stamp) << 32) | slot};
    ++live_;
    order_->push(keys_.data(), slot);
    // A known head stays known: the new event either is below it or not.
    if (head_known_ && (head_ == kNoSlot || earlier(key, keys_[head_]))) {
      head_ = slot;
    }
    return id;
  }

  // The tie key the next event scheduled with `rank` would get, consumed:
  // pack_tie_key(rank, next insertion-counter value).
  std::uint64_t draw_tie(std::uint16_t rank) {
    return pack_tie_key(rank, next_seq_++);
  }

  // Pending -> cancelled. False when the id already fired (or is firing),
  // was already cancelled, or is invalid.
  bool cancel(EventId id);

  // The slot of the earliest pending event, kNoSlot when none. Cached
  // between calls: a schedule below it or a cancel of it moves it, and
  // nothing else can, so only the call after a pop asks the backend.
  // Tombstones at the backend's head are destroyed and freed.
  std::uint32_t head() {
    if (!head_known_) {
      head_ = find_head();
      head_known_ = true;
    }
    return head_;
  }

  // Removes the head() event and retires its id (cancel() of it now returns
  // false); returns its slot. Precondition: head() != kNoSlot.
  std::uint32_t pop_head() {
    const std::uint32_t slot = head();
    AEQ_DCHECK(slot != kNoSlot);
    EventKey& key = keys_[slot];
    const std::uint32_t popped = order_->pop_at_most(keys_.data(), key.t);
    AEQ_DCHECK(popped == slot);
    (void)popped;
    key.stamp = next_generation(key.stamp);
    --live_;
    head_known_ = false;
    return slot;
  }

  // The key of a pending or popped slot (a popped one's is valid until
  // run()).
  const EventKey& key(std::uint32_t slot) const { return keys_[slot]; }

  // Runs a popped event's handler where it lies, then destroys it and frees
  // the slot. The node never moves: arena chunks stay put while the handler
  // schedules more events.
  void run(std::uint32_t slot) {
    EventHandler& handler = handler_at(slot);
    handler();
    handler.reset();
    free_.push_back(slot);
  }

  // Time of the earliest pending event, +infinity when none.
  Time next_time() {
    const std::uint32_t slot = head();
    return slot == kNoSlot ? kIdleKey.t : keys_[slot].t;
  }

  // Pending (scheduled, not fired, not cancelled) events.
  std::size_t size() const { return live_; }

  // Pre-sizes slots, handlers and the backend for `n` concurrent pending
  // events, so a run whose live-event count stays below `n` performs no
  // steady-state allocations. A hint: storage still grows past it.
  void reserve(std::size_t n);

 private:
  // One arena node: exactly a handler, on its own cache line.
  struct alignas(64) HandlerNode {
    EventHandler handler;
  };
  static_assert(sizeof(HandlerNode) == 64, "a handler is one cache line");
  static constexpr std::uint32_t kChunkShift = 9;  // 512 nodes per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  static std::uint32_t next_generation(std::uint32_t stamp) {
    const std::uint32_t generation = (stamp + 1) & ~EventKey::kCancelled;
    return generation == 0 ? 1 : generation;  // keep ids nonzero
  }

  EventHandler& handler_at(std::uint32_t slot) {
    AEQ_DCHECK((slot >> kChunkShift) < chunks_.size());
    return chunks_[slot >> kChunkShift][slot & kChunkMask].handler;
  }
  std::uint32_t take_free() {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // A fresh slot past the high-water mark: the only place storage grows.
  std::uint32_t grow();
  // Retires a tombstone's id and destroys and frees it.
  void discard(std::uint32_t slot);
  // The backend's minimum live slot, discarding tombstones above it.
  std::uint32_t find_head();

  std::vector<EventKey> keys_;
  std::vector<std::unique_ptr<HandlerNode[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::unique_ptr<EventScheduler> order_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  // head(): the earliest live slot (kNoSlot: none) while head_known_.
  std::uint32_t head_ = kNoSlot;
  bool head_known_ = true;
};

}  // namespace aeq::sim
