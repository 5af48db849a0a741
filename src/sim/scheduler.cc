#include "sim/scheduler.h"

#include <utility>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"

namespace aeq::sim {

const char* backend_name(SchedulerBackend backend) {
  switch (backend) {
    case SchedulerBackend::kHeap:
      return "heap";
    case SchedulerBackend::kCalendar:
      return "calendar";
  }
  return "unknown";
}

std::unique_ptr<EventScheduler> make_scheduler(SchedulerBackend backend) {
  if (backend == SchedulerBackend::kCalendar) {
    return std::make_unique<CalendarQueue>();
  }
  return std::make_unique<EventQueue>();
}

EventStore::EventStore(std::unique_ptr<EventScheduler> order)
    : order_(std::move(order)) {
  AEQ_ASSERT(order_ != nullptr);
}

bool EventStore::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  if (slot >= keys_.size()) return false;
  EventKey& key = keys_[slot];
  // A fired, firing or reused slot has moved on to a later generation, and
  // a cancelled one carries kCancelled: either way the stamp differs.
  if (key.stamp != static_cast<std::uint32_t>(id.value >> 32)) return false;
  key.stamp |= EventKey::kCancelled;
  AEQ_ASSERT(live_ > 0);
  --live_;
  if (slot == head_) head_known_ = false;
  return true;
}

std::uint32_t EventStore::find_head() {
  // Tombstones go even when no live event is left: a head found later must
  // be the backend's minimum, or pop_head would pop a tombstone below it.
  for (;;) {
    const std::uint32_t slot = order_->peek(keys_.data());
    if (slot == kNoSlot) return kNoSlot;
    const EventKey& key = keys_[slot];
    if ((key.stamp & EventKey::kCancelled) == 0) return slot;
    // A tombstone is the minimum: pop exactly it.
    const std::uint32_t popped = order_->pop_at_most(keys_.data(), key.t);
    AEQ_DCHECK(popped == slot);
    discard(popped);
  }
}

void EventStore::reserve(std::size_t n) {
  if (n == 0) return;
  keys_.reserve(n);
  free_.reserve(n);
  while (chunks_.size() << kChunkShift < n) {
    chunks_.push_back(std::make_unique<HandlerNode[]>(kChunkMask + 1));
  }
  order_->reserve(n);
}

std::uint32_t EventStore::grow() {
  const auto slot = static_cast<std::uint32_t>(keys_.size());
  AEQ_CHECK_LT(slot, kNoSlot);
  keys_.emplace_back();
  if ((slot >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<HandlerNode[]>(kChunkMask + 1));
  }
  return slot;
}

void EventStore::discard(std::uint32_t slot) {
  EventKey& key = keys_[slot];
  AEQ_DCHECK((key.stamp & EventKey::kCancelled) != 0);
  key.stamp = next_generation(key.stamp);
  handler_at(slot).reset();  // captures may own resources
  free_.push_back(slot);
}

}  // namespace aeq::sim
