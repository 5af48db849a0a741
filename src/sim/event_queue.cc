#include "sim/event_queue.h"

#include <algorithm>

namespace aeq::sim {

void EventQueue::sift_up(std::size_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void EventQueue::push(EventKey* keys, std::uint32_t slot) {
  heap_.push_back(Entry{keys[slot].t, keys[slot].tie, slot});
  sift_up(heap_.size() - 1);
}

std::uint32_t EventQueue::pop_at_most(EventKey* /*keys*/, Time limit) {
  if (heap_.empty() || heap_.front().t > limit) return kNoSlot;
  const std::uint32_t slot = heap_.front().slot;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return slot;
}

std::uint32_t EventQueue::peek(EventKey* /*keys*/) {
  return heap_.empty() ? kNoSlot : heap_.front().slot;
}

}  // namespace aeq::sim
