// Heap scheduler backend.
//
// A hand-rolled 4-ary implicit heap over 24-byte (time, tie key, slot)
// entries: a quarter of the depth of a binary heap, with each node's
// children adjacent in memory, which roughly halves the pop-path cache
// misses that dominate the event loop. Entries copy their slot's key when
// pushed, so sift operations move three words and never read the store's
// key array; handlers stay put in the EventStore.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class EventQueue final : public EventScheduler {
 public:
  void push(EventKey* keys, std::uint32_t slot) override;
  std::uint32_t pop_at_most(EventKey* keys, Time limit) override;
  std::uint32_t peek(EventKey* keys) override;
  void reserve(std::size_t n) override { heap_.reserve(n); }

 private:
  struct Entry {
    Time t;
    std::uint64_t tie;
    std::uint32_t slot;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.tie < b.tie;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
};

}  // namespace aeq::sim
