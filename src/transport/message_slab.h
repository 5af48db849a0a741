// The pending messages of every flow of one host, in one slab.
//
// A host keeps one Flow per (destination, QoS), and at production scale most
// of them hold no message at any instant: the 576-host overload opens 121k
// flows with about 13k messages pending between them. A queue per flow sized
// for its own bursts pays for every flow's peak; one slab per host is sized
// by the host's peak instead. Each flow threads its FIFO through the slab by
// index, and a completed message's slot goes on the free list for the next
// message of any flow of the host, so once the slab has reached its
// high-water mark it never allocates again (tests/alloc_test.cc).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/assert.h"
#include "sim/units.h"
#include "transport/message.h"

namespace aeq::transport {

struct PendingMessage {
  std::uint64_t end_offset = 0;  // flow stream offset one past the last byte
  std::uint64_t bytes = 0;
  std::uint64_t rpc_id = 0;
  sim::Time issued = 0.0;
  CompletionHandler on_complete;
};

// One cache line per queued message: the 16-byte CompletionHandler budget
// is what keeps it there.
static_assert(sizeof(PendingMessage) == 64,
              "pending-message slot outgrew its cache line");

class MessageSlab {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNil = std::numeric_limits<Index>::max();

  // One flow's FIFO, linked through the slab.
  struct Fifo {
    Index head = kNil;
    Index tail = kNil;
    std::uint32_t size = 0;
    bool empty() const { return size == 0; }
  };

  // Appends `message` to `fifo` and returns its slot.
  Index push_back(Fifo& fifo, PendingMessage&& message) {
    Index slot = free_;
    if (slot == kNil) {
      if (slots_.size() == slots_.capacity()) {
        const std::size_t capacity =
            slots_.empty() ? kMinCapacity : 2 * slots_.size();
        slots_.reserve(capacity);
        next_.reserve(capacity);
      }
      AEQ_CHECK_LT(slots_.size(), static_cast<std::size_t>(kNil));
      slot = static_cast<Index>(slots_.size());
      slots_.push_back(std::move(message));
      next_.push_back(kNil);
    } else {
      free_ = next_[slot];
      slots_[slot] = std::move(message);
      next_[slot] = kNil;
    }
    if (fifo.empty()) {
      fifo.head = slot;
    } else {
      next_[fifo.tail] = slot;
    }
    fifo.tail = slot;
    ++fifo.size;
    return slot;
  }

  // Unlinks the head of `fifo`, frees its slot and returns the message.
  PendingMessage pop_front(Fifo& fifo) {
    AEQ_ASSERT(!fifo.empty());
    const Index slot = fifo.head;
    PendingMessage message = std::move(slots_[slot]);
    fifo.head = next_[slot];
    if (--fifo.size == 0) fifo.tail = kNil;
    next_[slot] = free_;
    free_ = slot;
    return message;
  }

  PendingMessage& operator[](Index slot) { return slots_[slot]; }
  const PendingMessage& operator[](Index slot) const { return slots_[slot]; }

  // The slot after `slot` in its flow's FIFO (kNil after the tail).
  Index next(Index slot) const { return next_[slot]; }

 private:
  // The first growth reserves this many slots. A host's pending messages
  // can peak late: in the steady-state allocation test its hosts pass 16
  // only after warmup, and growing from 16 to 32 there would be a heap
  // allocation on the per-RPC path.
  static constexpr std::size_t kMinCapacity = 32;

  std::vector<PendingMessage> slots_;
  // Per slot: its successor in its flow's FIFO, or in the free list.
  std::vector<Index> next_;
  Index free_ = kNil;
};

}  // namespace aeq::transport
