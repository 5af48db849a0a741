// FIFOs threaded through a shared pool of fixed 4 KiB blocks: the packet
// storage of every queue and link in a topology shard.
//
// A BlockFifo holds only the blocks its current contents span: it takes a
// block from its pool when its tail block fills and gives its head block
// back when that empties (the last pop included), so a block one queue
// frees is reused by any other queue on the same pool. Queues peak at
// different times, and a pool's storage follows what its FIFOs hold at
// once, not the sum of each FIFO's peak.
//
// The pool keeps every block it ever allocated until it is destroyed: after
// warmup, or after reserve(), take() never touches the heap. Nothing here is
// synchronized; a pool and its FIFOs belong to one thread at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/assert.h"

namespace aeq::util {

// Cache-line aligned: every take and give writes the pool, and in a sharded
// run each shard's pool is written by a different thread.
class alignas(64) BlockPool {
 public:
  static constexpr std::size_t kBlockBytes = 4096;
  // The largest element a BlockFifo may store (a link's 80-byte in-flight
  // entry: a packet plus its delivery key). It sets the element count
  // reserve() provisions for.
  static constexpr std::size_t kMaxElementBytes = 80;

  // A block: the link that threads it into a FIFO or the free list, then
  // raw element slots.
  struct Block {
    Block* next;
    std::byte slots[kBlockBytes - sizeof(Block*)];
  };
  static_assert(sizeof(Block) == kBlockBytes);

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // A block off the free list, allocating one only when the list is empty.
  Block* take() {
    if (free_ == nullptr) grow(1);
    Block* block = free_;
    free_ = block->next;
    --free_count_;
    block->next = nullptr;
    return block;
  }

  void give(Block* block) {
    block->next = free_;
    free_ = block;
    ++free_count_;
  }

  // Stocks the free list so FIFOs on this pool can hold `elements` elements
  // of up to kMaxElementBytes each, in whole blocks, without allocating.
  void reserve(std::size_t elements) {
    constexpr std::size_t kPerBlock = sizeof(Block::slots) / kMaxElementBytes;
    const std::size_t blocks = (elements + kPerBlock - 1) / kPerBlock;
    if (blocks <= free_count_) return;
    blocks_.reserve(blocks_.size() + blocks - free_count_);
    grow(blocks - free_count_);
  }

  // Every block this pool allocated: the high-water of blocks held at once
  // unless reserve() stocked more.
  std::size_t blocks_owned() const { return blocks_.size(); }
  std::size_t blocks_free() const { return free_count_; }

 private:
  void grow(std::size_t blocks) {
    for (std::size_t i = 0; i < blocks; ++i) {
      blocks_.push_back(std::make_unique_for_overwrite<Block>());
      give(blocks_.back().get());
    }
  }

  Block* free_ = nullptr;
  std::size_t free_count_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;
};

// FIFO of trivially copyable elements in blocks of one BlockPool. The pool
// must outlive the FIFO: destruction gives the FIFO's blocks back.
template <typename T>
class BlockFifo {
  using Block = BlockPool::Block;
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "elements are copied into raw slots and never destroyed");
  static_assert(sizeof(T) <= BlockPool::kMaxElementBytes,
                "reserve() provisions for kMaxElementBytes per element");
  static_assert(alignof(T) <= alignof(Block));

 public:
  static constexpr std::uint32_t kSlotsPerBlock =
      sizeof(Block::slots) / sizeof(T);

  explicit BlockFifo(BlockPool& pool) : pool_(&pool) {}
  BlockFifo(BlockFifo&& other) noexcept
      : pool_(other.pool_),
        head_(other.head_),
        tail_(other.tail_),
        head_index_(other.head_index_),
        tail_index_(other.tail_index_),
        size_(other.size_) {
    other.head_ = other.tail_ = nullptr;
    other.head_index_ = 0;
    other.tail_index_ = kSlotsPerBlock;
    other.size_ = 0;
  }
  BlockFifo(const BlockFifo&) = delete;
  BlockFifo& operator=(const BlockFifo&) = delete;
  BlockFifo& operator=(BlockFifo&&) = delete;

  ~BlockFifo() {
    while (head_ != nullptr) {
      Block* next = head_->next;
      pool_->give(head_);
      head_ = next;
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const BlockPool& pool() const { return *pool_; }

  // Blocks held: exactly those the elements span.
  std::size_t blocks() const {
    return size_ == 0
               ? 0
               : (head_index_ + size_ + kSlotsPerBlock - 1) / kSlotsPerBlock;
  }

  void push_back(const T& value) {
    if (tail_index_ == kSlotsPerBlock) {  // tail block full, or no block
      Block* block = pool_->take();
      (tail_ == nullptr ? head_ : tail_->next) = block;
      tail_ = block;
      tail_index_ = 0;
    }
    ::new (slot(tail_, tail_index_++)) T(value);
    ++size_;
  }

  void pop_front() {
    AEQ_ASSERT(size_ > 0);
    --size_;
    if (++head_index_ < kSlotsPerBlock && size_ != 0) return;
    // The head block is spent: give it back.
    Block* spent = head_;
    head_ = spent->next;
    head_index_ = 0;
    pool_->give(spent);
    if (size_ == 0) {
      tail_ = nullptr;
      tail_index_ = kSlotsPerBlock;
    }
  }

  T& front() {
    AEQ_DCHECK(size_ > 0);
    return *slot(head_, head_index_);
  }
  const T& front() const {
    AEQ_DCHECK(size_ > 0);
    return *slot(head_, head_index_);
  }
  const T& back() const {
    AEQ_DCHECK(size_ > 0);
    return *slot(tail_, tail_index_ - 1);
  }

  // Visits the elements front to back.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const Block* block = head_;
    std::uint32_t index = head_index_;
    for (std::size_t left = size_; left > 0; --left) {
      if (index == kSlotsPerBlock) {
        block = block->next;
        index = 0;
      }
      fn(*slot(block, index++));
    }
  }

 private:
  static T* slot(Block* block, std::uint32_t index) {
    return std::launder(
        reinterpret_cast<T*>(block->slots + std::size_t{index} * sizeof(T)));
  }
  static const T* slot(const Block* block, std::uint32_t index) {
    return std::launder(reinterpret_cast<const T*>(
        block->slots + std::size_t{index} * sizeof(T)));
  }

  BlockPool* pool_;
  Block* head_ = nullptr;
  Block* tail_ = nullptr;
  std::uint32_t head_index_ = 0;              // next element to pop
  std::uint32_t tail_index_ = kSlotsPerBlock;  // next free slot of tail_
  std::size_t size_ = 0;
};

}  // namespace aeq::util
