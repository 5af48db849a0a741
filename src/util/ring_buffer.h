// Growable power-of-two ring buffer: the repo's replacement for
// `std::deque` on packet/message hot paths.
//
// std::deque allocates and frees ~512-byte blocks as the queue breathes,
// which shows up as steady-state allocator traffic in every queue
// discipline and in Port's in-flight list. A
// ring only allocates when it grows past its high-water mark — after
// warmup it never touches the heap again — and keeps elements contiguous
// (mod wraparound) for the drain loops.
//
// Supports the deque surface the call sites actually use: push_back /
// pop_front / front / back / operator[] / size / empty / clear.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/assert.h"

namespace aeq::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void reserve(std::size_t n) {
    if (n > data_.size()) grow(round_up(n));
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == data_.size()) grow(data_.empty() ? kMinCapacity : data_.size() * 2);
    const std::size_t i = (head_ + size_) & (data_.size() - 1);
    data_[i] = T(std::forward<Args>(args)...);
    ++size_;
    return data_[i];
  }

  void pop_front() {
    AEQ_ASSERT(size_ > 0);
    data_[head_] = T{};  // release any resources held by the slot
    head_ = (head_ + 1) & (data_.size() - 1);
    --size_;
  }

  T& front() {
    AEQ_ASSERT(size_ > 0);
    return data_[head_];
  }
  const T& front() const {
    AEQ_ASSERT(size_ > 0);
    return data_[head_];
  }

  T& back() {
    AEQ_ASSERT(size_ > 0);
    return data_[(head_ + size_ - 1) & (data_.size() - 1)];
  }
  const T& back() const {
    AEQ_ASSERT(size_ > 0);
    return data_[(head_ + size_ - 1) & (data_.size() - 1)];
  }

  T& operator[](std::size_t i) {
    AEQ_DCHECK(i < size_);
    return data_[(head_ + i) & (data_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    AEQ_DCHECK(i < size_);
    return data_[(head_ + i) & (data_.size() - 1)];
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  static std::size_t round_up(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < n) cap <<= 1;
    return cap;
  }

  void grow(std::size_t new_capacity) {
    std::vector<T> next(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    data_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> data_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aeq::util
