#include "sim/calendar_queue.h"

#include <algorithm>
#include <limits>

namespace aeq::sim {

namespace {

// Mean links an insert may walk, over a window of one push per bucket,
// before the width is re-estimated. A width that fits its population walks
// about 2.
constexpr std::size_t kMaxMeanWalk = 4;

}  // namespace

CalendarQueue::CalendarQueue(Time initial_bucket_width,
                             std::size_t initial_buckets)
    : buckets_(initial_buckets, kNoSlot),
      width_(initial_bucket_width),
      inv_width_(1.0 / initial_bucket_width),
      mask_(initial_buckets - 1) {
  AEQ_ASSERT(initial_bucket_width > 0.0 && initial_buckets >= 2);
  AEQ_ASSERT_MSG((initial_buckets & mask_) == 0,
                 "bucket count must be a power of two");
}

void CalendarQueue::reserve(std::size_t n) {
  scratch_times_.reserve(n);
  // Bucket counts track the key count (maybe_resize keeps them within
  // [count/4, 2*count]), so reserving both layout vectors at the hint
  // makes later resizes allocation-free up to `n` keys.
  std::size_t max_buckets = buckets_.size();
  while (max_buckets < 2 * n && max_buckets < (1u << 20)) max_buckets *= 2;
  buckets_.reserve(max_buckets);
  scratch_buckets_.reserve(max_buckets);
}

void CalendarQueue::push(EventKey* keys, std::uint32_t slot) {
  const Time t = keys[slot].t;
  // A key below the cursor's window (scheduled before the last popped time,
  // or after a peek popped tombstones past the clock) pulls the cursor and
  // the resize anchor back to it.
  if (t < floor_time_) floor_time_ = t;
  const std::uint64_t window = slot_of(t);
  if (window < slot_) {
    slot_ = window;
    cursor_ = static_cast<std::size_t>(window & mask_);
  }
  walked_ += insert(keys, slot);
  ++pushes_;
  ++count_;
  maybe_resize(keys);
}

std::size_t CalendarQueue::insert(EventKey* keys, std::uint32_t slot) {
  EventKey& key = keys[slot];
  // Keep chains sorted by (t, tie): they are short by design, so the linear
  // scan stays cheap and find_earliest can inspect heads only.
  std::uint32_t* link = &buckets_[bucket_of(key.t)];
  std::size_t walked = 0;
  while (*link != kNoSlot) {
    const EventKey& cur = keys[*link];
    if (cur.t > key.t || (cur.t == key.t && cur.tie > key.tie)) break;
    link = &keys[*link].next;
    ++walked;
  }
  key.next = *link;
  *link = slot;
  return walked;
}

std::size_t CalendarQueue::find_earliest(const EventKey* keys) {
  AEQ_DCHECK(count_ > 0);
  // Scan buckets from the cursor; a head belongs to the current rotation
  // when its window (the same computation that placed it in its bucket,
  // see slot_of) has been reached by the cursor's window.
  for (std::size_t scanned = 0; scanned <= mask_ + 1; ++scanned) {
    const std::uint32_t head = buckets_[cursor_];
    if (head != kNoSlot && slot_of(keys[head].t) <= slot_) {
      AEQ_DCHECK(slot_of(keys[head].t) == slot_);
      return cursor_;
    }
    cursor_ = (cursor_ + 1) & mask_;
    ++slot_;
  }
  // A full rotation found nothing in-window: events are sparse. Jump the
  // cursor to the earliest head anywhere (direct search); chains are
  // sorted, so it is the minimum key, at the head of its own bucket.
  Time best = std::numeric_limits<Time>::infinity();
  for (const std::uint32_t head : buckets_) {
    if (head != kNoSlot) best = std::min(best, keys[head].t);
  }
  slot_ = slot_of(best);
  cursor_ = static_cast<std::size_t>(slot_ & mask_);
  return cursor_;
}

std::uint32_t CalendarQueue::pop_at_most(EventKey* keys, Time limit) {
  if (count_ == 0) return kNoSlot;
  // The cursor may stay on a key past the limit: that key is the minimum,
  // so no key lies below the cursor's window.
  std::uint32_t& head = buckets_[find_earliest(keys)];
  const std::uint32_t slot = head;
  const Time t = keys[slot].t;
  if (t > limit) return kNoSlot;
  head = keys[slot].next;
  --count_;
  floor_time_ = t;
  maybe_resize(keys);
  return slot;
}

std::uint32_t CalendarQueue::peek(EventKey* keys) {
  if (count_ == 0) return kNoSlot;
  return buckets_[find_earliest(keys)];
}

void CalendarQueue::maybe_resize(EventKey* keys) {
  const std::size_t n = buckets_.size();
  if (count_ > 2 * n && n < (1u << 20)) {
    resize(keys, n * 2);
  } else if (count_ < n / 4 && n > 256) {
    resize(keys, n / 2);
  } else if (pushes_ >= n) {
    // One check per n pushes bounds the re-layout at O(1) per push even
    // when a fresh width cannot shorten the walks (e.g. equal times).
    if (walked_ > kMaxMeanWalk * pushes_) {
      resize(keys, n);
    } else {
      pushes_ = walked_ = 0;
    }
  }
}

// Brown's width rule: sample the earliest pending events and size a bucket
// at a few average inter-event gaps, so the cluster the cursor is about to
// drain spreads across many buckets (short sorted-insert scans) instead of
// piling into one. Falls back to the current width when the sample is too
// small or degenerate (e.g. all events at the same instant).
Time CalendarQueue::estimate_width(const EventKey* keys) {
  std::vector<Time>& times = scratch_times_;
  times.clear();
  times.reserve(count_);
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t i = head; i != kNoSlot; i = keys[i].next) {
      times.push_back(keys[i].t);
    }
  }
  const std::size_t k = std::min<std::size_t>(times.size(), 64);
  if (k < 8) return width_;
  std::nth_element(times.begin(), times.begin() + (k - 1), times.end());
  std::sort(times.begin(), times.begin() + k);
  const Time span = times[k - 1] - times[0];
  if (span <= 0.0) return width_;
  return std::max(3.0 * span / static_cast<Time>(k - 1), 1e-12);
}

void CalendarQueue::resize(EventKey* keys, std::size_t new_buckets) {
  // Estimate against the intact old layout, then swap it into the scratch
  // vector: both directions reuse the scratch's capacity, so recurring
  // grow/shrink cycles cost no allocator traffic.
  width_ = estimate_width(keys);
  inv_width_ = 1.0 / width_;
  pushes_ = walked_ = 0;
  scratch_buckets_.assign(new_buckets, kNoSlot);
  buckets_.swap(scratch_buckets_);
  mask_ = new_buckets - 1;
  // Re-anchor at the floor: every key is at or after it, so its window
  // (under the new width) is a valid scan start.
  slot_ = slot_of(floor_time_);
  cursor_ = static_cast<std::size_t>(slot_ & mask_);
  for (const std::uint32_t head : scratch_buckets_) {
    std::uint32_t i = head;
    while (i != kNoSlot) {
      const std::uint32_t next = keys[i].next;
      insert(keys, i);
      i = next;
    }
  }
}

}  // namespace aeq::sim
