// Transition sources, and the winner tree the simulator orders them in.
//
// A transition source keeps its own pending transitions instead of
// scheduling an event for each: net::Port keeps its tx-end, and the key of
// each delivery beside the packet on its link. Each transition still
// carries the key an event would: the same time expression, and a tie key
// drawn from the event store's insertion counter at the same point
// (Simulator::make_key). So dispatch order, event counts and every digest
// are exactly those of one event per transition. A source publishes only
// its earliest pending key, kIdleKey when it has none; an idle key never
// fires.
//
// The winner tree holds one leaf per source, and each inner node a copy of
// the earlier of its two children, so the root is the earliest published
// key of all. A publish rewrites one leaf and replays its path to the root:
// log2(leaves) compare-and-selects with no data-dependent branch. The
// layout is sized when a leaf first publishes past it, which is once after
// wiring, not once per attach.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class TransitionSource {
 public:
  // Runs the transition whose key this source published last; the
  // simulator has advanced now() to its time. The source publishes its
  // next earliest key before returning.
  virtual void fire() = 0;
  // Transitions pending (Simulator::pending_events counts them).
  virtual std::size_t pending() const = 0;

 protected:
  ~TransitionSource() = default;
};

class WinnerTree {
 public:
  // One node: a published key and the leaf that published it. The time is
  // kept as its IEEE-754 bits: for the non-negative times a source can
  // publish, and +inf, the bits order like the times, so a replay compares
  // and selects integers only.
  struct Entry {
    std::uint64_t t_bits = std::bit_cast<std::uint64_t>(kIdleKey.t);
    std::uint64_t tie = kIdleKey.tie;
    std::uint32_t leaf = 0;

    Time t() const { return std::bit_cast<Time>(t_bits); }
  };

  WinnerTree() : nodes_(2) {}

  // A new idle leaf for `source`.
  std::uint32_t attach(TransitionSource* source);
  // Idles `leaf` for good.
  void detach(std::uint32_t leaf);

  // Sets `leaf`'s key and replays its path to the root. Each level
  // compares (time bits, tie) as one 128-bit number and selects with masks,
  // so no branch depends on which key wins.
  void publish(std::uint32_t leaf, const OrderKey& key) {
    if (leaf >= width_) layout();
    std::size_t node = width_ + leaf;
    std::uint64_t t = std::bit_cast<std::uint64_t>(key.t);
    std::uint64_t tie = key.tie;
    std::uint32_t who = leaf;
    nodes_[node] = {t, tie, who};
    for (; node > 1; node >>= 1) {
      const Entry& other = nodes_[node ^ 1];
      const Wide mine = (Wide{t} << 64) | tie;
      const Wide theirs = (Wide{other.t_bits} << 64) | other.tie;
      // All ones when the sibling's key is the earlier one.
      const std::uint64_t take = 0 - std::uint64_t{theirs < mine};
      t ^= (t ^ other.t_bits) & take;
      tie ^= (tie ^ other.tie) & take;
      // The winning child's leaf, read at an index rather than masked in
      // (a masked load compiles to a branch).
      who = nodes_[node ^ (take & 1)].leaf;
      nodes_[node >> 1] = {t, tie, who};
    }
  }

  // The earliest published key (idle when every source is).
  const Entry& top() const { return nodes_[1]; }

  // Runs the transition `leaf` published.
  void fire(std::uint32_t leaf) { sources_[leaf]->fire(); }

  // Transitions pending across every attached source.
  std::size_t pending() const {
    std::size_t total = 0;
    for (const TransitionSource* source : sources_) {
      if (source != nullptr) total += source->pending();
    }
    return total;
  }

 private:
  __extension__ using Wide = unsigned __int128;

  // Re-lays the tree out at the smallest power-of-two width that holds
  // every attached leaf, keeping each leaf's key.
  void layout();

  std::vector<Entry> nodes_;  // [1] the root, [width_ + leaf] the leaves
  std::size_t width_ = 0;     // leaves the layout holds
  std::vector<TransitionSource*> sources_;  // by leaf; null once detached
};

}  // namespace aeq::sim
