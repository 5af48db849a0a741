#include "sim/winner_tree.h"

#include <utility>

#include "sim/assert.h"

namespace aeq::sim {

std::uint32_t WinnerTree::attach(TransitionSource* source) {
  AEQ_ASSERT(source != nullptr);
  sources_.push_back(source);
  return static_cast<std::uint32_t>(sources_.size() - 1);
}

void WinnerTree::detach(std::uint32_t leaf) {
  AEQ_ASSERT(leaf < sources_.size() && sources_[leaf] != nullptr);
  publish(leaf, kIdleKey);
  sources_[leaf] = nullptr;
}

void WinnerTree::layout() {
  const std::size_t width = std::bit_ceil(sources_.size());
  std::vector<Entry> nodes(2 * width);
  for (std::size_t leaf = 0; leaf < width_; ++leaf) {
    nodes[width + leaf] = nodes_[width_ + leaf];
  }
  for (std::size_t node = width - 1; node >= 1; --node) {
    const Entry& left = nodes[2 * node];
    const Entry& right = nodes[2 * node + 1];
    const bool keep = left.t_bits < right.t_bits ||
                      (left.t_bits == right.t_bits && left.tie < right.tie);
    nodes[node] = keep ? left : right;
  }
  nodes_ = std::move(nodes);
  width_ = width;
}

}  // namespace aeq::sim
