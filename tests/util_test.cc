// Unit and model-based tests for the src/util containers: the hot-path
// building blocks (BlockFifo over a BlockPool, FlatMap64, InlineFunction).
// These types back the event loop, so their edge cases (block boundaries,
// block reuse, backward-shift erase, capacity budget) get direct coverage
// here in addition to the allocation/bit-identity suites that exercise
// them indirectly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"
#include "util/block_fifo.h"
#include "util/flat_map.h"
#include "util/inline_function.h"

namespace aeq {
namespace {

// ---------------------------------------------------------------------------
// util::BlockFifo / util::BlockPool
// ---------------------------------------------------------------------------

using IntFifo = util::BlockFifo<int>;
constexpr int kSlots = static_cast<int>(IntFifo::kSlotsPerBlock);

TEST(BlockFifoTest, OrderHoldsAcrossBlockBoundaries) {
  util::BlockPool pool;
  IntFifo fifo(pool);
  // Interleave pushes and pops so the head and the tail each cross several
  // block boundaries, and so the head block is spent mid-run.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 7; ++round) {
    for (int i = 0; i < kSlots; ++i) fifo.push_back(next_in++);
    for (int i = 0; i < kSlots / 2 + 1; ++i) {
      ASSERT_EQ(fifo.front(), next_out++);
      fifo.pop_front();
    }
    ASSERT_EQ(fifo.back(), next_in - 1);
  }
  ASSERT_EQ(fifo.size(), static_cast<std::size_t>(next_in - next_out));
  std::vector<int> visited;
  fifo.for_each([&visited](int v) { visited.push_back(v); });
  ASSERT_EQ(visited.size(), fifo.size());
  for (std::size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], next_out + static_cast<int>(i));
  }
  // The FIFO holds exactly the blocks its elements span; everything else
  // the pool owns is free.
  EXPECT_EQ(pool.blocks_owned(), pool.blocks_free() + fifo.blocks());
  while (!fifo.empty()) {
    ASSERT_EQ(fifo.front(), next_out++);
    fifo.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(BlockFifoTest, LastPopReturnsItsBlock) {
  util::BlockPool pool;
  IntFifo fifo(pool);
  fifo.push_back(1);
  fifo.push_back(2);
  EXPECT_EQ(fifo.blocks(), 1u);
  EXPECT_EQ(pool.blocks_owned(), 1u);
  EXPECT_EQ(pool.blocks_free(), 0u);
  fifo.pop_front();
  EXPECT_EQ(pool.blocks_free(), 0u);  // one element still queued
  fifo.pop_front();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.blocks(), 0u);
  EXPECT_EQ(pool.blocks_free(), 1u);
  // Refilling an empty FIFO takes the block back; no new allocation.
  fifo.push_back(3);
  EXPECT_EQ(fifo.front(), 3);
  EXPECT_EQ(pool.blocks_owned(), 1u);
  EXPECT_EQ(pool.blocks_free(), 0u);
}

TEST(BlockFifoTest, FifosOnOnePoolReuseEachOthersBlocks) {
  util::BlockPool pool;
  IntFifo a(pool);
  IntFifo b(pool);
  const int n = 5 * kSlots;
  for (int i = 0; i < n; ++i) a.push_back(i);
  const std::size_t peak = pool.blocks_owned();
  EXPECT_EQ(peak, 5u);
  while (!a.empty()) a.pop_front();
  EXPECT_EQ(pool.blocks_free(), peak);
  // b grows to the same depth on the blocks a gave back.
  for (int i = 0; i < n; ++i) b.push_back(-i);
  EXPECT_EQ(pool.blocks_owned(), peak);
  EXPECT_EQ(pool.blocks_free(), 0u);
  {
    // A FIFO destroyed with elements queued gives its blocks back too.
    IntFifo c(pool);
    for (int i = 0; i < kSlots + 1; ++i) c.push_back(i);
    EXPECT_EQ(c.blocks(), 2u);
  }
  EXPECT_EQ(pool.blocks_free(), 2u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), -(n - 1));
}

TEST(BlockFifoTest, ReservedPoolDoesNotAllocate) {
  util::BlockPool pool;
  const std::size_t elements = 1000;
  pool.reserve(elements);
  const std::size_t stocked = pool.blocks_owned();
  EXPECT_EQ(pool.blocks_free(), stocked);
  // The reserve is sized for the largest element a FIFO may store, so it
  // covers `elements` of them in one FIFO...
  struct Largest {
    std::byte bytes[util::BlockPool::kMaxElementBytes];
  };
  {
    util::BlockFifo<Largest> fifo(pool);
    for (std::size_t i = 0; i < elements; ++i) fifo.push_back(Largest{});
    EXPECT_EQ(pool.blocks_owned(), stocked);
  }
  // ...and the same count of smaller elements split over several FIFOs.
  std::vector<IntFifo> fifos;
  fifos.reserve(4);
  for (int f = 0; f < 4; ++f) fifos.emplace_back(pool);
  for (std::size_t i = 0; i < elements; ++i) fifos[i % 4].push_back(1);
  EXPECT_EQ(pool.blocks_owned(), stocked);
  // A second reserve below what is free already stocks nothing.
  pool.reserve(elements / 2);
  EXPECT_EQ(pool.blocks_owned(), stocked);
}

// ---------------------------------------------------------------------------
// util::FlatMap64
// ---------------------------------------------------------------------------

TEST(FlatMapTest, InsertFindEraseBasics) {
  util::FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
  map[0] = 10;  // key 0 is a legal key (packed (dst=0,qos=0))
  map[7] = 70;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 10);
  EXPECT_TRUE(map.contains(7));
  EXPECT_FALSE(map.contains(8));
  EXPECT_TRUE(map.erase(0));
  EXPECT_FALSE(map.erase(0));
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, PackedSequentialKeysSurviveChurn) {
  // Packed channel keys are sequential in the low bits — the adversarial
  // shape for the probe chains. Insert a dense block, erase every third
  // key (backward-shift must repair chains), and verify the rest.
  util::FlatMap64<std::uint64_t> map;
  constexpr std::uint64_t kKeys = 300;
  for (std::uint64_t k = 0; k < kKeys; ++k) map[k] = k * 11;
  for (std::uint64_t k = 0; k < kKeys; k += 3) EXPECT_TRUE(map.erase(k));
  EXPECT_EQ(map.size(), kKeys - 100);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 == 0) {
      EXPECT_FALSE(map.contains(k)) << k;
    } else {
      ASSERT_NE(map.find(k), nullptr) << k;
      EXPECT_EQ(*map.find(k), k * 11) << k;
    }
  }
}

TEST(FlatMapTest, RehashPreservesEntries) {
  util::FlatMap64<int> map;
  // Min capacity is 16 with a 7/8 load factor: 1000 inserts force
  // several rehashes.
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map[k * 0x10001ULL] = static_cast<int>(k);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.find(k * 0x10001ULL), nullptr) << k;
    EXPECT_EQ(*map.find(k * 0x10001ULL), static_cast<int>(k));
  }
}

TEST(FlatMapTest, ReservePreventsGrowthMidUse) {
  util::FlatMap64<int> map;
  map.reserve(64);
  for (std::uint64_t k = 0; k < 64; ++k) map[k] = 1;
  EXPECT_EQ(map.size(), 64u);
  std::uint64_t visited = 0;
  std::uint64_t key_sum = 0;
  // Unit test of for_each itself; commutative count/sum assertions.
  // detlint:allow(unordered-iter)
  map.for_each([&](std::uint64_t key, int value) {
    ++visited;
    key_sum += key;
    EXPECT_EQ(value, 1);
  });
  EXPECT_EQ(visited, 64u);
  EXPECT_EQ(key_sum, 63u * 64u / 2);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomOps) {
  // Model-based check: random insert/erase/lookup churn against the
  // reference map, heavy on erases to stress backward-shift deletion.
  util::FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  sim::Rng rng(2024);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.index(512);  // small space => collisions
    const double action = rng.uniform();
    if (action < 0.5) {
      const std::uint64_t value = rng.index(1u << 30);
      map[key] = value;
      reference[key] = value;
    } else if (action < 0.8) {
      EXPECT_EQ(map.erase(key), reference.erase(key) > 0) << "op " << op;
    } else {
      const auto it = reference.find(key);
      const auto* found = map.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr) << "op " << op;
      } else {
        ASSERT_NE(found, nullptr) << "op " << op;
        EXPECT_EQ(*found, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  // Full sweep at the end: for_each sees exactly the reference contents.
  std::size_t visited = 0;
  // Model-based containment check; visit order is irrelevant.
  // detlint:allow(unordered-iter)
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatMapTest, ClearKeepsCapacityUsable) {
  util::FlatMap64<int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = 1;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(5));
  map[5] = 55;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(5), 55);
}

// ---------------------------------------------------------------------------
// util::InlineFunction
// ---------------------------------------------------------------------------

TEST(InlineFunctionTest, InvokesAndReportsEngagement) {
  util::InlineFunction<int(int), 48> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_TRUE(fn == nullptr);
  int base = 40;
  fn = [&base](int x) { return base + x; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(2), 42);
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, MovePreservesNonTrivialCapture) {
  // unique_ptr capture: non-trivially-relocatable, so the move must go
  // through the manage thunk (move-construct + destroy source).
  auto owned = std::make_unique<int>(99);
  util::InlineFunction<int(), 48> fn =
      [p = std::move(owned)]() { return *p; };
  util::InlineFunction<int(), 48> moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(moved(), 99);

  util::InlineFunction<int(), 48> assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(static_cast<bool>(assigned));
  EXPECT_EQ(assigned(), 99);
}

TEST(InlineFunctionTest, MoveAssignmentReleasesPreviousCallable) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  util::InlineFunction<int(), 48> fn = [p = first]() { return *p; };
  EXPECT_EQ(first.use_count(), 2);
  fn = util::InlineFunction<int(), 48>([p = second]() { return *p; });
  EXPECT_EQ(first.use_count(), 1);  // old capture destroyed
  EXPECT_EQ(second.use_count(), 2);
  EXPECT_EQ(fn(), 2);
  fn.reset();
  EXPECT_EQ(second.use_count(), 1);
}

TEST(InlineFunctionTest, TriviallyRelocatableCaptureMovesByMemcpy) {
  // Pointer + scalar captures (the event-loop common case) stay callable
  // across a chain of moves.
  int target = 0;
  util::InlineFunction<void(), 48> fn = [&target] { ++target; };
  util::InlineFunction<void(), 48> a(std::move(fn));
  util::InlineFunction<void(), 48> b(std::move(a));
  b();
  EXPECT_EQ(target, 1);
}

TEST(InlineFunctionTest, CaptureAtExactBudgetFits) {
  // The event scheduler's contract is a 48-byte budget; a capture of
  // exactly 48 bytes must compile and run (49 would be a compile error,
  // which is the documented failure mode — not testable at runtime).
  struct Exactly48 {
    std::uint64_t words[6];
  };
  static_assert(sizeof(Exactly48) == 48);
  Exactly48 payload{};
  payload.words[5] = 77;
  util::InlineFunction<std::uint64_t(), 48> fn =
      [payload]() { return payload.words[5]; };
  static_assert(sizeof(payload) <= 48);
  EXPECT_EQ(fn(), 77u);
}

}  // namespace
}  // namespace aeq
