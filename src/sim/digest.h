// Schedule digests: a compact fingerprint of the dispatched event stream
// (DESIGN.md §12), used to prove the determinism contract end to end —
// same seed ⇒ same digest on either scheduler backend, at any shard count,
// and under any address-space layout.
//
// Per dispatched event the digest hashes exactly the schedule-defining
// coordinates: the event time's 8 IEEE-754 bytes and the 2-byte tie rank.
// Deliberately excluded:
//   * the insertion-sequence counter — it is per-scheduler, so a K-shard
//     run numbers events differently from a serial run even though it
//     dispatches the identical schedule;
//   * anything address-shaped (handler pointers, slot indices) — the whole
//     point is ASLR-independence.
//
// Two accumulators are kept:
//   * `ordered`: an FNV-1a fold of the per-event hashes in dispatch order —
//     the strongest statement for a fixed shard count (any reordering of
//     equal-time events changes it);
//   * `sum`/`count`: a commutative (wrapping-sum) combine of the same
//     per-event hashes. Shards dispatch concurrently, so there is no global
//     dispatch order to fold; the commutative form is invariant under the
//     interleaving and therefore comparable across shard counts.
// canonical() — what tests and the --schedule-digest flag print — is
// derived from the commutative pair, so one number is comparable across
// backends, shard counts, and processes.
//
// Runs pay for the accumulation only when they opt in via
// ExperimentConfig::schedule_digest; otherwise Simulator::dispatch spends
// one predictable branch per event on it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "sim/units.h"

namespace aeq::sim {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ull;

inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * kFnv64Prime;
  }
  return h;
}

struct ScheduleDigest {
  std::uint64_t ordered = kFnv64Offset;
  std::uint64_t sum = 0;  // wrapping sum of per-event hashes
  std::uint64_t count = 0;

  void record(Time time, std::uint16_t rank) {
    std::uint64_t time_bits = 0;
    static_assert(sizeof(time_bits) == sizeof(Time),
                  "schedule digest assumes 64-bit event times");
    std::memcpy(&time_bits, &time, sizeof(time_bits));
    std::uint64_t h = kFnv64Offset;
    h = fnv1a64(h, &time_bits, sizeof(time_bits));
    h = fnv1a64(h, &rank, sizeof(rank));
    ordered = (ordered ^ h) * kFnv64Prime;
    sum += h;  // unsigned wrap is the commutative combine
    ++count;
  }

  // Folds another shard's digest in. Only the commutative pair survives
  // meaningfully; `ordered` is XOR-combined so the merge itself stays
  // shard-order-independent, but cross-shard-count comparisons must use
  // canonical().
  void merge(const ScheduleDigest& other) {
    ordered ^= other.ordered;
    sum += other.sum;
    count += other.count;
  }

  // The printable fingerprint: derived from the interleaving-invariant
  // accumulators, so it is the number that must match across backends,
  // shard counts, and ASLR layouts.
  std::uint64_t canonical() const {
    std::uint64_t h = kFnv64Offset;
    h = fnv1a64(h, &sum, sizeof(sum));
    h = fnv1a64(h, &count, sizeof(count));
    return h;
  }

  // canonical() as 16 lowercase hex digits (the --schedule-digest format).
  std::string hex() const {
    static const char* const kDigits = "0123456789abcdef";
    const std::uint64_t value = canonical();
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(value >> (4 * i)) & 0xf];
    }
    return out;
  }
};

}  // namespace aeq::sim
