// Execution profiler core: scoped RAII regions on per-thread fixed-memory
// stacks, folded into bounded log-histograms (DESIGN.md §14).
//
// The profiler answers "where do the 5.56M events/sec go?": every
// instrumented component (scheduler dispatch, each queue discipline,
// transport, admission policy, audit sweep, telemetry fan-out) opens a
// ProfRegion on entry, and the per-thread Collector attributes cycle cost
// per region — inclusive and self (inclusive minus instrumented children),
// plus a log2-bucketed duration histogram. Everything is fixed-size: a
// 32-frame region stack and one flat stats array per collector, so the
// hot path never allocates and the off path is a single thread_local load
// plus branch per region (the same nullable-pointer discipline as
// obs::Recorder). Timing is tree-sampled (every 64th dispatched event by
// default, deterministically chosen — see Collector) so the enabled path
// stays within a few percent of an unprofiled run.
//
// Observe-only contract: a collector only reads the cycle counter and
// writes its own memory — it never touches simulation state, schedules
// events, or emits output mid-run. Profiled runs are therefore
// byte-identical and schedule-digest-identical to unprofiled runs on both
// scheduler backends at any shard count (property-tested in
// tests/prof_test.cc and CI-diffed by the prof-smoke job).
//
// Wall-clock discipline: this header is the ONE place the library reads
// host clocks (tools/detlint.py bans them everywhere deterministic — the
// reads here are marked detlint:allow(wall-clock) and the module lives
// outside the linted directories by design). Cycle counts convert to
// seconds only at report time, via a calibration pair captured around the
// run (obs/prof/report.h).
#pragma once

#include <chrono>  // detlint:allow(wall-clock) — calibration only, observe-only
#include <cstddef>
#include <cstdint>

#include "sim/assert.h"

namespace aeq::obs::prof {

using Cycles = std::uint64_t;

// Raw timestamp-counter read: rdtsc on x86-64, the virtual counter on
// aarch64, steady_clock ticks elsewhere. Monotonic enough for aggregate
// attribution (modern invariant TSCs are core-synchronized); region exit
// clamps a backwards pair to zero rather than wrapping.
inline Cycles cycles_now() {
#if defined(__x86_64__)
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<Cycles>(hi) << 32) | lo;
#elif defined(__aarch64__)
  Cycles value = 0;
  asm volatile("mrs %0, cntvct_el0" : "=r"(value));
  return value;
#else
  return static_cast<Cycles>(
      // detlint:allow(wall-clock) — portable fallback, observe-only
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// A (cycle counter, wall clock) pair. Two of these bracketing a run give
// the cycles-per-second rate without any up-front spin calibration.
struct Calibration {
  Cycles cycles = 0;
  double wall_seconds = 0.0;
};

inline Calibration calibration_point() {
  Calibration point;
  point.cycles = cycles_now();
  point.wall_seconds =
      std::chrono::duration<double>(
          // detlint:allow(wall-clock) — calibration for the report only
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return point;
}

inline double cycles_per_second(const Calibration& begin,
                                const Calibration& end) {
  const double wall = end.wall_seconds - begin.wall_seconds;
  if (wall <= 0.0 || end.cycles <= begin.cycles) return 1e9;  // degenerate
  return static_cast<double>(end.cycles - begin.cycles) / wall;
}

// The instrumented components. One id per attribution bucket; the queue
// disciplines get one each so a WFQ-vs-pfabric cost comparison falls out
// of a single profile. Adding a region is: extend the enum (before
// kRegionCount), name it in region_name(), open a ProfRegion at the site.
enum class Region : std::uint8_t {
  kDispatch = 0,    // sim::Simulator::dispatch — root of every event
  kWorkload,        // workload::TrafficGenerator arrival handler
  kAdmission,       // rpc::AdmissionController::admit (whatever the policy)
  kTransportTx,     // HostStack / protocols::BaseTransport send_message
  kTransportRx,     // HostStack / protocols::BaseTransport on_packet
  kPortTx,          // net::Port::try_transmit (serialization bookkeeping)
  kSwitchRoute,     // net::Switch::receive (route + forward)
  kQueueFifo,       // per-discipline enqueue/dequeue
  kQueueWfq,
  kQueueSpq,
  kQueueDwrr,
  kQueuePfabric,
  kAudit,           // audit::Auditor::run_all sweep
  kTelemetry,       // obs::Recorder fan-out to sinks
  kRegionCount,
};

constexpr std::size_t kRegionCount =
    static_cast<std::size_t>(Region::kRegionCount);

inline const char* region_name(Region region) {
  switch (region) {
    case Region::kDispatch: return "engine/dispatch";
    case Region::kWorkload: return "workload/arrival";
    case Region::kAdmission: return "admission/admit";
    case Region::kTransportTx: return "transport/tx";
    case Region::kTransportRx: return "transport/rx";
    case Region::kPortTx: return "port/tx";
    case Region::kSwitchRoute: return "switch/route";
    case Region::kQueueFifo: return "queue/fifo";
    case Region::kQueueWfq: return "queue/wfq";
    case Region::kQueueSpq: return "queue/spq";
    case Region::kQueueDwrr: return "queue/dwrr";
    case Region::kQueuePfabric: return "queue/pfabric";
    case Region::kAudit: return "audit/sweep";
    case Region::kTelemetry: return "telemetry/emit";
    case Region::kRegionCount: break;
  }
  return "unknown";
}

// Maximum nesting depth of instrumented regions. The deepest real chain is
// dispatch > switch > queue (+ telemetry inside the port observer), so 32
// leaves an order of magnitude of headroom; overflowing it is a bug in the
// instrumentation, not load, and aborts.
constexpr std::size_t kMaxDepth = 32;

// Log2 duration histogram: bucket b counts durations in [2^b, 2^(b+1))
// cycles. 64 buckets cover any uint64 duration.
constexpr std::size_t kHistBuckets = 64;

inline std::size_t duration_bucket(Cycles cycles) {
  std::size_t bucket = 0;
  while (cycles > 1 && bucket + 1 < kHistBuckets) {
    cycles >>= 1;
    ++bucket;
  }
  return bucket;
}

struct RegionStats {
  std::uint64_t count = 0;
  Cycles total_cycles = 0;  // inclusive (children counted)
  Cycles self_cycles = 0;   // exclusive (instrumented children subtracted)
  std::uint64_t hist[kHistBuckets] = {};  // log2(inclusive cycles)
};

// Per-thread region stack + stats. One collector per executive thread: the
// serial run installs one on the main thread; the sharded run installs one
// per shard worker (sim::ShardedSimulator::set_profiling). Not
// thread-safe by design — a collector is owned by exactly one thread while
// installed, and read by the coordinator only with the workers parked (the
// executive's pool mutex orders the handover).
//
// Sampling: a timestamp read costs ~10-20ns on common hardware, and the
// simulator dispatches events in ~200ns — timing every region entry would
// be a double-digit tax (measured ~40%). The collector instead times every
// `sample_period`-th region *tree* — a burst of nested regions entered
// from tree-root level, which in practice is one dispatched event — in
// full, so parent/child self-time attribution stays exact inside a timed
// tree. Regions of the trees in between cost one thread_local read and a
// branch each (ProfRegion's kSkipping state — no collector call, no clock
// read). Trees are picked by a deterministic countdown, never a clock, so
// sampling cannot perturb the simulation. roots_entered / roots_sampled is
// the scale that converts sampled cycles into whole-run estimates at
// report time (obs/prof/report.cc); period 1 times everything and is what
// the unit tests use.
class Collector {
 public:
  static constexpr std::uint32_t kDefaultSamplePeriod = 64;

  explicit Collector(std::uint32_t sample_period = kDefaultSamplePeriod)
      : period_(sample_period == 0 ? 1 : sample_period) {}

  // The root-of-tree sampling decision: called by ProfRegion when a region
  // opens at tree-root level (thread state kIdle). True = time this tree
  // in full via enter/exit; false = skip it entirely (ProfRegion then
  // short-circuits every nested region off one thread_local read, so an
  // untimed tree costs no collector calls at all).
  bool sample_root() {
    ++roots_entered_;
    if (--countdown_ > 0) return false;
    countdown_ = period_;
    ++roots_sampled_;
    return true;
  }

  void enter(Region region) {
    AEQ_ASSERT_MSG(depth_ < kMaxDepth, "profiler region stack overflow");
    Frame& frame = stack_[depth_++];
    frame.region = region;
    frame.child_cycles = 0;
    frame.start = cycles_now();
  }

  void exit(Region region) {
    const Cycles end = cycles_now();
    AEQ_ASSERT_MSG(depth_ > 0, "profiler region stack underflow");
    Frame& frame = stack_[--depth_];
    AEQ_ASSERT_MSG(frame.region == region,
                   "mismatched profiler region exit (regions must nest)");
    const Cycles total = end > frame.start ? end - frame.start : 0;
    RegionStats& stats = stats_[static_cast<std::size_t>(region)];
    ++stats.count;
    stats.total_cycles += total;
    stats.self_cycles +=
        total > frame.child_cycles ? total - frame.child_cycles : 0;
    ++stats.hist[duration_bucket(total)];
    if (depth_ > 0) stack_[depth_ - 1].child_cycles += total;
  }

  std::size_t depth() const { return depth_; }
  std::uint32_t sample_period() const { return period_; }
  std::uint64_t roots_entered() const { return roots_entered_; }
  std::uint64_t roots_sampled() const { return roots_sampled_; }

  // Multiplier from sampled cycles/counts to whole-run estimates. Always
  // >= 1; exactly 1 at period 1 or before any tree completed.
  double sample_scale() const {
    if (roots_sampled_ == 0) return 1.0;
    return static_cast<double>(roots_entered_) /
           static_cast<double>(roots_sampled_);
  }

  const RegionStats& stats(Region region) const {
    return stats_[static_cast<std::size_t>(region)];
  }

  void reset() {
    depth_ = 0;
    countdown_ = 1;
    roots_entered_ = 0;
    roots_sampled_ = 0;
    for (RegionStats& stats : stats_) stats = RegionStats{};
  }

 private:
  struct Frame {
    Region region = Region::kDispatch;
    Cycles start = 0;
    Cycles child_cycles = 0;
  };

  Frame stack_[kMaxDepth];
  std::size_t depth_ = 0;
  std::uint32_t period_;
  std::uint32_t countdown_ = 1;  // first tree is always sampled
  std::uint64_t roots_entered_ = 0;
  std::uint64_t roots_sampled_ = 0;
  RegionStats stats_[kRegionCount];
};

// Sum of a collector's attributed self cycles across every region — the
// cycles it measured inside sampled trees. Scaled by sample_scale() this
// estimates the thread's total attributed time; the runner widens each
// thread's share denominator to it when the estimate overshoots the
// measured busy envelope, keeping self shares summing to <= 1.
inline Cycles attributed_self_cycles(const Collector& collector) {
  Cycles total = 0;
  for (std::size_t r = 0; r < kRegionCount; ++r) {
    total += collector.stats(static_cast<Region>(r)).self_cycles;
  }
  return total;
}

namespace detail {
// Null means profiling off: ProfRegion reduces to one load + branch.
inline thread_local Collector* tl_collector = nullptr;
// Per-thread tree state, encoded so ProfRegion's hot paths branch off a
// single thread_local read:
//   kIdle      — not inside a region tree; the next region is a root and
//                asks the installed collector's sample_root() whether to
//                time its tree
//   kSkipping  — inside an untimed tree; nested regions do nothing (the
//                root ProfRegion restores kIdle on destruction)
//   otherwise  — the Collector* timing the current tree
inline constexpr std::uintptr_t kIdle = 0;
inline constexpr std::uintptr_t kSkipping = 1;
inline thread_local std::uintptr_t tl_tree = kIdle;
}  // namespace detail

inline void install(Collector* collector) {
  detail::tl_collector = collector;
  detail::tl_tree = detail::kIdle;
}
inline Collector* current() { return detail::tl_collector; }

// Scoped region: opens `region` on the calling thread's collector for the
// enclosing scope. No-op (and allocation-free) when no collector is
// installed. Regions must strictly nest — ProfRegion's scoping guarantees
// that; hand-rolled enter/exit pairs that interleave abort (when timed).
class ProfRegion {
 public:
  explicit ProfRegion(Region region) : region_(region) {
    const std::uintptr_t tree = detail::tl_tree;
    if (tree > detail::kSkipping) {  // nested inside a timed tree
      collector_ = reinterpret_cast<Collector*>(tree);
      collector_->enter(region);
      return;
    }
    if (tree == detail::kSkipping) return;  // nested inside an untimed tree
    Collector* collector = detail::tl_collector;
    if (collector == nullptr) return;  // profiling off
    root_ = true;
    if (collector->sample_root()) {
      // tl_tree is a tri-state tag (idle / skipping / collector address);
      // detlint:allow(pointer-order) — the pointer is stored, not ordered.
      detail::tl_tree = reinterpret_cast<std::uintptr_t>(collector);
      collector_ = collector;
      collector_->enter(region);
    } else {
      detail::tl_tree = detail::kSkipping;
    }
  }
  ~ProfRegion() {
    if (collector_ != nullptr) collector_->exit(region_);
    if (root_) detail::tl_tree = detail::kIdle;
  }

  ProfRegion(const ProfRegion&) = delete;
  ProfRegion& operator=(const ProfRegion&) = delete;

 private:
  Collector* collector_ = nullptr;
  Region region_;
  bool root_ = false;
};

}  // namespace aeq::obs::prof
