// Conservative parallel discrete-event executive (PDES over shards).
//
// A ShardedSimulator owns K independent Simulators ("shards") and advances
// them in lockstep lookahead windows: if every pending cross-shard
// interaction takes at least `lookahead` of simulated time to land (the
// minimum cut latency of the partitioned topology), then all events in
//
//   (window_start, min(t_end, earliest_pending + lookahead)]
//
// can run concurrently without any shard observing an effect from another
// shard "from the past". Cross-shard messages move through a
// CrossShardHandoff (net::ShardFabric): a shard buffers what it sends
// during a window, and each destination lands what it was sent at the
// start of its own next window — every message carries an arrival
// timestamp at least `lookahead` after its send, so it always lands at or
// beyond the horizon just executed.
//
// The window horizon is adaptive (bounded-lag / YAWNS style): it chases the
// globally earliest pending event — queued or still in a handoff — instead
// of marching in fixed lookahead steps, so idle gaps cost one barrier
// instead of gap/lookahead barriers.
//
// Threading model: the coordinator (the thread calling run_until) runs
// shard 0's window itself; shards 1..K-1 each have a persistent worker
// thread, parked on a condition variable between windows. The coordinator
// publishes a target time, wakes the workers, runs shard 0, and waits only
// if a worker is still busy; the last worker to finish is the only one
// that notifies it. The pool mutex orders every cross-window access
// (outbox handover, next_event_time scans, the final landing), so the
// protocol is data-race-free by construction — CI runs the full test suite
// under ThreadSanitizer to keep it that way.
//
// Determinism: shards touch disjoint simulation state, each shard lands
// its inbound messages in fixed (source, FIFO) order before dispatching
// anything, and each shard's Simulator dispatches exactly as it would
// serially. Same seed ⇒ same schedule ⇒ same metrics, for any shard count
// (property-tested in tests/sharded_test.cc).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aeq::obs::prof {
class Collector;
}  // namespace aeq::obs::prof

namespace aeq::sim {

// Introspection snapshot of the PDES executive (DESIGN.md §14). All cycle
// fields are raw timestamp-counter deltas (obs::prof::cycles_now units);
// they are observe-only and never feed back into the simulation.
struct ShardExecStats {
  std::uint64_t busy_cycles = 0;  // landing inbound + dispatching a window
  // Parked between windows (barrier + idle); for shard 0, which the
  // coordinator runs, the wait for the workers after its own window.
  std::uint64_t wait_cycles = 0;
  std::uint64_t events = 0;       // events dispatched by this shard
};

struct ExecutiveStats {
  // Log2 histogram of window length in 1/16ths of the lookahead: bucket 4
  // is a window of exactly one lookahead, lower buckets are backed-off or
  // event-sparse windows, higher buckets are idle-gap skips.
  static constexpr std::size_t kWindowHistBuckets = 32;

  std::uint64_t windows = 0;
  // Windows whose horizon was set by the 4-ulp backoff (earliest +
  // lookahead won over t_end) rather than the run target.
  std::uint64_t backoff_windows = 0;
  // Coordinator cycles inside run_until but outside the windows: the
  // horizon scans and the landing before each return — the executive's
  // serial fraction. Only accumulated while profiling is enabled.
  std::uint64_t barrier_cycles = 0;
  std::array<std::uint64_t, kWindowHistBuckets> window_hist{};
  std::vector<ShardExecStats> shards;

  std::uint64_t total_busy_cycles() const {
    std::uint64_t total = 0;
    for (const ShardExecStats& shard : shards) total += shard.busy_cycles;
    return total;
  }
  std::uint64_t total_wait_cycles() const {
    std::uint64_t total = 0;
    for (const ShardExecStats& shard : shards) total += shard.wait_cycles;
    return total;
  }
  // max(busy) / mean(busy): 1.0 is a perfectly balanced cut, K is one
  // shard doing all the work. 0 when no cycles were measured.
  double load_imbalance() const;
  // Σwait / (Σbusy + Σwait): the fraction of worker wall time spent parked
  // at barriers instead of dispatching events.
  double barrier_stall_share() const;
};

// The cross-shard message contract, implemented by net::ShardFabric. A
// shard hands messages to other shards during its window; they become
// visible to their destinations only through these two hooks.
class CrossShardHandoff {
 public:
  // Runs on the thread executing shard k's next window, before it
  // dispatches anything: lands every message the other shards handed to k
  // during the previous window into shard k's scheduler, and opens k's
  // buffers for the window about to run. Before run_until returns, the
  // coordinator calls it for every k in order, so nothing stays pending
  // between calls.
  virtual void land_inbound(std::size_t k) = 0;
  // Runs on the coordinator while every shard is parked: the earliest
  // arrival time among handed-over messages not yet landed (+inf if none).
  virtual Time earliest_pending() const = 0;

 protected:
  ~CrossShardHandoff() = default;
};

class ShardedSimulator {
 public:
  // `lookahead` must be strictly positive: it is the window depth, and a
  // zero-lookahead cut would serialize the shards one event at a time.
  ShardedSimulator(std::size_t num_shards, SchedulerBackend backend,
                   Time lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  Simulator& shard(std::size_t k) { return *shards_.at(k); }
  std::size_t num_shards() const { return shards_.size(); }
  Time lookahead() const { return lookahead_; }

  // The cross-shard channel the windows drain (none: shards never talk).
  // Call only between run_until calls; `handoff` must outlive them.
  void set_handoff(CrossShardHandoff* handoff) { handoff_ = handoff; }

  // Advances every shard to exactly `t_end` (their clocks end equal), in
  // conservative windows. Callable repeatedly with increasing targets.
  void run_until(Time t_end);

  // Simulated time every shard has reached (between run_until calls).
  Time now() const { return now_; }

  // Sum of events and port transitions dispatched across shards. It equals
  // the serial run's count — the cross-shard handoff path dispatches one
  // NIC tx-end plus one arrival event per packet, exactly like the serial
  // link's tx-end and delivery (checked, with the runner's between-call
  // audit sweeps on, by ShardDeterminismTest.SameSeedAnyShardCountSameMetrics).
  std::uint64_t events_processed() const;

  std::size_t pending_events() const;

  // Number of lookahead windows executed (barrier count), for perf
  // diagnostics: events_processed / windows_executed is the parallelism
  // grain the cut achieved.
  std::uint64_t windows_executed() const { return windows_; }

  // Schedule digest across all shards (sim/digest.h). Shards dispatch
  // concurrently, so the merged digest folds the per-shard commutative
  // accumulators; its canonical() equals the serial run's for the same
  // seed. Call only between run_until calls (workers parked).
  void enable_schedule_digest() {
    for (auto& shard : shards_) shard->enable_schedule_digest();
  }
  ScheduleDigest schedule_digest() const {
    ScheduleDigest merged;
    for (const auto& shard : shards_) merged.merge(shard->schedule_digest());
    return merged;
  }

  // Profiling handover: `collectors` (one per shard, or empty to disable)
  // are installed as the thread-local profiler collector of whichever
  // thread runs that shard's window (shard 0's only for its window, on the
  // coordinator), and per-shard busy/wait cycle accounting turns on.
  // Observe-only — enabling this cannot change the schedule. Call only
  // between run_until calls (workers parked); the pool mutex publishes the
  // pointers to the workers.
  void set_profiling(std::vector<obs::prof::Collector*> collectors);

  // Executive introspection snapshot. Window counts and the window-size
  // histogram are always maintained (they derive from simulated time and
  // cost nothing); cycle fields are nonzero only after set_profiling.
  // Call only between run_until calls.
  ExecutiveStats executive_stats();

 private:
  // Runs shard 0 here and shards 1..K-1 on the workers, up to `horizon`,
  // and returns once all of them have.
  void parallel_window(Time horizon);
  // One shard's share of a window: land its inbound handoffs, then
  // dispatch up to `horizon`.
  void run_shard_window(std::size_t k, Time horizon);
  // Lands every pending handoff, in (destination, source, FIFO) order.
  void land_all();
  void worker_loop(std::size_t k);

  std::vector<std::unique_ptr<Simulator>> shards_;
  Time lookahead_;
  Time now_ = 0.0;
  std::uint64_t windows_ = 0;
  // Set between run_until calls; the epoch publish under mutex_ orders the
  // write before every worker's read.
  CrossShardHandoff* handoff_ = nullptr;

  // Coordinator-thread-only introspection (no lock needed: written in
  // run_until / set_profiling, read in executive_stats, all coordinator
  // calls). The window histogram derives from simulated time, so it is
  // deterministic; the cycle counters are wall-derived and gated on
  // prof_enabled_ so an unprofiled run never reads the TSC here.
  std::uint64_t backoff_windows_ = 0;
  std::uint64_t barrier_cycles_ = 0;
  std::array<std::uint64_t, ExecutiveStats::kWindowHistBuckets>
      window_hist_{};
  bool prof_enabled_ = false;

  // Worker pool: epoch_ increments publish a new window target; running_
  // counts workers still inside it. The lock protocol is machine-checked:
  // every guarded member is only touched under mutex_ (clang
  // -Wthread-safety via the AEQ_THREAD_SAFETY build, DESIGN.md §12).
  util::Mutex mutex_;
  util::CondVar work_cv_;
  util::CondVar done_cv_;
  std::uint64_t epoch_ AEQ_GUARDED_BY(mutex_) = 0;
  Time target_ AEQ_GUARDED_BY(mutex_) = 0.0;
  std::size_t running_ AEQ_GUARDED_BY(mutex_) = 0;
  bool shutdown_ AEQ_GUARDED_BY(mutex_) = false;
  // Profiling handover state: workers read their collector pointer and the
  // flag at each epoch pickup (already under mutex_) and write their cycle
  // totals back under the same lock they use to decrement running_.
  bool profiling_ AEQ_GUARDED_BY(mutex_) = false;
  std::vector<obs::prof::Collector*> collectors_ AEQ_GUARDED_BY(mutex_);
  std::vector<ShardExecStats> shard_exec_ AEQ_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;  // workers_[k - 1] runs shard k
};

}  // namespace aeq::sim
