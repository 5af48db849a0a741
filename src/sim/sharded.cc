#include "sim/sharded.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::sim {

namespace {

// Log2 bucket of a window/lookahead ratio in 1/16ths (bucket 4 == one
// lookahead exactly); saturates at the histogram edge.
std::size_t window_bucket(double ratio) {
  if (!(ratio > 0.0)) return 0;
  auto scaled = static_cast<std::uint64_t>(ratio * 16.0);
  std::size_t bucket = 0;
  while (scaled > 1 && bucket + 1 < ExecutiveStats::kWindowHistBuckets) {
    scaled >>= 1;
    ++bucket;
  }
  return bucket;
}

// Cycle delta that never underflows (the TSC can step back across cores).
obs::prof::Cycles cycles_since(obs::prof::Cycles start) {
  const obs::prof::Cycles now = obs::prof::cycles_now();
  return now > start ? now - start : 0;
}

}  // namespace

double ExecutiveStats::load_imbalance() const {
  std::uint64_t max_busy = 0;
  std::uint64_t sum_busy = 0;
  for (const ShardExecStats& shard : shards) {
    max_busy = std::max(max_busy, shard.busy_cycles);
    sum_busy += shard.busy_cycles;
  }
  if (sum_busy == 0 || shards.empty()) return 0.0;
  const double mean = static_cast<double>(sum_busy) /
                      static_cast<double>(shards.size());
  return static_cast<double>(max_busy) / mean;
}

double ExecutiveStats::barrier_stall_share() const {
  const std::uint64_t busy = total_busy_cycles();
  const std::uint64_t wait = total_wait_cycles();
  if (busy + wait == 0) return 0.0;
  return static_cast<double>(wait) / static_cast<double>(busy + wait);
}

ShardedSimulator::ShardedSimulator(std::size_t num_shards,
                                   SchedulerBackend backend, Time lookahead)
    : lookahead_(lookahead) {
  AEQ_CHECK_GE(num_shards, 1u);
  AEQ_ASSERT_MSG(lookahead_ > 0.0,
                 "conservative sharding needs a positive lookahead (a "
                 "zero-latency cross-shard link would serialize the run)");
  shards_.reserve(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    shards_.push_back(std::make_unique<Simulator>(backend));
  }
  {
    const util::MutexLock lock(mutex_);
    shard_exec_.resize(num_shards);
  }
  workers_.reserve(num_shards - 1);
  for (std::size_t k = 1; k < num_shards; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k); });
  }
}

void ShardedSimulator::set_profiling(
    std::vector<obs::prof::Collector*> collectors) {
  AEQ_ASSERT_MSG(collectors.empty() || collectors.size() == shards_.size(),
                 "set_profiling needs one collector per shard (or none)");
  const util::MutexLock lock(mutex_);
  collectors_ = std::move(collectors);
  profiling_ = !collectors_.empty();
  prof_enabled_ = profiling_;
}

ExecutiveStats ShardedSimulator::executive_stats() {
  ExecutiveStats stats;
  stats.windows = windows_;
  stats.backoff_windows = backoff_windows_;
  stats.barrier_cycles = barrier_cycles_;
  stats.window_hist = window_hist_;
  {
    const util::MutexLock lock(mutex_);
    stats.shards = shard_exec_;
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    stats.shards[k].events = shards_[k]->events_processed();
  }
  return stats;
}

ShardedSimulator::~ShardedSimulator() {
  {
    const util::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedSimulator::run_shard_window(std::size_t k, Time horizon) {
  if (handoff_ != nullptr) handoff_->land_inbound(k);
  shards_[k]->run_until(horizon);
}

void ShardedSimulator::land_all() {
  if (handoff_ == nullptr) return;
  for (std::size_t k = 0; k < shards_.size(); ++k) handoff_->land_inbound(k);
}

void ShardedSimulator::worker_loop(std::size_t k) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Time target = 0.0;
    bool profiling = false;
    obs::prof::Collector* collector = nullptr;
    {
      const util::MutexLock lock(mutex_);
      // Wait-time accounting: only when profiling was on both before and
      // after the park, so enabling it mid-park doesn't charge pre-enable
      // idle time to the profile.
      const bool was_profiling = profiling_;
      const obs::prof::Cycles wait_start =
          was_profiling ? obs::prof::cycles_now() : 0;
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.wait(mutex_);
      if (was_profiling && profiling_) {
        shard_exec_[k].wait_cycles += cycles_since(wait_start);
      }
      if (shutdown_) return;
      seen_epoch = epoch_;
      target = target_;
      profiling = profiling_;
      if (profiling) collector = collectors_[k];
    }
    obs::prof::install(collector);
    const obs::prof::Cycles busy_start =
        profiling ? obs::prof::cycles_now() : 0;
    run_shard_window(k, target);
    const obs::prof::Cycles busy = profiling ? cycles_since(busy_start) : 0;
    obs::prof::install(nullptr);
    bool last = false;
    {
      const util::MutexLock lock(mutex_);
      shard_exec_[k].busy_cycles += busy;
      last = --running_ == 0;
    }
    // Only the last worker out has anything to tell the coordinator.
    if (last) done_cv_.notify_one();
  }
}

void ShardedSimulator::parallel_window(Time horizon) {
  obs::prof::Collector* collector = nullptr;
  {
    const util::MutexLock lock(mutex_);
    target_ = horizon;
    running_ = workers_.size();
    ++epoch_;
    if (profiling_) collector = collectors_[0];
  }
  work_cv_.notify_all();
  // Shard 0 runs here while the workers wake up, under its own collector;
  // the coordinator's collector comes back afterwards.
  obs::prof::Collector* const coordinator = obs::prof::current();
  obs::prof::install(collector);
  const obs::prof::Cycles busy_start =
      prof_enabled_ ? obs::prof::cycles_now() : 0;
  run_shard_window(0, horizon);
  const obs::prof::Cycles busy =
      prof_enabled_ ? cycles_since(busy_start) : 0;
  obs::prof::install(coordinator);
  const obs::prof::Cycles wait_start =
      prof_enabled_ ? obs::prof::cycles_now() : 0;
  {
    const util::MutexLock lock(mutex_);
    while (running_ != 0) done_cv_.wait(mutex_);
    if (prof_enabled_) {
      shard_exec_[0].busy_cycles += busy;
      shard_exec_[0].wait_cycles += cycles_since(wait_start);
    }
  }
  ++windows_;
}

void ShardedSimulator::run_until(Time t_end) {
  AEQ_CHECK_GE(t_end, now_);
  // Serial-time accounting: everything here outside parallel_window.
  obs::prof::Cycles serial_start =
      prof_enabled_ ? obs::prof::cycles_now() : 0;
  for (;;) {
    // Safe horizon: the earliest pending event anywhere — queued in a
    // shard or still in a handoff — plus lookahead. Any cross-shard
    // message produced inside the window lands at least `lookahead_` after
    // its producing event, hence at or beyond the horizon — so no shard
    // can receive a message from its own past. Landing a handoff
    // schedules exactly its arrival time, so this equals the scan of the
    // shards after landing everything.
    Time earliest = handoff_ != nullptr
                        ? handoff_->earliest_pending()
                        : std::numeric_limits<Time>::infinity();
    for (auto& shard : shards_) {
      earliest = std::min(earliest, shard->next_event_time());
    }
    if (earliest > t_end) {
      // Nothing left on this side of t_end: just advance the clocks.
      land_all();
      for (auto& shard : shards_) shard->run_until(t_end);
      now_ = t_end;
      break;
    }
    // Back the horizon off by a few ulps: arrival timestamps are computed
    // by the producing shard as tx_start + (ser + delay) — the serial
    // executive's exact expression, kept bit-identical on purpose — and
    // that sum can round up to ~3 ulps below the infinitely-precise
    // earliest + lookahead. The margin is ~1e-16 relative, ten orders of
    // magnitude under any real lookahead, so windows still make progress.
    Time safe = earliest + lookahead_;
    safe -= 4.0 * std::abs(safe) * std::numeric_limits<Time>::epsilon();
    AEQ_DCHECK(safe > earliest);
    const Time horizon = std::min(t_end, safe);
    // Window introspection (deterministic: simulated time only). A window
    // whose horizon is the backed-off safe bound — not the run target —
    // was lookahead-limited; the histogram tracks how much of the
    // theoretical lookahead grain each window achieved.
    if (safe < t_end) ++backoff_windows_;
    ++window_hist_[window_bucket((horizon - now_) / lookahead_)];
    if (prof_enabled_) barrier_cycles_ += cycles_since(serial_start);
    parallel_window(horizon);
    if (prof_enabled_) serial_start = obs::prof::cycles_now();
    now_ = horizon;
    if (now_ >= t_end) {
      // Hand the last window's messages over now, so nothing is pending
      // between calls (the runner may schedule into shards in between).
      land_all();
      break;
    }
  }
  if (prof_enabled_) barrier_cycles_ += cycles_since(serial_start);
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_processed();
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_events();
  return total;
}

}  // namespace aeq::sim
