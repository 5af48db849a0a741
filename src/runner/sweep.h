// Parallel sweep execution with deterministic, structured results.
//
// Every figure/ablation in bench/ is a grid of *independent* simulation
// points (the simulator holds no global mutable state), so wall-clock time
// is gated by the embarrassingly parallel layer above a single run. A
// SweepRunner takes N closures that each construct and run an Experiment
// and return a structured PointResult, executes them on a fixed-size
// worker pool, and hands the results back in SUBMISSION order — so
// rendered output is byte-identical to the serial run regardless of
// completion order, and `--jobs 1` equals `--jobs N` for a fixed seed.
//
// Determinism contract:
//  * each point gets its own seed, sim::derive_seed(base_seed, index) —
//    a pure-integer SplitMix64 derivation, stable across platforms — so
//    points never share an RNG stream;
//  * closures must not touch shared mutable state (they own their
//    Experiment); everything a point wants to report goes into its
//    PointResult;
//  * results are stored by point index and exceptions are rethrown on the
//    caller thread, lowest index first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats/table.h"

namespace aeq::runner {

// Worker-pool width: `flag_value` (a --jobs flag) when > 0, else
// std::thread::hardware_concurrency() (at least 1).
std::size_t default_jobs();
std::size_t resolve_jobs(std::int64_t flag_value);

// What one sweep point hands back to the main thread. Rows feed the
// result table (most points contribute exactly one row; calibration or
// per-QoS points may contribute several); metrics carries named scalars
// for cross-point post-processing (least-squares fits, normalization
// bases, speedup ratios) without parsing the rendered output.
struct PointResult {
  std::vector<stats::Row> rows;
  std::map<std::string, double> metrics;

  static PointResult single(stats::Row row) {
    PointResult result;
    result.rows.push_back(std::move(row));
    return result;
  }
};

struct PointContext {
  std::size_t index = 0;   // submission index
  std::uint64_t seed = 0;  // sim::derive_seed(base_seed, index)
};

using PointFn = std::function<PointResult(const PointContext&)>;

struct SweepOptions {
  std::size_t jobs = 0;        // 0 => default_jobs()
  std::uint64_t base_seed = 1;
};

namespace detail {
// Runs body(0), ..., body(count - 1) across `jobs` worker threads (the
// caller thread doubles as worker 0). Indices are claimed from an atomic
// counter; any exceptions are captured and the lowest-index one is
// rethrown on the caller thread after all workers join.
void run_indexed(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& body);
}  // namespace detail

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  // Registers a point; returns its index. The closure runs on a worker
  // thread and must be self-contained (see determinism contract above).
  std::size_t submit(PointFn fn);

  // Seed point `index` will receive, for reproducing one point serially.
  std::uint64_t point_seed(std::size_t index) const;

  std::size_t size() const { return points_.size(); }

  // Executes all submitted points and returns their results in submission
  // order. May be called again after further submit()s; already-run points
  // are not re-executed.
  std::vector<PointResult> run();

 private:
  SweepOptions options_;
  std::size_t jobs_;
  std::vector<PointFn> points_;
  std::vector<PointResult> results_;
  std::size_t completed_ = 0;
};

// Generic fan-out for benches whose points produce richer payloads than
// PointResult (histogram CDFs, per-group percentile trackers, ...): runs
// fn(index) for index in [0, count) on `jobs` workers and returns the
// results in index order. R must be default-constructible and movable.
template <typename Fn>
auto parallel_points(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> results(count);
  detail::run_indexed(count, jobs,
                      [&](std::size_t index) { results[index] = fn(index); });
  return results;
}

}  // namespace aeq::runner
