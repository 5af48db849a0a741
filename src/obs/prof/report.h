// Profile report assembly and export (DESIGN.md §14).
//
// The runner fills a Report from the run's collectors plus the PDES
// executive's introspection snapshot, and the writers here render it
// three ways:
//   * write_json       — the machine-readable `--prof=PATH` report
//                        (validated by tools/validate_trace.py --prof-json)
//   * write_chrome_tracks — one flame row (self time per region) per
//                        executive thread, as Chrome trace_event JSON in
//                        the telemetry traces' framing
//   * write_text_summary — the end-of-run table printed to stderr (stderr,
//                        not stdout: profiled stdout must stay
//                        byte-identical to unprofiled stdout)
//
// All output happens strictly after the simulation finishes, so nothing
// here can perturb the schedule.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/prof/profiler.h"
#include "sim/sharded.h"

namespace aeq::obs::prof {

// One executive thread's share of the run: a shard, the serial main loop,
// or the sharded coordinator (horizon scans, the wait for the workers and
// post-run sweeps — its shard 0 windows are shard0's).
struct ThreadProfile {
  std::string label;            // "serial", "shard<k>", "coordinator"
  std::uint64_t events = 0;     // events this thread dispatched (0 = n/a)
  Cycles busy_cycles = 0;       // measured execution envelope
  Cycles wait_cycles = 0;       // between windows (shards only)
  Collector collector;
};

// Sharded-executive introspection, lifted from sim::ExecutiveStats plus
// the fabric's outbox counters.
struct ExecutiveReport {
  bool present = false;  // false for serial runs; "executive" key omitted
  std::uint64_t windows = 0;
  std::uint64_t backoff_windows = 0;
  // Cumulative window counts at each run phase boundary (main target,
  // drain target, ...); must be non-decreasing — the validator's
  // "monotonic epochs" invariant.
  std::vector<std::uint64_t> epochs;
  Cycles barrier_cycles = 0;  // coordinator's serial time between windows
  double barrier_stall_share = 0.0;
  double load_imbalance = 0.0;
  std::uint64_t mailbox_depth_hwm = 0;
  std::uint64_t cross_shard_packets = 0;
  std::array<std::uint64_t, sim::ExecutiveStats::kWindowHistBuckets>
      window_hist{};
};

struct Report {
  std::uint64_t events_processed = 0;
  double sim_time = 0.0;         // simulated seconds covered by the run
  double elapsed_seconds = 0.0;  // wall time between the calibration points
  double cycles_per_second = 1e9;
  std::size_t num_shards = 1;
  // Denominator for self_share. Per thread the runner takes
  // max(measured busy envelope, sample_scale × attributed self cycles)
  // and sums: with tree sampling the scaled attribution is an estimate
  // that can exceed the envelope on a noisy draw, and widening the
  // denominator to cover it keeps shares summing to <= 1 by construction
  // (the validator's share invariant).
  Cycles denominator_cycles = 0;
  std::vector<ThreadProfile> threads;
  ExecutiveReport executive;
};

void write_json(const Report& report, const std::string& path);
void write_chrome_tracks(const Report& report, const std::string& path);
void write_text_summary(const Report& report, std::ostream& out);

}  // namespace aeq::obs::prof
