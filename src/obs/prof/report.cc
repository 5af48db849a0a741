#include "obs/prof/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "sim/assert.h"

namespace aeq::obs::prof {
namespace {

// Same numeric shapes as the telemetry sinks: %.6g scalars, %.3f
// microseconds — stable, locale-independent bytes.
std::string num(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

std::string us(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds * 1e6);
  return buffer;
}

double to_seconds(double cycles, const Report& report) {
  return cycles / report.cycles_per_second;
}

// Region statistics with the tree-sampling correction applied: each
// thread's sampled cycles and counts scale by its roots_entered /
// roots_sampled ratio (profiler.h), giving whole-run estimates. The raw
// sampled call count rides along — it sizes the histogram and tells a
// reader how much evidence backs the estimate.
struct ScaledStats {
  double calls = 0.0;
  std::uint64_t sampled_calls = 0;
  double total_cycles = 0.0;
  double self_cycles = 0.0;
  std::uint64_t hist[kHistBuckets] = {};
};

// Folds `region` over every thread (or just `only`, when non-null).
ScaledStats scaled_region(const Report& report, Region region,
                          const ThreadProfile* only) {
  ScaledStats out;
  for (const ThreadProfile& thread : report.threads) {
    if (only != nullptr && &thread != only) continue;
    const RegionStats& stats = thread.collector.stats(region);
    const double scale = thread.collector.sample_scale();
    out.calls += scale * static_cast<double>(stats.count);
    out.sampled_calls += stats.count;
    out.total_cycles += scale * static_cast<double>(stats.total_cycles);
    out.self_cycles += scale * static_cast<double>(stats.self_cycles);
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      out.hist[b] += stats.hist[b];
    }
  }
  return out;
}

double self_share(const ScaledStats& stats, const Report& report) {
  if (report.denominator_cycles == 0) return 0.0;
  return stats.self_cycles / static_cast<double>(report.denominator_cycles);
}

void write_regions_json(std::ostream& out, const Report& report,
                        const ThreadProfile* thread) {
  out << "[";
  bool first = true;
  for (std::size_t r = 0; r < kRegionCount; ++r) {
    const auto region = static_cast<Region>(r);
    const ScaledStats stats = scaled_region(report, region, thread);
    if (stats.sampled_calls == 0) continue;
    out << (first ? "" : ",") << "\n  {\"name\":\"" << region_name(region)
        << "\",\"calls\":" << std::llround(stats.calls)
        << ",\"sampled_calls\":" << stats.sampled_calls
        << ",\"total_cycles\":" << std::llround(stats.total_cycles)
        << ",\"self_cycles\":" << std::llround(stats.self_cycles)
        << ",\"self_share\":" << num(self_share(stats, report))
        << ",\"self_seconds\":" << num(to_seconds(stats.self_cycles, report))
        << ",\"hist\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (stats.hist[b] == 0) continue;
      out << (first_bucket ? "" : ",") << "[" << b << "," << stats.hist[b]
          << "]";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << "\n ]";
}

}  // namespace

void write_json(const Report& report, const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  AEQ_ASSERT_MSG(out.is_open(), "prof: cannot open --prof report file");
  const double events_per_sec =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.events_processed) /
                report.elapsed_seconds
          : 0.0;
  const std::uint32_t sample_period =
      report.threads.empty() ? 1
                             : report.threads.front().collector.sample_period();
  out << "{\"schema\":\"aeq-prof-v1\""
      << ",\n \"events_processed\":" << report.events_processed
      << ",\n \"sim_time\":" << num(report.sim_time)
      << ",\n \"elapsed_seconds\":" << num(report.elapsed_seconds)
      << ",\n \"events_per_sec\":" << num(events_per_sec)
      << ",\n \"cycles_per_second\":" << num(report.cycles_per_second)
      << ",\n \"num_shards\":" << report.num_shards
      << ",\n \"sample_period\":" << sample_period
      << ",\n \"denominator_cycles\":" << report.denominator_cycles
      << ",\n \"regions\":";
  write_regions_json(out, report, nullptr);
  out << ",\n \"threads\":[";
  for (std::size_t t = 0; t < report.threads.size(); ++t) {
    const ThreadProfile& thread = report.threads[t];
    out << (t == 0 ? "" : ",") << "\n  {\"label\":\"" << thread.label
        << "\",\"events\":" << thread.events
        << ",\"busy_cycles\":" << thread.busy_cycles
        << ",\"wait_cycles\":" << thread.wait_cycles
        << ",\"sampled_trees\":" << thread.collector.roots_sampled()
        << ",\"sample_scale\":" << num(thread.collector.sample_scale())
        << ",\"regions\":";
    write_regions_json(out, report, &thread);
    out << "}";
  }
  out << "\n ]";
  if (report.executive.present) {
    const ExecutiveReport& exec = report.executive;
    out << ",\n \"executive\":{\"windows\":" << exec.windows
        << ",\"backoff_windows\":" << exec.backoff_windows << ",\"epochs\":[";
    for (std::size_t e = 0; e < exec.epochs.size(); ++e) {
      out << (e == 0 ? "" : ",") << exec.epochs[e];
    }
    out << "],\"barrier_cycles\":" << exec.barrier_cycles
        << ",\"barrier_stall_share\":" << num(exec.barrier_stall_share)
        << ",\"load_imbalance\":" << num(exec.load_imbalance)
        << ",\"mailbox_depth_hwm\":" << exec.mailbox_depth_hwm
        << ",\"cross_shard_packets\":" << exec.cross_shard_packets
        << ",\"window_hist\":[";
    bool first = true;
    for (std::size_t b = 0; b < exec.window_hist.size(); ++b) {
      if (exec.window_hist[b] == 0) continue;
      out << (first ? "" : ",") << "[" << b << "," << exec.window_hist[b]
          << "]";
      first = false;
    }
    out << "]}";
  }
  out << "\n}\n";
}

void write_chrome_tracks(const Report& report, const std::string& path) {
  // One trace process per thread profile, each a single flame row laying
  // the regions out by cumulative self time, in ChromeTraceSink's framing:
  // one prologue, every thread's events joined by ",", one epilogue.
  constexpr std::uint32_t kProfPidBase = 900000;
  std::ofstream out(path, std::ios::out | std::ios::trunc | std::ios::binary);
  AEQ_ASSERT_MSG(out.is_open(), "prof: cannot open trace track file");
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t t = 0; t < report.threads.size(); ++t) {
    const ThreadProfile& thread = report.threads[t];
    const std::uint32_t pid = kProfPidBase + static_cast<std::uint32_t>(t);
    out << (t == 0 ? "" : ",")
        << "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"prof:" << thread.label
        << "\"}}";
    double cursor_seconds = 0.0;
    for (std::size_t r = 0; r < kRegionCount; ++r) {
      const auto region = static_cast<Region>(r);
      const ScaledStats stats = scaled_region(report, region, &thread);
      if (stats.sampled_calls == 0) continue;
      const double self_seconds = to_seconds(stats.self_cycles, report);
      out << ",\n{\"ph\":\"X\",\"name\":\"" << region_name(region)
          << "\",\"cat\":\"prof\",\"ts\":" << us(cursor_seconds)
          << ",\"dur\":" << us(self_seconds) << ",\"pid\":" << pid
          << ",\"tid\":0,\"args\":{\"calls\":" << std::llround(stats.calls)
          << ",\"self_share\":" << num(self_share(stats, report)) << "}}";
      cursor_seconds += self_seconds;
    }
  }
  out << "\n]}\n";
}

void write_text_summary(const Report& report, std::ostream& out) {
  char line[192];
  const double events_per_sec =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.events_processed) /
                report.elapsed_seconds
          : 0.0;
  const std::uint32_t sample_period =
      report.threads.empty() ? 1
                             : report.threads.front().collector.sample_period();
  std::snprintf(line, sizeof(line),
                "[prof] %llu events in %.3fs wall = %.2fM events/sec "
                "(%zu shard%s, 1-in-%u tree sampling)",
                static_cast<unsigned long long>(report.events_processed),
                report.elapsed_seconds, events_per_sec / 1e6,
                report.num_shards, report.num_shards == 1 ? "" : "s",
                sample_period);
  out << line << "\n";
  std::snprintf(line, sizeof(line), "[prof] %-18s %12s %7s %11s %11s %9s",
                "region", "calls", "self%", "self(ms)", "total(ms)",
                "ns/call");
  out << line << "\n";
  for (std::size_t r = 0; r < kRegionCount; ++r) {
    const auto region = static_cast<Region>(r);
    const ScaledStats stats = scaled_region(report, region, nullptr);
    if (stats.sampled_calls == 0) continue;
    // ns/call divides two scaled quantities, so the sample correction
    // cancels — it is exact over the timed trees.
    const double ns_per_call =
        1e9 * to_seconds(stats.total_cycles, report) / stats.calls;
    std::snprintf(line, sizeof(line),
                  "[prof] %-18s %12llu %6.1f%% %11.3f %11.3f %9.0f",
                  region_name(region),
                  static_cast<unsigned long long>(std::llround(stats.calls)),
                  100.0 * self_share(stats, report),
                  1e3 * to_seconds(stats.self_cycles, report),
                  1e3 * to_seconds(stats.total_cycles, report), ns_per_call);
    out << line << "\n";
  }
  if (report.executive.present) {
    const ExecutiveReport& exec = report.executive;
    const double grain =
        exec.windows == 0 ? 0.0
                          : static_cast<double>(report.events_processed) /
                                static_cast<double>(exec.windows);
    std::snprintf(line, sizeof(line),
                  "[prof] executive: %llu windows (%llu lookahead-limited), "
                  "%.0f events/window",
                  static_cast<unsigned long long>(exec.windows),
                  static_cast<unsigned long long>(exec.backoff_windows),
                  grain);
    out << line << "\n";
    std::snprintf(line, sizeof(line),
                  "[prof]   barrier stall %.1f%% | load imbalance %.2f | "
                  "mailbox hwm %llu | serial %.3fs",
                  100.0 * exec.barrier_stall_share, exec.load_imbalance,
                  static_cast<unsigned long long>(exec.mailbox_depth_hwm),
                  to_seconds(exec.barrier_cycles, report));
    out << line << "\n";
  }
  out.flush();
}

}  // namespace aeq::obs::prof
