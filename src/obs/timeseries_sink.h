// TimeseriesSink: fixed-width sim-time windows over the event stream.
//
// The middle layer between raw per-event sinks (ChromeTraceSink/CsvSink,
// gigabytes at production scale) and whole-run totals (rpc::RpcMetrics):
// every window of simulated time is folded into one bounded-size WindowStats
// record — per-QoS RNL percentiles from a fixed-memory log-bucketed
// histogram (no per-RPC storage), SLO-compliance rate, QoS-mix byte shares,
// per-channel-averaged p_admit, admission downgrade/drop counts, and
// per-port max/mean queue depth — and streamed out as CSV and/or JSON
// timeline rows. Memory is O(qos + ports + channels + retained windows),
// independent of the number of events.
//
// Windows are [k*W, (k+1)*W). Events carry nondecreasing times (the
// simulator dispatches in time order), so a window closes when the first
// event at or past its end arrives, or when the experiment calls
// advance_to() between events every W (which also closes empty windows —
// that is what lets the watchdog detect a total stall). Listeners run at
// window close, after the window's rows are written and retained; the
// Watchdog (obs/watchdog.h) is the canonical listener.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "stats/log_histogram.h"
#include "util/flat_map.h"

namespace aeq::obs {

struct TimeseriesConfig {
  sim::Time window = 100 * sim::kUsec;  // window width (sim time)
  std::size_t num_qos = 3;
  std::string csv_path;   // "" = no CSV output
  std::string json_path;  // "" = no JSON output
};

// One closed window, fully aggregated. All RPC-level stats (completions,
// SLO verdicts, RNL percentiles) are attributed to the *requested* QoS —
// the paper's per-class accounting, which keeps downgraded RPCs visible to
// the class that suffered them — while `bytes` counts completed payload by
// the QoS the RPC was *delivered* on, so byte_share is the admitted QoS
// mix (§6 figures).
struct WindowStats {
  std::uint64_t index = 0;
  sim::Time start = 0.0;
  sim::Time end = 0.0;

  struct QosStats {
    std::uint64_t completed = 0;   // by requested QoS
    std::uint64_t terminated = 0;  // deadline kills + admission rejections
    std::uint64_t slo_met = 0;
    // slo_met / completed; 1.0 when nothing completed.
    double slo_compliance = 1.0;
    // RNL percentiles (seconds) over this window's completions; 0 if none.
    double rnl_p50 = 0.0;
    double rnl_p90 = 0.0;
    double rnl_p99 = 0.0;
    std::uint64_t bytes = 0;    // completed payload delivered on this QoS
    double byte_share = 0.0;    // bytes / window total (0 when no bytes)
  };
  std::vector<QosStats> qos;

  struct PortStats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t drops = 0;
    std::uint64_t qlen_max_bytes = 0;
    double qlen_mean_bytes = 0.0;  // mean backlog over enqueue/dequeue ops
  };
  std::vector<PortStats> ports;  // indexed by registered port id

  // Admission-plane aggregates.
  std::uint64_t admits = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t admission_drops = 0;
  // p_admit averaged per (src, dst, qos) channel first (the unit the AIMD
  // operates on), then across channels — so one chatty channel cannot mask
  // a collapsed one — plus the worst channel's mean for the watchdog.
  double p_admit_mean = 1.0;
  double p_admit_min = 1.0;

  // Whole-window totals.
  std::uint64_t generated = 0;
  std::uint64_t completed_total = 0;
  std::uint64_t terminated_total = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t packet_drops = 0;
  std::uint64_t enqueued_total = 0;
  std::uint64_t dequeued_total = 0;
  std::uint64_t events = 0;  // every event folded into this window

  // Cumulative issue/finish counters up to this window's close; their
  // difference is the outstanding-RPC backlog the stall rule inspects.
  std::uint64_t cum_generated = 0;
  std::uint64_t cum_finished = 0;

  // Controller gauges sampled at window close (set_gauge_provider):
  // cluster mean and worst host per named gauge. Empty unless a provider
  // is attached, which keeps the default CSV/JSON bytes unchanged.
  struct GaugeStat {
    std::string name;
    double mean = 0.0;
    double min = 0.0;
  };
  std::vector<GaugeStat> gauges;
};

class TimeseriesSink : public Sink {
 public:
  // How many closed windows recent() retains, for the flight recorder's
  // "recent timeseries rows" dump.
  static constexpr std::size_t kRecentCapacity = 128;

  explicit TimeseriesSink(const TimeseriesConfig& config);
  // Streams into caller-owned streams (tests); either may be null.
  TimeseriesSink(const TimeseriesConfig& config, std::ostream* csv,
                 std::ostream* json);

  void on_port_registered(std::uint32_t port,
                          const std::string& name) override;
  void on_rpc_generated(const RpcGenerated& event) override;
  void on_admission(const AdmissionDecision& event) override;
  void on_packet(const PacketEvent& event) override;
  void on_cwnd(const CwndUpdate& event) override;
  void on_rpc_complete(const RpcComplete& event) override;

  // Closes every window whose end is <= t (emitting empty windows across
  // gaps). The experiment calls it every window width of simulated time,
  // so stalls surface even when no events arrive.
  void advance_to(sim::Time t);

  // Closes the final (partial) window and the JSON document.
  void flush(sim::Time now) override;

  // Invoked with each window as it closes, in registration order.
  void add_window_listener(std::function<void(const WindowStats&)> fn);

  // Attaches a gauge sampler invoked at every window close (must be
  // read-only and deterministic, like the audit sweep — the runner wires
  // the admission controllers' gauges() here). Each closed window then
  // carries the samples as `gauge:<name>` CSV rows (mean/min in the
  // p_admit_mean/p_admit_min columns) and a JSON "gauges" array.
  using GaugeProvider = std::function<std::vector<WindowStats::GaugeStat>()>;
  void set_gauge_provider(GaugeProvider provider);

  std::uint64_t windows_closed() const { return windows_closed_; }
  const std::deque<WindowStats>& recent() const { return recent_; }

  // Re-renders the retained windows as one standalone CSV (header + rows):
  // the "recent timeseries rows" half of a flight-recorder dump.
  void write_recent_csv(const std::string& path) const;
  void write_recent_csv(std::ostream& out) const;

  static const char* csv_header();

 private:
  void init_streams();
  void ensure_window_for(sim::Time t);
  void close_window(sim::Time end);
  WindowStats harvest(sim::Time end);
  void write_csv_rows(const WindowStats& window, std::ostream& out) const;
  void write_json_window(const WindowStats& window);
  void reset_accumulators();

  TimeseriesConfig config_;
  std::ofstream csv_file_;
  std::ofstream json_file_;
  std::ostream* csv_ = nullptr;
  std::ostream* json_ = nullptr;
  bool json_first_ = true;
  bool finalized_ = false;

  std::vector<std::string> port_names_;
  std::vector<std::function<void(const WindowStats&)>> listeners_;
  GaugeProvider gauge_provider_;

  // --- accumulators of the currently open window ---
  std::uint64_t window_index_ = 0;
  struct QosAccum {
    std::uint64_t completed = 0;
    std::uint64_t terminated = 0;
    std::uint64_t slo_met = 0;
    std::uint64_t bytes = 0;  // delivered-QoS attribution
  };
  std::vector<QosAccum> qos_;
  std::vector<stats::LogHistogram> rnl_;  // per requested QoS
  struct PortAccum {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t drops = 0;
    std::uint64_t qlen_max = 0;
    double qlen_sum = 0.0;
    std::uint64_t qlen_samples = 0;
  };
  std::vector<PortAccum> ports_;
  struct ChannelAccum {
    double p_admit_sum = 0.0;
    std::uint64_t decisions = 0;
  };
  // This window's channels by channel key. Cleared, not freed, per window,
  // so it stops allocating once it has held the busiest window.
  util::FlatMap64<ChannelAccum> channels_;
  // Harvest scratch: (channel key, mean p_admit), sorted by key so the
  // floating-point fold runs in a deterministic order.
  std::vector<std::pair<std::uint64_t, double>> channel_means_;
  std::uint64_t admits_ = 0;
  std::uint64_t downgrades_ = 0;
  std::uint64_t admission_drops_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t events_ = 0;
  sim::Time last_event_time_ = 0.0;

  std::uint64_t cum_generated_ = 0;
  std::uint64_t cum_finished_ = 0;

  std::uint64_t windows_closed_ = 0;
  std::deque<WindowStats> recent_;
};

}  // namespace aeq::obs
