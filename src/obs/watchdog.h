// Watchdog: online anomaly detection over closed telemetry windows.
//
// Registered as a TimeseriesSink window listener, the watchdog evaluates a
// small set of rules every time a window closes and invokes its callbacks
// with a structured Anomaly record when a rule has held for K consecutive
// windows. Rules (all per-window, all O(qos + ports) per evaluation):
//
//  - kSloCompliance: a QoS class's compliance rate stayed below its target
//    for 3 consecutive windows (ignoring windows with fewer than 16
//    completions, which carry no statistical weight).
//  - kPAdmitCollapse: the worst channel's mean p_admit stayed below
//    `p_admit_floor` for 2 windows — the admission plane has throttled
//    some channel to (near) zero.
//  - kPortSaturation: some port's max queue depth stayed above
//    `saturation_qlen_bytes` for 2 windows.
//  - kStall: RPCs are outstanding (cum_generated > cum_finished) but 2
//    consecutive windows saw no events at all — the simulation is wedged,
//    not idle.
//
// Each (rule, subject) pair keeps its own consecutive-window streak and a
// latch: the callback fires once when the streak first reaches K and cannot
// fire again until the condition clears for a window (hysteresis), so a
// sustained overload produces one anomaly, not one per window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/timeseries_sink.h"

namespace aeq::obs {

struct WatchdogConfig {
  // Per-QoS compliance alarm thresholds. Empty => rule disabled; the
  // experiment fills this from the configured SLOs (with an alarm margin
  // below the target percentile, so normal jitter stays silent).
  std::vector<double> compliance_target;

  // Alarm when the worst channel's window-mean p_admit sits below this.
  // <= 0 disables the rule; the experiment auto-fills a negative value to
  // 1.5x the admission controller's own p_admit floor, i.e. "a channel is
  // pinned at the floor", which separates pathological collapse from
  // ordinary heavy throttling.
  double p_admit_floor = -1.0;

  std::uint64_t saturation_qlen_bytes = 0;  // 0 disables the rule

  // The stall rule only evaluates windows ending at or before this time:
  // during the post-run drain the event stream legitimately goes quiet
  // while overload residue (RPCs whose packets were dropped) stays
  // outstanding forever. < 0 = no horizon; the experiment sets it to the
  // end of traffic generation.
  sim::Time stall_horizon = -1.0;

  // Windows ending at or before this time are observed but never advance a
  // streak: the convergence transient at run start (AIMD ramping down from
  // p_admit = 1) looks exactly like an overload and should not alarm. The
  // experiment raises this to its metrics warmup.
  sim::Time quiet_until = 0.0;
};

struct Anomaly {
  enum class Kind : std::uint8_t {
    kSloCompliance,
    kPAdmitCollapse,
    kPortSaturation,
    kStall,
  };
  Kind kind = Kind::kSloCompliance;
  sim::Time t = 0.0;            // close time of the triggering window
  std::uint64_t window = 0;     // index of the triggering window
  int qos = -1;                 // kSloCompliance only
  int port = -1;                // kPortSaturation only
  double value = 0.0;           // observed value in the triggering window
  double threshold = 0.0;       // the configured limit it crossed
  std::size_t consecutive = 0;  // streak length when the rule fired
};

const char* kind_name(Anomaly::Kind kind);
// One-line human/grep-friendly rendering:
//   t_us=30100.000 window=301 kind=slo_compliance qos=0 value=0.41
//   threshold=0.9 consecutive=3
std::string describe(const Anomaly& anomaly);

class Watchdog {
 public:
  explicit Watchdog(const WatchdogConfig& config);

  // Callbacks run in registration order, after the anomaly is logged.
  void add_callback(std::function<void(const Anomaly&)> fn);

  // Evaluates all rules against one closed window. Wire it up with:
  //   timeseries->add_window_listener(
  //       [w](const WindowStats& s) { w->on_window(s); });
  void on_window(const WindowStats& window);

  // The first kMaxAnomalyLog (1024) anomalies; callbacks see every one.
  const std::vector<Anomaly>& anomalies() const { return anomalies_; }
  std::uint64_t windows_seen() const { return windows_seen_; }

  // Extends (never shortens) the initial quiet period.
  void set_quiet_until(sim::Time t) {
    config_.quiet_until = std::max(config_.quiet_until, t);
  }
  // Bounds the stall rule to windows ending at or before `t`.
  void set_stall_horizon(sim::Time t) { config_.stall_horizon = t; }

 private:
  // Streak-and-latch state for one (rule, subject) pair.
  struct RuleState {
    std::size_t streak = 0;
    bool latched = false;
  };
  // Advances `state` given this window's verdict; returns true when the
  // rule fires (streak just reached `needed` and was not latched).
  static bool step(RuleState& state, bool bad, std::size_t needed);

  void emit(Anomaly anomaly);

  WatchdogConfig config_;
  std::vector<std::function<void(const Anomaly&)>> callbacks_;
  std::vector<Anomaly> anomalies_;
  std::uint64_t windows_seen_ = 0;

  std::vector<RuleState> compliance_;  // per QoS
  RuleState p_admit_;
  std::vector<RuleState> saturation_;  // per port
  RuleState stall_;
};

}  // namespace aeq::obs
