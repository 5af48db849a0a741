#include "obs/watchdog.h"

#include <cstdio>
#include <utility>

#include "sim/assert.h"

namespace aeq::obs {

namespace {

// Anomalies retained in Watchdog::anomalies().
constexpr std::size_t kMaxAnomalyLog = 1024;

// Consecutive windows each rule's condition must hold before it fires.
constexpr std::size_t kComplianceWindows = 3;
constexpr std::size_t kPAdmitWindows = 2;
constexpr std::size_t kSaturationWindows = 2;
constexpr std::size_t kStallWindows = 2;
// Windows with fewer completions than this don't advance compliance
// streaks in either direction.
constexpr std::uint64_t kComplianceMinCompletions = 16;

}  // namespace

const char* kind_name(Anomaly::Kind kind) {
  switch (kind) {
    case Anomaly::Kind::kSloCompliance:
      return "slo_compliance";
    case Anomaly::Kind::kPAdmitCollapse:
      return "p_admit_collapse";
    case Anomaly::Kind::kPortSaturation:
      return "port_saturation";
    case Anomaly::Kind::kStall:
      return "stall";
  }
  return "unknown";
}

std::string describe(const Anomaly& anomaly) {
  char buffer[256];
  int written = std::snprintf(
      buffer, sizeof(buffer), "t_us=%.3f window=%llu kind=%s",
      anomaly.t / sim::kUsec,
      static_cast<unsigned long long>(anomaly.window), kind_name(anomaly.kind));
  std::string line(buffer, static_cast<std::size_t>(written));
  if (anomaly.qos >= 0) line += " qos=" + std::to_string(anomaly.qos);
  if (anomaly.port >= 0) line += " port=" + std::to_string(anomaly.port);
  written = std::snprintf(buffer, sizeof(buffer),
                          " value=%.6g threshold=%.6g consecutive=%zu",
                          anomaly.value, anomaly.threshold,
                          anomaly.consecutive);
  line.append(buffer, static_cast<std::size_t>(written));
  return line;
}

Watchdog::Watchdog(const WatchdogConfig& config) : config_(config) {
  compliance_.resize(config_.compliance_target.size());
}

void Watchdog::add_callback(std::function<void(const Anomaly&)> fn) {
  AEQ_ASSERT(fn != nullptr);
  callbacks_.push_back(std::move(fn));
}

bool Watchdog::step(RuleState& state, bool bad, std::size_t needed) {
  if (!bad) {
    state.streak = 0;
    state.latched = false;
    return false;
  }
  ++state.streak;
  if (state.streak < needed || state.latched) return false;
  state.latched = true;
  return true;
}

void Watchdog::emit(Anomaly anomaly) {
  if (anomalies_.size() < kMaxAnomalyLog) anomalies_.push_back(anomaly);
  for (const auto& callback : callbacks_) callback(anomaly);
}

void Watchdog::on_window(const WindowStats& window) {
  ++windows_seen_;
  if (window.end <= config_.quiet_until) return;

  // SLO compliance: per requested-QoS class, with a minimum sample size so
  // a window with two unlucky completions can't start a streak.
  const std::size_t monitored =
      std::min(compliance_.size(), window.qos.size());
  for (std::size_t q = 0; q < monitored; ++q) {
    const WindowStats::QosStats& qos = window.qos[q];
    const double target = config_.compliance_target[q];
    if (target <= 0.0) continue;
    if (qos.completed < kComplianceMinCompletions) continue;
    if (step(compliance_[q], qos.slo_compliance < target,
             kComplianceWindows)) {
      Anomaly anomaly;
      anomaly.kind = Anomaly::Kind::kSloCompliance;
      anomaly.t = window.end;
      anomaly.window = window.index;
      anomaly.qos = static_cast<int>(q);
      anomaly.value = qos.slo_compliance;
      anomaly.threshold = target;
      anomaly.consecutive = compliance_[q].streak;
      emit(anomaly);
    }
  }

  // p_admit collapse: the worst channel's window-mean probability. Only
  // meaningful in windows that saw admission decisions.
  if (config_.p_admit_floor > 0.0 &&
      (window.admits + window.downgrades + window.admission_drops) > 0) {
    if (step(p_admit_, window.p_admit_min < config_.p_admit_floor,
             kPAdmitWindows)) {
      Anomaly anomaly;
      anomaly.kind = Anomaly::Kind::kPAdmitCollapse;
      anomaly.t = window.end;
      anomaly.window = window.index;
      anomaly.value = window.p_admit_min;
      anomaly.threshold = config_.p_admit_floor;
      anomaly.consecutive = p_admit_.streak;
      emit(anomaly);
    }
  }

  // Port saturation: max backlog within the window against a byte limit.
  if (config_.saturation_qlen_bytes > 0) {
    if (saturation_.size() < window.ports.size()) {
      saturation_.resize(window.ports.size());
    }
    for (std::size_t p = 0; p < window.ports.size(); ++p) {
      const bool bad = window.ports[p].qlen_max_bytes >
                       config_.saturation_qlen_bytes;
      if (step(saturation_[p], bad, kSaturationWindows)) {
        Anomaly anomaly;
        anomaly.kind = Anomaly::Kind::kPortSaturation;
        anomaly.t = window.end;
        anomaly.window = window.index;
        anomaly.port = static_cast<int>(p);
        anomaly.value = static_cast<double>(window.ports[p].qlen_max_bytes);
        anomaly.threshold = static_cast<double>(config_.saturation_qlen_bytes);
        anomaly.consecutive = saturation_[p].streak;
        emit(anomaly);
      }
    }
  }

  // Stall: work outstanding but the event stream has gone completely quiet.
  // Empty windows only exist because the experiment calls advance_to every
  // window, so this rule turns that clock into a liveness check.
  if (config_.stall_horizon < 0.0 || window.end <= config_.stall_horizon) {
    const bool outstanding = window.cum_generated > window.cum_finished;
    if (step(stall_, outstanding && window.events == 0,
             kStallWindows)) {
      Anomaly anomaly;
      anomaly.kind = Anomaly::Kind::kStall;
      anomaly.t = window.end;
      anomaly.window = window.index;
      anomaly.value =
          static_cast<double>(window.cum_generated - window.cum_finished);
      anomaly.threshold = 0.0;
      anomaly.consecutive = stall_.streak;
      emit(anomaly);
    }
  }
}

}  // namespace aeq::obs
