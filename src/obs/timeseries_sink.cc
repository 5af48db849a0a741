#include "obs/timeseries_sink.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/assert.h"

namespace aeq::obs {
namespace {

std::string us(sim::Time t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", t / sim::kUsec);
  return buffer;
}

std::string num(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

// RNL histogram shape: percentiles carry <= kRnlPrecision relative error
// within [kRnlMin, kRnlMax] (values clamp outside).
constexpr double kRnlMin = 0.1 * sim::kUsec;
constexpr double kRnlMax = 1.0;  // seconds
constexpr double kRnlPrecision = 0.02;

// (src, dst, qos) channel key; hosts are small nonnegative ids.
std::uint64_t channel_key(net::HostId src, net::HostId dst,
                          net::QoSLevel qos) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 8) |
         qos;
}

}  // namespace

const char* TimeseriesSink::csv_header() {
  return "window_start_us,window_end_us,scope,completed,terminated,slo_met,"
         "slo_compliance,rnl_p50_us,rnl_p90_us,rnl_p99_us,bytes,byte_share,"
         "p_admit_mean,p_admit_min,admits,downgrades,admission_drops,"
         "packet_drops,enqueued,dequeued,qlen_max_bytes,qlen_mean_bytes";
}

TimeseriesSink::TimeseriesSink(const TimeseriesConfig& config)
    : config_(config) {
  AEQ_CHECK_GT(config_.window, 0.0);
  AEQ_CHECK_GE(config_.num_qos, 1u);
  if (!config_.csv_path.empty()) {
    csv_file_.open(config_.csv_path, std::ios::out | std::ios::trunc);
    AEQ_ASSERT_MSG(csv_file_.is_open(),
                   "TimeseriesSink: cannot open CSV output file");
    csv_ = &csv_file_;
  }
  if (!config_.json_path.empty()) {
    json_file_.open(config_.json_path, std::ios::out | std::ios::trunc);
    AEQ_ASSERT_MSG(json_file_.is_open(),
                   "TimeseriesSink: cannot open JSON output file");
    json_ = &json_file_;
  }
  init_streams();
}

TimeseriesSink::TimeseriesSink(const TimeseriesConfig& config,
                               std::ostream* csv, std::ostream* json)
    : config_(config), csv_(csv), json_(json) {
  AEQ_CHECK_GT(config_.window, 0.0);
  AEQ_CHECK_GE(config_.num_qos, 1u);
  init_streams();
}

void TimeseriesSink::init_streams() {
  qos_.assign(config_.num_qos, QosAccum{});
  rnl_.reserve(config_.num_qos);
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    rnl_.emplace_back(kRnlMin, kRnlMax, kRnlPrecision);
  }
  if (csv_ != nullptr) *csv_ << csv_header() << '\n';
  if (json_ != nullptr) {
    *json_ << "{\"window_width_us\":" << num(config_.window / sim::kUsec)
           << ",\"windows\":[";
  }
}

void TimeseriesSink::add_window_listener(
    std::function<void(const WindowStats&)> fn) {
  AEQ_ASSERT(fn != nullptr);
  listeners_.push_back(std::move(fn));
}

void TimeseriesSink::set_gauge_provider(GaugeProvider provider) {
  AEQ_ASSERT_MSG(gauge_provider_ == nullptr,
                 "TimeseriesSink: gauge provider already set");
  gauge_provider_ = std::move(provider);
}

void TimeseriesSink::on_port_registered(std::uint32_t port,
                                        const std::string& name) {
  if (port >= port_names_.size()) {
    port_names_.resize(port + 1);
    ports_.resize(port + 1);
  }
  port_names_[port] = name;
}

void TimeseriesSink::ensure_window_for(sim::Time t) {
  while (!finalized_ &&
         t >= static_cast<double>(window_index_ + 1) * config_.window) {
    close_window(static_cast<double>(window_index_ + 1) * config_.window);
  }
}

void TimeseriesSink::advance_to(sim::Time t) { ensure_window_for(t); }

void TimeseriesSink::on_rpc_generated(const RpcGenerated& event) {
  if (finalized_) return;
  ensure_window_for(event.t);
  last_event_time_ = event.t;
  ++events_;
  ++generated_;
  ++cum_generated_;
}

void TimeseriesSink::on_admission(const AdmissionDecision& event) {
  if (finalized_) return;
  ensure_window_for(event.t);
  last_event_time_ = event.t;
  ++events_;
  if (event.dropped) {
    ++admission_drops_;
  } else if (event.downgraded) {
    ++downgrades_;
  } else {
    ++admits_;
  }
  ChannelAccum& channel =
      channels_[channel_key(event.src, event.dst, event.qos_from)];
  channel.p_admit_sum += event.p_admit;
  ++channel.decisions;
}

void TimeseriesSink::on_packet(const PacketEvent& event) {
  if (finalized_) return;
  ensure_window_for(event.t);
  last_event_time_ = event.t;
  ++events_;
  if (event.port >= ports_.size()) ports_.resize(event.port + 1);
  PortAccum& port = ports_[event.port];
  switch (event.kind) {
    case PacketEventKind::kEnqueue:
      ++port.enqueued;
      break;
    case PacketEventKind::kDequeue:
      ++port.dequeued;
      break;
    case PacketEventKind::kDrop:
      ++port.drops;
      return;  // backlog unchanged by a rejected arrival
  }
  port.qlen_max = std::max(port.qlen_max, event.qlen_bytes);
  port.qlen_sum += static_cast<double>(event.qlen_bytes);
  ++port.qlen_samples;
}

void TimeseriesSink::on_cwnd(const CwndUpdate& event) {
  if (finalized_) return;
  ensure_window_for(event.t);
  last_event_time_ = event.t;
  ++events_;
}

void TimeseriesSink::on_rpc_complete(const RpcComplete& event) {
  if (finalized_) return;
  ensure_window_for(event.t);
  last_event_time_ = event.t;
  ++events_;
  ++cum_finished_;
  const auto requested = static_cast<std::size_t>(
      std::min<std::size_t>(event.qos_requested, qos_.size() - 1));
  const auto run = static_cast<std::size_t>(
      std::min<std::size_t>(event.qos_run, qos_.size() - 1));
  if (event.terminated) {
    ++qos_[requested].terminated;
    return;
  }
  ++qos_[requested].completed;
  if (event.slo_met) ++qos_[requested].slo_met;
  rnl_[requested].add(event.rnl);
  qos_[run].bytes += event.bytes;
}

WindowStats TimeseriesSink::harvest(sim::Time end) {
  WindowStats window;
  window.index = window_index_;
  window.start = static_cast<double>(window_index_) * config_.window;
  window.end = end;

  window.qos.resize(config_.num_qos);
  std::uint64_t bytes_total = 0;
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    bytes_total += qos_[q].bytes;
  }
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    WindowStats::QosStats& out = window.qos[q];
    out.completed = qos_[q].completed;
    out.terminated = qos_[q].terminated;
    out.slo_met = qos_[q].slo_met;
    out.slo_compliance =
        out.completed == 0 ? 1.0
                           : static_cast<double>(out.slo_met) /
                                 static_cast<double>(out.completed);
    out.rnl_p50 = rnl_[q].percentile(50.0);
    out.rnl_p90 = rnl_[q].percentile(90.0);
    out.rnl_p99 = rnl_[q].percentile(99.0);
    out.bytes = qos_[q].bytes;
    out.byte_share = bytes_total == 0 ? 0.0
                                      : static_cast<double>(out.bytes) /
                                            static_cast<double>(bytes_total);
    window.completed_total += out.completed;
    window.terminated_total += out.terminated;
  }
  window.bytes_total = bytes_total;

  window.ports.resize(ports_.size());
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    WindowStats::PortStats& out = window.ports[p];
    out.enqueued = ports_[p].enqueued;
    out.dequeued = ports_[p].dequeued;
    out.drops = ports_[p].drops;
    out.qlen_max_bytes = ports_[p].qlen_max;
    out.qlen_mean_bytes =
        ports_[p].qlen_samples == 0
            ? 0.0
            : ports_[p].qlen_sum / static_cast<double>(ports_[p].qlen_samples);
    window.packet_drops += out.drops;
    window.enqueued_total += out.enqueued;
    window.dequeued_total += out.dequeued;
  }

  window.admits = admits_;
  window.downgrades = downgrades_;
  window.admission_drops = admission_drops_;
  if (!channels_.empty()) {
    channel_means_.clear();
    // Sorted by the unique channel key below. detlint:allow(unordered-iter)
    channels_.for_each([this](std::uint64_t key, const ChannelAccum& channel) {
      channel_means_.emplace_back(
          key, channel.p_admit_sum / static_cast<double>(channel.decisions));
    });
    std::sort(channel_means_.begin(), channel_means_.end());  // unique keys
    double sum = 0.0;
    double min = 1.0;
    for (const auto& [key, mean] : channel_means_) {
      (void)key;
      sum += mean;
      min = std::min(min, mean);
    }
    window.p_admit_mean = sum / static_cast<double>(channel_means_.size());
    window.p_admit_min = min;
  }

  window.generated = generated_;
  window.events = events_;
  window.cum_generated = cum_generated_;
  window.cum_finished = cum_finished_;
  if (gauge_provider_) window.gauges = gauge_provider_();
  return window;
}

void TimeseriesSink::write_csv_rows(const WindowStats& window,
                                    std::ostream& out) const {
  const std::string start = us(window.start);
  const std::string end = us(window.end);
  // Global row first: admission plane + whole-window totals.
  out << start << ',' << end << ",global," << window.completed_total << ','
      << window.terminated_total << ",,,,,," << window.bytes_total << ",,"
      << num(window.p_admit_mean) << ',' << num(window.p_admit_min) << ','
      << window.admits << ',' << window.downgrades << ','
      << window.admission_drops << ',' << window.packet_drops << ','
      << window.enqueued_total << ',' << window.dequeued_total << ",,\n";
  for (std::size_t q = 0; q < window.qos.size(); ++q) {
    const WindowStats::QosStats& qos = window.qos[q];
    out << start << ',' << end << ",qos" << q << ',' << qos.completed << ','
        << qos.terminated << ',' << qos.slo_met << ','
        << num(qos.slo_compliance) << ',' << us(qos.rnl_p50) << ','
        << us(qos.rnl_p90) << ',' << us(qos.rnl_p99) << ',' << qos.bytes
        << ',' << num(qos.byte_share) << ",,,,,,,,,,\n";
  }
  for (std::size_t p = 0; p < window.ports.size(); ++p) {
    const WindowStats::PortStats& port = window.ports[p];
    if (port.enqueued == 0 && port.dequeued == 0 && port.drops == 0) continue;
    const std::string& name =
        p < port_names_.size() && !port_names_[p].empty()
            ? port_names_[p]
            : "port" + std::to_string(p);
    out << start << ',' << end << ",port:" << name << ",,,,,,,,,,,,,,,"
        << port.drops << ',' << port.enqueued << ',' << port.dequeued << ','
        << port.qlen_max_bytes << ',' << num(port.qlen_mean_bytes) << '\n';
  }
  // Gauge rows reuse the admission-plane mean/min columns — a gauge is the
  // same shape of signal (cluster mean + worst host), so no header churn.
  for (const WindowStats::GaugeStat& gauge : window.gauges) {
    out << start << ',' << end << ",gauge:" << gauge.name << ",,,,,,,,,,"
        << num(gauge.mean) << ',' << num(gauge.min) << ",,,,,,,,\n";
  }
}

void TimeseriesSink::write_json_window(const WindowStats& window) {
  std::ostream& out = *json_;
  out << (json_first_ ? "\n" : ",\n");
  json_first_ = false;
  out << "{\"window_start_us\":" << us(window.start)
      << ",\"window_end_us\":" << us(window.end) << ",\"global\":{"
      << "\"completed\":" << window.completed_total
      << ",\"terminated\":" << window.terminated_total
      << ",\"generated\":" << window.generated
      << ",\"bytes\":" << window.bytes_total
      << ",\"admits\":" << window.admits
      << ",\"downgrades\":" << window.downgrades
      << ",\"admission_drops\":" << window.admission_drops
      << ",\"p_admit_mean\":" << num(window.p_admit_mean)
      << ",\"p_admit_min\":" << num(window.p_admit_min)
      << ",\"packet_drops\":" << window.packet_drops << "},\"qos\":[";
  for (std::size_t q = 0; q < window.qos.size(); ++q) {
    const WindowStats::QosStats& qos = window.qos[q];
    out << (q == 0 ? "" : ",") << "{\"qos\":" << q
        << ",\"completed\":" << qos.completed
        << ",\"terminated\":" << qos.terminated
        << ",\"slo_met\":" << qos.slo_met
        << ",\"slo_compliance\":" << num(qos.slo_compliance)
        << ",\"rnl_p50_us\":" << us(qos.rnl_p50)
        << ",\"rnl_p90_us\":" << us(qos.rnl_p90)
        << ",\"rnl_p99_us\":" << us(qos.rnl_p99)
        << ",\"bytes\":" << qos.bytes
        << ",\"byte_share\":" << num(qos.byte_share) << "}";
  }
  out << "],\"ports\":[";
  bool first_port = true;
  for (std::size_t p = 0; p < window.ports.size(); ++p) {
    const WindowStats::PortStats& port = window.ports[p];
    if (port.enqueued == 0 && port.dequeued == 0 && port.drops == 0) continue;
    const std::string& name =
        p < port_names_.size() && !port_names_[p].empty()
            ? port_names_[p]
            : "port" + std::to_string(p);
    out << (first_port ? "" : ",") << "{\"port\":\"" << name
        << "\",\"enqueued\":" << port.enqueued
        << ",\"dequeued\":" << port.dequeued << ",\"drops\":" << port.drops
        << ",\"qlen_max_bytes\":" << port.qlen_max_bytes
        << ",\"qlen_mean_bytes\":" << num(port.qlen_mean_bytes) << "}";
    first_port = false;
  }
  out << "]";
  if (!window.gauges.empty()) {
    out << ",\"gauges\":[";
    for (std::size_t g = 0; g < window.gauges.size(); ++g) {
      const WindowStats::GaugeStat& gauge = window.gauges[g];
      out << (g == 0 ? "" : ",") << "{\"name\":\"" << gauge.name
          << "\",\"mean\":" << num(gauge.mean)
          << ",\"min\":" << num(gauge.min) << "}";
    }
    out << "]";
  }
  out << "}";
}

void TimeseriesSink::reset_accumulators() {
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    qos_[q] = QosAccum{};
    rnl_[q].reset();
  }
  for (PortAccum& port : ports_) port = PortAccum{};
  channels_.clear();
  admits_ = downgrades_ = admission_drops_ = 0;
  generated_ = 0;
  events_ = 0;
}

void TimeseriesSink::close_window(sim::Time end) {
  const WindowStats window = harvest(end);
  if (csv_ != nullptr) write_csv_rows(window, *csv_);
  if (json_ != nullptr) write_json_window(window);
  recent_.push_back(window);
  while (recent_.size() > kRecentCapacity) recent_.pop_front();
  ++windows_closed_;
  ++window_index_;
  reset_accumulators();
  // Listeners run after the window is written and retained, so a watchdog
  // callback that dumps the flight recorder sees this window's rows too.
  for (const auto& listener : listeners_) listener(window);
}

void TimeseriesSink::flush(sim::Time now) {
  if (finalized_) return;
  ensure_window_for(now);
  if (events_ > 0) {
    // Final partial window: its end is the flush time, not the grid edge.
    const sim::Time end = std::max(
        now, static_cast<double>(window_index_) * config_.window);
    close_window(end);
  }
  finalized_ = true;
  if (json_ != nullptr) {
    *json_ << "\n]}\n";
    json_->flush();
  }
  if (csv_ != nullptr) csv_->flush();
}

void TimeseriesSink::write_recent_csv(std::ostream& out) const {
  out << csv_header() << '\n';
  for (const WindowStats& window : recent_) write_csv_rows(window, out);
}

void TimeseriesSink::write_recent_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  AEQ_ASSERT_MSG(out.is_open(),
                 "TimeseriesSink: cannot open recent-rows output file");
  write_recent_csv(out);
}

}  // namespace aeq::obs
