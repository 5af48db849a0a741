// Figure 22: Aequitas vs pFabric, QJump, D3, PDQ and Homa on the 33-node
// setup with production RPC sizes and input mix 50/30/20.
//
// Reported, as in the paper: (1) the percentage of QoS_h *traffic*
// (byte-weighted) meeting its SLO from its initially assigned QoS,
// (2) network utilization (downlink busy fraction / offered load), and
// (3) per-QoS p99.9 RNL.
//
// Reproduced shape: Aequitas admits SLO-compliant QoS_h traffic at ~full
// utilization and beats QJump, D3 and PDQ; D3/PDQ terminate flows and lose
// a large chunk of utilization (the paper's ~50% observation); QJump's
// hard per-level rate caps hurt RPC-level compliance under bursts.
//
// Documented divergence: our pFabric and Homa score *above* Aequitas on
// SLO-met% (the paper has them below, 56%/46.5% vs 70.3%). Two reasons:
// (a) these baseline stacks are idealized — per-message parallel
// transmission with clairvoyant selective ACKs and no flow-multiplexing
// penalty, while the Aequitas stack pays FIFO-per-channel sender queueing
// in its RNL (the paper's definition); and (b) at average load 0.8 the
// residual ~20Gbps lets SRPT finish even multi-MB RPCs within their
// size-proportional budgets, so the large-RPC starvation that sinks SRPT
// in the paper's workload only partially materializes in ours.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

// Normalized SLO targets (per MTU); identical for every system.
constexpr double kSloHPerMtu = 3.0;   // us
constexpr double kSloMPerMtu = 6.0;  // us
// Absolute deadlines for the deadline-aware systems (paper: 250us/300us).
constexpr double kDeadlineH = 250.0;  // us
constexpr double kDeadlineM = 300.0;  // us
// Average per-host offered load (fraction of line rate).
constexpr double kOfferedLoad = 0.8;

rpc::SloConfig make_slo() {
  return rpc::SloConfig::make(
      {kSloHPerMtu * sim::kUsec, kSloMPerMtu * sim::kUsec, 0.0}, 99.9);
}

struct Row {
  const char* name;
  double met_h;      // % of QoS_h traffic meeting SLO
  double met_m;      // % of QoS_m
  double util;       // network utilization %
  double p999[3];    // per-QoS p99.9 RNL (us)
  double terminated; // % of deadline RPCs killed
};

void attach_workload(runner::Experiment& experiment, bool with_deadlines,
                     double offered_load = kOfferedLoad) {
  bench::AllToAllSpec spec;
  spec.load = offered_load;
  spec.mix = {0.5, 0.3, 0.2};
  spec.sizes = {
      experiment.own(workload::production_size_dist(rpc::Priority::kPC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kNC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kBE))};
  if (with_deadlines) {
    spec.deadline_budget = {kDeadlineH * sim::kUsec, kDeadlineM * sim::kUsec,
                            0.0};
  }
  bench::attach_all_to_all(experiment, spec);
}

Row collect(const char* name, runner::Experiment& experiment,
            double utilization) {
  const auto& metrics = experiment.metrics();
  Row row{};
  row.name = name;
  row.met_h = 100 * metrics.slo_met_fraction_bytes(0);
  row.met_m = 100 * metrics.slo_met_fraction_bytes(1);
  row.util = 100 * utilization;
  for (net::QoSLevel q = 0; q < 3; ++q) {
    row.p999[q] = metrics.rnl_by_run_qos(q).p999() / sim::kUsec;
  }
  const double eligible = static_cast<double>(metrics.slo_eligible(0)) +
                          static_cast<double>(metrics.slo_eligible(1));
  const double killed = static_cast<double>(metrics.terminated(0)) +
                        static_cast<double>(metrics.terminated(1));
  row.terminated = eligible > 0 ? 100 * killed / eligible : 0.0;
  return row;
}

// One row of the comparison: Aequitas (Swift over WFQ {8, 4, 1} with
// admission control), or a baseline transport on the queue discipline it
// assumes, with no admission control.
struct System {
  const char* name;
  runner::ExperimentConfig::CcKind kind;
};

Row run_system(const System& system, sim::SchedulerBackend backend,
               std::uint64_t seed, const bench::TraceRequest& trace,
               int point) {
  using CcKind = runner::ExperimentConfig::CcKind;
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.slo = make_slo();
  config.seed = seed;
  config.scheduler_backend = backend;
  config.cc_kind = system.kind;
  if (system.kind != CcKind::kSwift) {
    config.admission.kind = policy::kAlwaysAdmit;
  }
  switch (system.kind) {
    case CcKind::kPfabric:
      config.scheduler = net::SchedulerType::kPfabric;
      config.buffer_bytes = 160 * 1024;  // ~2.5 BDP
      break;
    case CcKind::kQjump:
      config.scheduler = net::SchedulerType::kSpq;
      break;
    case CcKind::kHoma:
      config.scheduler = net::SchedulerType::kSpq;
      config.wfq_weights.assign(8, 1.0);  // one class per Homa level
      break;
    case CcKind::kD3:
    case CcKind::kPdq:
      config.scheduler = net::SchedulerType::kFifo;
      break;
    default:
      break;
  }
  // QJump provisioned for the expected per-level load (0.4/0.24 of line
  // rate on h/m): caps hold packet latency down but bursts above the cap
  // queue at the host.
  config.qjump_level_rate_fraction = {0.45, 0.30, 0.0};
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const bool deadlines =
      system.kind == CcKind::kD3 || system.kind == CcKind::kPdq;

  // For the deadline protocols the paper judges SLO attainment against the
  // absolute deadline, not the normalized target.
  std::array<std::uint64_t, 2> met_bytes{0, 0};
  std::array<std::uint64_t, 2> eligible_bytes{0, 0};
  if (deadlines) {
    for (std::size_t h = 0; h < 33; ++h) {
      experiment.stack(static_cast<net::HostId>(h))
          .set_completion_listener([&](const rpc::RpcRecord& r) {
            if (r.qos_requested > 1) return;
            const double budget =
                r.qos_requested == 0 ? kDeadlineH : kDeadlineM;
            eligible_bytes[r.qos_requested] += r.bytes;
            if (!r.terminated && r.rnl <= budget * sim::kUsec) {
              met_bytes[r.qos_requested] += r.bytes;
            }
          });
    }
  }
  attach_workload(experiment, deadlines);
  experiment.run(12 * sim::kMsec, 15 * sim::kMsec);
  // Utilization: downlink busy fraction relative to the offered load
  // (0.8). Terminated/unsent traffic leaves links idle; queued-but-moving
  // scavenger traffic still counts as useful work.
  Row row = collect(system.name, experiment,
                    std::min(1.0, experiment.mean_downlink_utilization() /
                                      kOfferedLoad));
  if (deadlines) {
    for (int q = 0; q < 2; ++q) {
      const double met =
          eligible_bytes[q] ? 100.0 * static_cast<double>(met_bytes[q]) /
                                  static_cast<double>(eligible_bytes[q])
                            : 0.0;
      (q == 0 ? row.met_h : row.met_m) = met;
    }
  }
  return row;
}

// --controller= shoot-out: one registered admission policy on the Aequitas
// stack (same 33-node topology, workload, and SLOs as the related-work
// comparison). Returns the standard row plus a compact rendering of the
// policy's introspection gauges (rpc::Gauge), read from host 0.
struct PolicyRow {
  Row row;
  double rejected = 0.0;  // % of QoS_h issues downgraded or dropped
  std::string gauges;
};

std::string summarize_gauges(const rpc::AdmissionController& controller) {
  std::string out;
  for (const rpc::Gauge& gauge : controller.gauges()) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s%s=%.3g",
                  out.empty() ? "" : " ", gauge.name, gauge.value);
    out += buffer;
  }
  return out.empty() ? "-" : out;
}

PolicyRow run_policy(const std::string& kind, sim::SchedulerBackend backend,
                     double load, std::uint64_t seed,
                     const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind = kind;
  config.slo = make_slo();
  config.seed = seed;
  config.scheduler_backend = backend;
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  attach_workload(experiment, false, load);
  experiment.run(12 * sim::kMsec, 15 * sim::kMsec);
  PolicyRow result;
  result.row = collect(kind.c_str(), experiment,
                       std::min(1.0, experiment.mean_downlink_utilization() /
                                         load));
  const auto& metrics = experiment.metrics();
  const auto issued = metrics.downgraded(0) + metrics.terminated(0) +
                      metrics.completed(0);
  result.rejected =
      issued ? 100.0 *
                   static_cast<double>(metrics.downgraded(0) +
                                       metrics.terminated(0)) /
                   static_cast<double>(issued)
             : 0.0;
  result.gauges = summarize_gauges(experiment.admission(0));
  return result;
}

// Runs the shoot-out of the registered policies `kinds` and renders its
// table; returns the process exit code.
int run_shootout(bench::BenchArgs& args, const std::vector<std::string>& kinds,
                 sim::SchedulerBackend backend) {
  const std::vector<double> loads =
      args.flags.get_list("loads", {kOfferedLoad});
  bench::reject_unknown_flags(args);

  bench::print_header("Admission-policy shoot-out",
                      "33-node, production sizes, input mix 50/30/20, "
                      "normalized SLO 3/6us per MTU; every policy runs the "
                      "same stack and workload");
  runner::SweepRunner sweep(args.sweep);
  int point = 0;
  for (const double load : loads) {
    for (const std::string& kind : kinds) {
      sweep.submit([kind, backend, load, trace = args.trace,
                    p = point++](const runner::PointContext& ctx) {
        const PolicyRow result =
            run_policy(kind, backend, load, ctx.seed, trace, p);
        return runner::PointResult::single(
            {result.row.name, load, result.row.met_h, result.row.met_m,
             result.row.util, stats::Cell(result.row.p999[0], 0),
             result.rejected, result.gauges});
      });
    }
  }
  stats::Table table({{"policy", 14},
                      {"load", 6, 2},
                      {"h meet SLO%", 12, 1},
                      {"m meet SLO%", 12, 1},
                      {"util%", 8, 1},
                      {"h p999(us)", 12, 0},
                      {"rejected%", 10, 1},
                      {"gauges (host 0)", 20}});
  for (const auto& result : sweep.run()) table.add_rows(result.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  // `--backend` pins the scheduler backend of every point, in both modes.
  const sim::SchedulerBackend backend = bench::parse_backend(args);
  // `--controller=aequitas,ticket-pool,...` (or `all`) switches from the
  // related-work comparison to the admission-policy shoot-out: every named
  // registered policy on the identical stack, optionally swept across
  // `--loads=0.6,0.8,1.0`.
  const std::vector<std::string> kinds = bench::controller_kinds(args);
  if (!kinds.empty()) return run_shootout(args, kinds, backend);
  // Optional filter: run only the named systems (case-sensitive,
  // comma-separated), e.g. `fig22_related_work --only=D3,PDQ`.
  const std::vector<std::string> only = args.flags.get_names("only");
  bench::reject_unknown_flags(args);
  const auto wanted = [&only](const char* name) {
    return only.empty() ||
           std::find(only.begin(), only.end(), name) != only.end();
  };
  bench::print_header("Figure 22",
                      "Related-work comparison, 33-node, production sizes, "
                      "input mix 50/30/20 (normalized SLO 3/6us per MTU; "
                      "D3/PDQ deadlines 250/300us)");

  // Every system is one point; --trace-point N picks the N-th submitted.
  using CcKind = runner::ExperimentConfig::CcKind;
  const System systems[] = {{"Aequitas", CcKind::kSwift},
                            {"pFabric", CcKind::kPfabric},
                            {"QJump", CcKind::kQjump},
                            {"D3", CcKind::kD3},
                            {"PDQ", CcKind::kPdq},
                            {"Homa", CcKind::kHoma}};
  runner::SweepRunner sweep(args.sweep);
  int point = 0;
  for (const System& system : systems) {
    if (!wanted(system.name)) continue;
    sweep.submit([system, backend, trace = args.trace,
                  p = point++](const runner::PointContext& ctx) {
      const Row row = run_system(system, backend, ctx.seed, trace, p);
      return runner::PointResult::single(
          {row.name, row.met_h, row.met_m, row.util,
           stats::Cell(row.p999[0], 0), stats::Cell(row.p999[1], 0),
           stats::Cell(row.p999[2], 0), row.terminated});
    });
  }

  stats::Table table({{"system", 10},
                      {"h meet SLO%", 12, 1},
                      {"m meet SLO%", 12, 1},
                      {"util%", 10, 1},
                      {"h p999(us)", 12, 0},
                      {"m p999(us)", 12, 0},
                      {"l p999(us)", 12, 0},
                      {"killed%", 10, 1}});
  for (const auto& result : sweep.run()) table.add_rows(result.rows);
  bench::emit(table, args);
  bench::print_footer(args);
  return 0;
}
