// Ablation: QoS-downgrade vs classic drop-based admission control.
//
// Aequitas's departure from traditional admission control is that rejected
// RPCs are *downgraded* to the scavenger class instead of dropped (§5,
// Phase 2). This ablation runs the same overloaded 3-node workload with
// (a) Aequitas (downgrade) and (b) an identical AIMD controller whose
// rejections are hard drops — AdmissionSpec::drop_rejects, which wraps the
// policy in policy::RejectionAdapter. Expected: equivalent QoS_h
// protection, but the drop variant destroys the rejected goodput while
// downgrading eventually delivers nearly everything.
//
// `--controller=ticket-pool,bandit` (or `all`) extends the ablation to any
// registered admission policy: each kind runs both as-designed (downgrade /
// pace) and with drop_rejects=true, so the downgrade-vs-drop comparison is
// policy-agnostic rather than Aequitas-specific.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "policy/registry.h"

namespace {

using namespace aeq;

runner::PointResult run(const std::string& kind, bool drop,
                        const std::string& label, std::uint64_t seed,
                        const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.seed = seed;
  const double size_mtus = 8.0;
  config.slo =
      rpc::SloConfig::make({15 * sim::kUsec / size_mtus, 0.0}, 99.9);
  config.admission.kind = kind;
  config.admission.drop_rejects = drop;
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  for (net::HostId client : {0, 1}) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.7 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(client, gen, workload::fixed_destination(2));
  }
  experiment.run(15 * sim::kMsec, 25 * sim::kMsec);

  const auto& metrics = experiment.metrics();
  double offered = 0.0, delivered = 0.0;
  for (net::QoSLevel q = 0; q < 2; ++q) {
    offered += static_cast<double>(metrics.bytes_requested(q));
    delivered += static_cast<double>(metrics.bytes_completed(q));
  }
  const auto pc_issued = metrics.downgraded(0) + metrics.terminated(0) +
                         metrics.completed(0);
  const double rejected =
      pc_issued ? static_cast<double>(metrics.downgraded(0) +
                                      metrics.terminated(0)) /
                      static_cast<double>(pc_issued)
                : 0.0;
  return runner::PointResult::single(
      {label, metrics.rnl_by_run_qos(0).p999() / sim::kUsec,
       offered > 0 ? 100 * delivered / offered : 0.0, 100 * rejected});
}

std::vector<std::string> parse_kinds(const std::string& controller) {
  if (controller == "all") return policy::names();
  std::vector<std::string> kinds;
  std::string_view remaining = controller;
  while (!remaining.empty()) {
    const auto comma = remaining.find(',');
    kinds.emplace_back(remaining.substr(0, comma));
    if (comma == std::string_view::npos) break;
    remaining.remove_prefix(comma + 1);
  }
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::string controller = args.flags.get("controller");
  bench::reject_unknown_flags(args);
  std::vector<std::string> kinds = parse_kinds(controller);
  for (const std::string& kind : kinds) {
    if (policy::is_registered(kind)) continue;
    std::fprintf(stderr, "unknown --controller kind \"%s\"; registered:",
                 kind.c_str());
    for (const std::string& name : policy::names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  bench::print_header("Ablation",
                      "Downgrade (Aequitas) vs drop-based admission under "
                      "2x offered load (3-node, SLO 15us)");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  if (kinds.empty()) {
    // Default: the paper's pairing — Aequitas as shipped vs the same AIMD
    // controller with hard-dropped rejections.
    for (bool drop : {false, true}) {
      sweep.submit([drop, trace = args.trace,
                    point = trace_point++](const runner::PointContext& ctx) {
        return run(policy::kAequitas, drop,
                   drop ? "drop" : "downgrade (Aequitas)", ctx.seed, trace,
                   point);
      });
    }
  } else {
    for (const std::string& kind : kinds) {
      for (bool drop : {false, true}) {
        sweep.submit([kind, drop, trace = args.trace,
                      point = trace_point++](const runner::PointContext& ctx) {
          return run(kind, drop, kind + (drop ? " (drop)" : " (downgrade)"),
                     ctx.seed, trace, point);
        });
      }
    }
  }
  stats::Table table({{"policy", 22},
                      {"QoSh p999(us)", 18, 1},
                      {"offered delivered(%)", 22, 1},
                      {"PC rejected(%)", 18, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  std::printf("\nBoth protect admitted QoS_h; the link is 2x oversubscribed "
              "so ~50%% of offered bytes can complete at best — downgrading "
              "keeps the link busy delivering rejected traffic on the "
              "scavenger class, dropping destroys it outright.\n");
  bench::print_footer(args);
  return 0;
}
