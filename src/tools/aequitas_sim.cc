// aequitas_sim — the operator-facing CLI simulator (paper §6.1: "our open
// source simulator also serves as a tool for datacenter operators to help
// define the admissible region and set the right SLOs").
//
// Examples:
//   # 33-host all-to-all with Aequitas, 32KB RPCs, SLO 25/50us:
//   aequitas_sim --hosts=33 --mix=0.6,0.3,0.1 --slo-us=25,50 --rpc-kb=32
//
//   # Baseline (no admission control) sweep point with production sizes:
//   aequitas_sim --aequitas=off --sizes=production --duration-ms=20
//
//   # Theory only: print the admissible region for the fabric envelope:
//   aequitas_sim --theory --phi=4 --mu=0.8 --rho=1.4
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/admissible.h"
#include "runner/experiment.h"
#include "stats/export.h"
#include "tools/flags.h"
#include "workload/trace.h"

namespace {

using namespace aeq;

// Exits 2 naming the first malformed value or unknown flag, as every bench
// does; call once every flag of the chosen mode has been read.
void reject_bad_flags(const tools::Flags& flags) {
  const std::string problem = flags.problem();
  if (problem.empty()) return;
  std::fprintf(stderr, "error: %s (see --help)\n", problem.c_str());
  std::exit(2);
}

int run_theory(const tools::Flags& flags) {
  analysis::TwoQosParams params{.phi = flags.get_double("phi", 4.0),
                                .mu = flags.get_double("mu", 0.8),
                                .rho = flags.get_double("rho", 1.4)};
  reject_bad_flags(flags);
  std::printf("WFQ delay bounds, phi=%.1f mu=%.2f rho=%.2f\n", params.phi,
              params.mu, params.rho);
  std::printf("%-14s %-14s %-14s\n", "QoSh-share(%)", "Delay(QoSh)",
              "Delay(QoSl)");
  for (int pct = 5; pct <= 95; pct += 5) {
    const double x = pct / 100.0;
    std::printf("%-14d %-14.4f %-14.4f\n", pct,
                analysis::delay_high(params, x),
                analysis::delay_low(params, x));
  }
  std::printf("\nadmissible region edge: QoSh-share <= %.1f%%\n",
              100 * analysis::max_admissible_share(params));
  for (double slo : {0.01, 0.05, 0.10, 0.20}) {
    std::printf("max share within normalized delay SLO %.2f: %.1f%%\n", slo,
                100 * analysis::max_share_within_slo(params, slo));
  }
  return 0;
}

void print_usage() {
  std::printf(
      "aequitas_sim — packet-level Aequitas simulator\n\n"
      "workload:\n"
      "  --hosts=N            number of hosts (star topology; default 33)\n"
      "  --load=F             average per-host load, fraction of 100G "
      "(default 0.8)\n"
      "  --burst=F            burst load rho (default 1.4)\n"
      "  --mix=H,M,L          input QoS mix byte shares (default "
      "0.6,0.3,0.1)\n"
      "  --rpc-kb=N           fixed RPC size in KB (default 32)\n"
      "  --sizes=production   use production-shaped per-class sizes\n"
      "  --trace=FILE         replay an RPC trace CSV instead\n"
      "policy:\n"
      "  --aequitas=on|off    admission control (default on)\n"
      "  --slo-us=H,M         absolute SLO per QoS for the fixed RPC size "
      "(default 25,50)\n"
      "  --slo-us-per-mtu=H,M normalized SLOs (overrides --slo-us)\n"
      "  --alpha=F --beta=F   AIMD parameters (default 0.01/0.01)\n"
      "  --weights=A,B,C      WFQ weights (default 8,4,1)\n"
      "  --scheduler=wfq|dwrr|spq|fifo\n"
      "  --cc=swift|dctcp|fixed\n"
      "run:\n"
      "  --warmup-ms=N --duration-ms=N (default 10/15)\n"
      "  --seed=N\n"
      "  --csv=FILE           also dump per-QoS latency quantiles as CSV\n"
      "  --theory             print delay bounds instead of simulating "
      "(--phi --mu --rho)\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return 2;
  }
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  if (flags.get_bool("theory", false)) return run_theory(flags);

  runner::ExperimentConfig config;
  config.num_hosts = static_cast<std::size_t>(flags.get_int("hosts", 33));
  config.num_qos = 3;
  config.wfq_weights = flags.get_list("weights", {8.0, 4.0, 1.0});
  config.num_qos = config.wfq_weights.size();
  const bool aequitas = flags.get_bool("aequitas", true);
  config.admission.kind = aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.admission.aequitas.alpha = flags.get_double("alpha", 0.01);
  config.admission.aequitas.beta_per_mtu = flags.get_double("beta", 0.01);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const std::string scheduler = flags.get("scheduler", "wfq");
  if (scheduler == "wfq") {
    config.scheduler = net::SchedulerType::kWfq;
  } else if (scheduler == "dwrr") {
    config.scheduler = net::SchedulerType::kDwrr;
  } else if (scheduler == "spq") {
    config.scheduler = net::SchedulerType::kSpq;
  } else if (scheduler == "fifo") {
    config.scheduler = net::SchedulerType::kFifo;
  } else {
    std::fprintf(stderr,
                 "error: unknown --scheduler \"%s\" (wfq|dwrr|spq|fifo)\n",
                 scheduler.c_str());
    return 2;
  }
  const std::string cc = flags.get("cc", "swift");
  if (cc == "swift") {
    config.cc_kind = runner::ExperimentConfig::CcKind::kSwift;
  } else if (cc == "dctcp") {
    config.cc_kind = runner::ExperimentConfig::CcKind::kDctcp;
  } else if (cc == "fixed") {
    config.cc_kind = runner::ExperimentConfig::CcKind::kFixedWindow;
  } else {
    std::fprintf(stderr, "error: unknown --cc \"%s\" (swift|dctcp|fixed)\n",
                 cc.c_str());
    return 2;
  }

  const double rpc_kb = flags.get_double("rpc-kb", 32.0);
  const double size_mtus =
      std::max(1.0, rpc_kb * 1024 / net::kMtuBytes);
  std::vector<double> slo_per_mtu =
      flags.get_list("slo-us-per-mtu", {});
  const auto slo_abs = flags.get_list("slo-us", {25.0, 50.0});
  if (slo_per_mtu.empty()) {
    for (double s : slo_abs) slo_per_mtu.push_back(s / size_mtus);
  }
  std::vector<sim::Time> targets;
  for (std::size_t q = 0; q + 1 < config.num_qos; ++q) {
    targets.push_back(
        (q < slo_per_mtu.size() ? slo_per_mtu[q] : slo_per_mtu.back()) *
        sim::kUsec);
  }
  targets.push_back(0.0);  // scavenger
  config.slo = rpc::SloConfig::make(targets, 99.9);

  runner::Experiment experiment(config);

  const sim::Time warmup = flags.get_double("warmup-ms", 10.0) * sim::kMsec;
  const sim::Time duration =
      flags.get_double("duration-ms", 15.0) * sim::kMsec;
  const std::string csv_path = flags.get_path("csv");

  const std::string trace_path = flags.get_path("trace");
  if (!trace_path.empty()) {
    reject_bad_flags(flags);
    std::ifstream in(trace_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open trace '%s'\n",
                   trace_path.c_str());
      return 2;
    }
    const auto parsed = workload::parse_trace_csv(in);
    for (const std::string& err : parsed.errors) {
      std::fprintf(stderr, "trace: %s\n", err.c_str());
    }
    std::vector<rpc::RpcStack*> stacks;
    for (std::size_t h = 0; h < config.num_hosts; ++h) {
      stacks.push_back(&experiment.stack(static_cast<net::HostId>(h)));
    }
    const auto stats = workload::replay_trace(experiment.simulator(),
                                              parsed.records, stacks);
    std::printf("trace: %zu RPCs scheduled, %zu skipped\n", stats.scheduled,
                stats.skipped);
  } else {
    const auto mix = flags.get_list("mix", {0.6, 0.3, 0.1});
    const bool production = flags.get("sizes") == "production";
    workload::GeneratorConfig gen_template;
    const double load = flags.get_double("load", 0.8);
    const double burst = flags.get_double("burst", 1.4);
    reject_bad_flags(flags);
    gen_template.burst_over_avg = std::max(1.0, burst / load);
    const workload::SizeDistribution* fixed = nullptr;
    if (!production) {
      fixed = experiment.own(std::make_unique<workload::FixedSize>(
          static_cast<std::uint64_t>(rpc_kb * 1024)));
    }
    for (std::size_t h = 0; h < config.num_hosts; ++h) {
      workload::GeneratorConfig gen = gen_template;
      for (std::size_t c = 0; c < 3 && c < mix.size(); ++c) {
        workload::ClassLoad cls;
        cls.priority = static_cast<rpc::Priority>(c);
        cls.byte_rate = mix[c] * load * config.link_rate;
        cls.sizes = production
                        ? experiment.own(workload::production_size_dist(
                              static_cast<rpc::Priority>(c)))
                        : fixed;
        gen.classes.push_back(cls);
      }
      experiment.add_generator(static_cast<net::HostId>(h), gen);
    }
  }

  experiment.run(warmup, duration);

  const auto& metrics = experiment.metrics();
  std::printf("\n%zu hosts, %s, %s, aequitas=%s — warmup %.0fms + %.0fms\n",
              config.num_hosts, scheduler.c_str(), cc.c_str(),
              aequitas ? "on" : "off", warmup / sim::kMsec,
              duration / sim::kMsec);
  std::printf("%-8s %-12s %-12s %-14s %-12s %-12s %-12s\n", "QoS",
              "mean(us)", "p99(us)", "p99.9(us)", "share(%)", "downgr.",
              "meetSLO(%)");
  for (std::size_t q = 0; q < config.num_qos; ++q) {
    const auto qos = static_cast<net::QoSLevel>(q);
    const auto& rnl = metrics.rnl_by_run_qos(qos);
    std::printf("%-8zu %-12.1f %-12.1f %-14.1f %-12.1f %-12llu %-12.1f\n",
                q, rnl.mean() / sim::kUsec, rnl.p99() / sim::kUsec,
                rnl.p999() / sim::kUsec, 100 * metrics.admitted_share(qos),
                static_cast<unsigned long long>(metrics.downgraded(qos)),
                100 * metrics.slo_met_fraction(qos));
  }
  std::printf("completed %llu RPCs; mean downlink utilization %.1f%%\n",
              static_cast<unsigned long long>(metrics.total_completed()),
              100 * experiment.mean_downlink_utilization());

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    for (std::size_t q = 0; q < config.num_qos; ++q) {
      out << "# qos " << q << "\n";
      stats::write_quantiles_csv(
          out, metrics.rnl_by_run_qos(static_cast<net::QoSLevel>(q)));
    }
    std::printf("quantiles written to %s\n", csv_path.c_str());
  }
  return 0;
}
