// Figures 4, 5 and 24: Phase-1 deployment — aligning network QoS with RPC
// priority. The paper reports fleet data from 50 production clusters; we
// substitute a Monte-Carlo population of 50 simulated clusters whose
// priority->QoS mappings are misaligned like Figure 4 (e.g. only ~83% of PC
// RPCs on QoS_h, while ~44% of BE RPCs also ride QoS_h), then apply Phase 1
// (bijective mapping) and measure, per cluster: the misalignment percentage
// and the change in PC 99th-percentile RNL. Expected: misalignment drops to
// zero and most clusters see a sizeable PC RNL reduction (the paper: up to
// -53%, fleet average ~-10%, with a few small regressions).
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace aeq;

// True-priority traffic mix of every cluster (byte shares of PC/NC/BE).
constexpr double kPriorityMix[3] = {0.45, 0.30, 0.25};

struct ClusterOutcome {
  double pc_p99;
  double misaligned_pct;
};

// One simulated cluster: 12 hosts all-to-all, 32KB RPCs, bursty overload.
// `matrix[prio][qos]` is the probability that an RPC of true priority
// `prio` rides wire class `qos` (identity matrix once Phase 1 lands).
//
// The workload is issued per wire class (that is all the network sees);
// PC RNL is estimated by classifying each completion as PC with probability
// P(priority == PC | wire class) — an unbiased sample of the PC latency
// mixture.
ClusterOutcome run_cluster(std::uint64_t seed,
                           const std::array<std::array<double, 3>, 3>& matrix,
                           double load, const bench::TraceRequest& trace,
                           int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 12;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind = policy::kAlwaysAdmit;  // Phase 1 only — no admission control
  config.seed = seed;
  config.slo = rpc::SloConfig::make(
      {25.0 / 8 * sim::kUsec, 50.0 / 8 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  // Wire-class byte shares and P(PC | wire class).
  double wire_share[3] = {0, 0, 0};
  double pc_given_class[3] = {0, 0, 0};
  double misaligned = 0.0;
  for (std::size_t qos = 0; qos < 3; ++qos) {
    for (std::size_t prio = 0; prio < 3; ++prio) {
      wire_share[qos] += kPriorityMix[prio] * matrix[prio][qos];
      if (prio != qos) misaligned += kPriorityMix[prio] * matrix[prio][qos];
    }
    if (wire_share[qos] > 0) {
      pc_given_class[qos] =
          kPriorityMix[0] * matrix[0][qos] / wire_share[qos];
    }
  }

  stats::PercentileTracker pc_rnl;
  sim::Rng classify_rng(seed ^ 0xBEEF);
  for (std::size_t h = 0; h < 12; ++h) {
    experiment.stack(static_cast<net::HostId>(h))
        .set_completion_listener([&](const rpc::RpcRecord& r) {
          if (r.issued < 4 * sim::kMsec) return;
          if (classify_rng.bernoulli(pc_given_class[r.qos_run])) {
            pc_rnl.add(r.rnl);
          }
        });
  }

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  for (std::size_t h = 0; h < 12; ++h) {
    workload::GeneratorConfig gen;
    gen.burst_over_avg = 1.4 / 0.8;
    const double rate = load * sim::gbps(100);
    for (std::size_t qos = 0; qos < 3; ++qos) {
      if (wire_share[qos] <= 0.0) continue;
      workload::ClassLoad slice;
      slice.priority = static_cast<rpc::Priority>(qos);  // bijective wire map
      slice.byte_rate = wire_share[qos] * rate;
      slice.sizes = sizes;
      gen.classes.push_back(slice);
    }
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  experiment.run(4 * sim::kMsec, 8 * sim::kMsec);
  return ClusterOutcome{pc_rnl.p99(), 100 * misaligned};
}

std::array<std::array<double, 3>, 3> identity_matrix() {
  return {{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}};
}

struct ClusterParams {
  std::array<std::array<double, 3>, 3> matrix;
  double load;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 24 (+4/5)",
                      "Phase-1 QoS/priority realignment across a synthetic "
                      "fleet of 50 clusters");
  // Draw every cluster's misalignment parameters up front on the main
  // thread (one RNG, sequential) so the fleet is identical for any --jobs.
  sim::Rng fleet_rng(sim::derive_seed(args.sweep.base_seed, 100));
  std::vector<ClusterParams> fleet;
  for (int cluster = 0; cluster < 50; ++cluster) {
    // Per-cluster misalignment in the spirit of Figure 4: PC mostly on
    // QoS_h but leaking down; BE heavily upgraded; NC spread both ways.
    // Ranges chosen so some clusters are nearly aligned already (they see
    // little change, occasionally a small regression from measurement
    // noise — as in the paper's production data).
    const double pc_leak = fleet_rng.uniform(0.01, 0.30);
    const double be_upgrade = fleet_rng.uniform(0.05, 0.60);
    const double nc_spread = fleet_rng.uniform(0.02, 0.40);
    ClusterParams params;
    params.matrix = {{
        {1.0 - pc_leak, pc_leak * 0.85, pc_leak * 0.15},
        {nc_spread * 0.6, 1.0 - nc_spread, nc_spread * 0.4},
        {be_upgrade * 0.8, be_upgrade * 0.2, 1.0 - be_upgrade},
    }};
    params.load = fleet_rng.uniform(0.45, 0.80);
    fleet.push_back(params);
  }

  // Each point = one cluster, before AND after Phase 1 on the same seed.
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (const ClusterParams& params : fleet) {
    // Two traceable points per cluster: 2k = before, 2k+1 = after.
    sweep.submit([params, trace = args.trace,
                  point = (trace_point += 2) - 2](const runner::PointContext& ctx) {
      const ClusterOutcome before = run_cluster(
          ctx.seed, params.matrix, params.load, trace, point);
      const ClusterOutcome after = run_cluster(
          ctx.seed, identity_matrix(), params.load, trace, point + 1);
      runner::PointResult result;
      result.metrics["misaligned_pct"] = before.misaligned_pct;
      result.metrics["change_pct"] =
          before.pc_p99 > 0
              ? 100 * (after.pc_p99 - before.pc_p99) / before.pc_p99
              : 0.0;
      return result;
    });
  }
  const auto points = sweep.run();

  std::vector<double> changes;
  double total_misaligned = 0.0;
  for (const auto& point : points) {
    total_misaligned += point.metrics.at("misaligned_pct");
    changes.push_back(point.metrics.at("change_pct"));
  }
  std::sort(changes.begin(), changes.end());

  std::printf("fleet misalignment before Phase 1: %.1f%% of RPC traffic "
              "(after: 0%%)\n\n",
              total_misaligned / 50.0);
  std::printf("per-cluster PC p99 RNL change after Phase 1 "
              "(sorted, every 5th):\n");
  stats::Table table({{"rank", 10, 0}, {"change(%)", 12, 1}});
  for (std::size_t i = 0; i < changes.size(); i += 5) {
    table.add_row({static_cast<double>(i),
                   stats::Cell::signed_number(changes[i], 1)});
  }
  table.add_row({static_cast<double>(changes.size() - 1),
                 stats::Cell::signed_number(changes.back(), 1)});
  bench::emit(table, args);
  double mean = 0.0;
  int improved = 0;
  for (double c : changes) {
    mean += c;
    if (c < 0) ++improved;
  }
  std::printf("\nmean change %+.1f%%, best %+.1f%%, clusters improved "
              "%d/50\n",
              mean / 50.0, changes.front(), improved);
  bench::print_footer(args);
  return 0;
}
