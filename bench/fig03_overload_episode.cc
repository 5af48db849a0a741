// Figures 2/3: a congestion episode. Background all-to-all traffic runs at
// moderate load; between 10ms and 30ms a set of aggressor applications
// surges toward three victim hosts, pushing their downlinks far beyond
// capacity — and, as in production pre-Aequitas (§2.3's race to the top),
// the surge marks its bulk 96KB RPCs *performance critical*, sharing QoS_h
// channels with everyone's small interactive PC RPCs.
//
// Without admission control (the paper's Figure 3 world) the PC tail blows
// up with the load and stays elevated for the whole surge. With Aequitas,
// the aggressor channels' admit probability collapses, their excess runs on
// the scavenger class, and the *admitted* QoS_h traffic keeps a flat tail
// through the incident; the downgrade fraction makes the enforcement
// visible.
#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "stats/percentile.h"

namespace {

using namespace aeq;

struct Timeline {
  // Per-millisecond buckets over small (32KB, interactive) PC RPCs.
  std::map<int, stats::PercentileTracker> pc_all;       // any wire class
  std::map<int, stats::PercentileTracker> pc_admitted;  // ran on QoS_h
  std::map<int, int> pc_count;
  std::map<int, int> pc_downgraded;
  std::map<int, double> offered_bytes;
};

Timeline run(bool with_aequitas, std::uint64_t seed,
             const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 12;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.seed = seed;
  config.slo = rpc::SloConfig::make(
      {25.0 / 8 * sim::kUsec, 50.0 / 8 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));

  auto timeline = std::make_unique<Timeline>();
  Timeline& t = *timeline;
  for (std::size_t h = 0; h < 12; ++h) {
    experiment.stack(static_cast<net::HostId>(h))
        .set_completion_listener([&t](const rpc::RpcRecord& r) {
          const int bucket = static_cast<int>(r.completed / sim::kMsec);
          t.offered_bytes[bucket] += static_cast<double>(r.bytes);
          if (r.priority == rpc::Priority::kPC &&
              r.bytes == 32 * sim::kKiB) {
            t.pc_all[bucket].add(r.rnl);
            ++t.pc_count[bucket];
            if (r.downgraded) ++t.pc_downgraded[bucket];
            if (r.qos_run == net::kQoSHigh) t.pc_admitted[bucket].add(r.rnl);
          }
        });
  }

  // Background: every host at 0.35 load, mix 40/30/30.
  for (std::size_t h = 0; h < 12; ++h) {
    workload::GeneratorConfig gen;
    const double rate = 0.35 * sim::gbps(100);
    gen.classes = {{rpc::Priority::kPC, 0.4 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.3 * rate, sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  // Surge: hosts 3..11 each add 0.9 load of 96KB bulk RPCs *marked PC*
  // (they share the same QoS_h channels as the 32KB interactive PC RPCs)
  // aimed at hosts 0-2, during [10ms, 30ms).
  const auto* bulk = experiment.own(
      std::make_unique<workload::FixedSize>(96 * sim::kKiB));
  for (std::size_t h = 3; h < 12; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.9 * sim::gbps(100), bulk, 0.0}};
    gen.window_start = 10 * sim::kMsec;
    gen.window_stop = 30 * sim::kMsec;
    const auto victim = static_cast<net::HostId>(h % 3);
    experiment.add_generator(static_cast<net::HostId>(h), gen,
                             workload::fixed_destination(victim));
  }
  experiment.run(0.0, 45 * sim::kMsec);
  return std::move(t);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 3",
                      "Congestion episode: PC-marked bulk surge (10-30ms) "
                      "into 3 victims; interactive-PC tail over time");
  // Both variants replay the same workload (same seed), so the baseline
  // and Aequitas columns line up bucket for bucket.
  const std::uint64_t seed = sim::derive_seed(args.sweep.base_seed, 0);
  auto timelines = runner::parallel_points(
      2, args.sweep.jobs, [seed, &args](std::size_t index) {
        return run(index == 1, seed, args.trace,
                   static_cast<int>(index));
      });
  Timeline& base = timelines[0];
  Timeline& aeq = timelines[1];

  stats::Table table({{"t(ms)", 8, 0},
                      {"load(norm)", 12, 2},
                      {"PC p99 w/o AEQ(us)", 18, 1},
                      {"admitted-PC p99 w/(us)", 20, 1},
                      {"downgraded(%)", 14, 1}});
  const double base_load = 0.35 * sim::gbps(100) * 12 * sim::kMsec;
  for (int ms = 2; ms < 44; ms += 2) {
    const double load = base.offered_bytes.count(ms)
                            ? base.offered_bytes[ms] / base_load
                            : 0.0;
    const double p99_base =
        base.pc_all.count(ms) ? base.pc_all[ms].p99() / sim::kUsec : 0.0;
    const double p99_adm = aeq.pc_admitted.count(ms)
                               ? aeq.pc_admitted[ms].p99() / sim::kUsec
                               : 0.0;
    const double downgraded =
        aeq.pc_count.count(ms) && aeq.pc_count[ms] > 0
            ? 100.0 * aeq.pc_downgraded[ms] / aeq.pc_count[ms]
            : 0.0;
    table.add_row({static_cast<double>(ms), load, p99_base, p99_adm,
                   downgraded});
  }
  bench::emit(table, args);
  std::printf("\nWithout admission control the shared QoS_h channels queue "
              "behind the surge; with Aequitas the admitted PC tail stays "
              "flat and the surge (plus excess PC) is downgraded.\n");
  bench::print_footer(args);
  return 0;
}
