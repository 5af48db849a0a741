// Ablation: per-destination admission state (the paper's design) vs a
// single global p_admit per QoS at each sender.
//
// Aequitas keeps p_admit per (src, dst, QoS) so overload toward one
// destination does not throttle traffic to uncongested destinations
// (§3.2: hosts locate the oversubscription point implicitly). This
// ablation creates a hotspot (everyone also sends to host 0) and compares:
// per-destination state should keep the non-hotspot QoS_h traffic admitted
// at ~full probability, while global state collaterally downgrades it.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench/bench_util.h"
#include "core/aequitas.h"

namespace {

using namespace aeq;

// AequitasController with a single state per QoS (destination-blind).
class GlobalStateController final : public rpc::AdmissionController {
 public:
  GlobalStateController(const core::AequitasConfig& config, sim::Rng rng)
      : inner_(config, rng) {}

  rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                               net::HostId /*dst*/,
                               net::QoSLevel qos_requested,
                               std::uint64_t bytes) override {
    return inner_.admit(now, src, /*dst=*/0, qos_requested, bytes);
  }
  void on_completion(sim::Time now, net::HostId src, net::HostId /*dst*/,
                     net::QoSLevel qos_requested, net::QoSLevel qos_run,
                     sim::Time rnl, std::uint64_t size_mtus) override {
    inner_.on_completion(now, src, /*dst=*/0, qos_requested, qos_run, rnl,
                         size_mtus);
  }

 private:
  core::AequitasController inner_;
};

runner::PointResult run(bool per_destination, std::uint64_t seed,
                        const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config;
  config.num_hosts = 9;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.seed = seed;
  const double size_mtus = 8.0;
  config.slo =
      rpc::SloConfig::make({20 * sim::kUsec / size_mtus, 0.0}, 99.9);
  if (per_destination) {
  } else {
    core::AequitasConfig aeq;
    aeq.slo = config.slo;
    config.admission.factory = [aeq](sim::Simulator&, net::HostId,
                                     sim::Rng rng) {
      return std::make_unique<GlobalStateController>(aeq, rng);
    };
  }
  runner::Experiment experiment(config);
  trace.apply(experiment, point);

  std::unordered_map<int, std::uint64_t> issued, downgraded;
  stats::PercentileTracker background_rnl;
  for (net::HostId h = 1; h < 9; ++h) {
    experiment.stack(h).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          if (r.priority != rpc::Priority::kPC ||
              r.issued < 10 * sim::kMsec) {
            return;
          }
          const int group = r.dst == 0 ? 0 : 1;  // hotspot vs background
          ++issued[group];
          if (r.downgraded) ++downgraded[group];
          if (group == 1 && r.qos_run == net::kQoSHigh) {
            background_rnl.add(r.rnl);
          }
        });
  }

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  for (net::HostId h = 1; h < 9; ++h) {
    // Hotspot: every host fires 0.35 load of PC at host 0 (2.8x overload
    // on its downlink)...
    workload::GeneratorConfig hot;
    hot.classes = {{rpc::Priority::kPC, 0.35 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(h, hot, workload::fixed_destination(0));
    // ...plus light PC traffic to the other (uncongested) hosts.
    workload::GeneratorConfig cold;
    cold.classes = {{rpc::Priority::kPC, 0.10 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(h, cold, [h](sim::Rng& rng) {
      auto dst = static_cast<net::HostId>(1 + rng.index(8));
      if (dst == h) dst = dst == 8 ? 1 : dst + 1;
      return dst;
    });
  }
  experiment.run(10 * sim::kMsec, 25 * sim::kMsec);

  return runner::PointResult::single(
      {per_destination ? "per (dst, QoS) [paper]" : "global per QoS",
       issued[0] ? 100.0 * downgraded[0] / issued[0] : 0.0,
       issued[1] ? 100.0 * downgraded[1] / issued[1] : 0.0,
       background_rnl.p999() / sim::kUsec});
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Ablation",
                      "Per-destination admission state vs a global "
                      "per-QoS p_admit (hotspot at host 0)");
  runner::SweepRunner sweep(args.sweep);
  int trace_point = 0;
  for (bool per_destination : {true, false}) {
    sweep.submit([per_destination, trace = args.trace,
                  point = trace_point++](const runner::PointContext& ctx) {
      return run(per_destination, ctx.seed, trace, point);
    });
  }
  stats::Table table({{"state granularity", 24},
                      {"hotspot downgraded(%)", 22, 1},
                      {"background downgraded(%)", 24, 1},
                      {"background p999(us)", 22, 1}});
  for (const auto& point : sweep.run()) table.add_rows(point.rows);
  bench::emit(table, args);
  std::printf("\nPer-destination state confines downgrades to the hotspot; "
              "global state collaterally downgrades traffic to idle "
              "destinations.\n");
  bench::print_footer(args);
  return 0;
}
