// Incident-response scenario (paper Figure 3): a production-style overload
// episode where background analytics traffic surges to several times the
// provisioned capacity of a few victim hosts, and the operator wants the
// performance-critical class to ride through it.
//
// The example runs the same episode twice — without and with Aequitas —
// and prints a timeline of the PC class's p99 RNL.
//
// Build & run:  ./build/examples/overload_episode
#include <cstdio>
#include <map>
#include <memory>

#include "runner/experiment.h"
#include "stats/percentile.h"

namespace {

using namespace aeq;

std::map<int, stats::PercentileTracker> run_episode(bool with_aequitas) {
  runner::ExperimentConfig config;
  config.num_hosts = 10;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.admission.kind =
      with_aequitas ? policy::kAequitas : policy::kAlwaysAdmit;
  config.slo = rpc::SloConfig::make(
      {3 * sim::kUsec, 8 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));

  std::map<int, stats::PercentileTracker> pc_timeline;
  for (net::HostId h = 0; h < 10; ++h) {
    experiment.stack(h).set_completion_listener(
        [&pc_timeline](const rpc::RpcRecord& r) {
          if (r.priority == rpc::Priority::kPC) {
            pc_timeline[static_cast<int>(r.completed / sim::kMsec)].add(
                r.rnl);
          }
        });
  }

  // Steady state: light mixed load everywhere.
  for (net::HostId h = 0; h < 10; ++h) {
    workload::GeneratorConfig gen;
    const double rate = 0.30 * sim::gbps(100);
    gen.classes = {{rpc::Priority::kPC, 0.4 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.3 * rate, sizes, 0.0}};
    experiment.add_generator(h, gen);
  }
  // The incident: hosts 2..9 dump BE traffic on hosts 0 and 1 from 8ms on.
  for (net::HostId h = 2; h < 10; ++h) {
    workload::GeneratorConfig gen;
    gen.window_start = 8 * sim::kMsec;
    gen.window_stop = 28 * sim::kMsec;
    gen.classes = {{rpc::Priority::kBE, 0.9 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(
        h, gen, workload::fixed_destination(h % 2));
  }
  experiment.run(0.0, 36 * sim::kMsec);
  return pc_timeline;
}

}  // namespace

int main() {
  std::printf("Overload episode: BE surge into 2 victims during "
              "[8ms, 28ms)\n\n");
  auto base = run_episode(false);
  auto with_aeq = run_episode(true);
  std::printf("%-8s %-22s %-22s\n", "t(ms)", "PC p99 w/o Aequitas(us)",
              "PC p99 w/ Aequitas(us)");
  for (int ms = 2; ms <= 34; ms += 2) {
    std::printf("%-8d %-22.1f %-22.1f\n", ms,
                base.count(ms) ? base[ms].p99() / aeq::sim::kUsec : 0.0,
                with_aeq.count(ms) ? with_aeq[ms].p99() / aeq::sim::kUsec
                                   : 0.0);
  }
  std::printf("\nAequitas downgrades the surge (and excess PC) so admitted "
              "PC traffic keeps its tail through the incident.\n");
  return 0;
}
