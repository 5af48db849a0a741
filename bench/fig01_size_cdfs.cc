// Figure 1: RPC size CDFs per priority class for READs (response payload)
// and WRITEs (request payload). We print the synthetic production-shaped
// distributions the workload module ships (see DESIGN.md substitutions):
// PC small-biased with a genuine large tail, NC mid, BE bulk — the
// size/priority misalignment that breaks SJF-style scheduling (§2.1).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "workload/size_dist.h"

namespace {

using namespace aeq;

// One panel (READ or WRITE) computed on a worker: quantile rows + means.
runner::PointResult sample_panel(bool write) {
  auto pc = workload::production_size_dist(rpc::Priority::kPC, write);
  auto nc = workload::production_size_dist(rpc::Priority::kNC, write);
  auto be = workload::production_size_dist(rpc::Priority::kBE, write);
  // Empirical quantiles from a large deterministic sample.
  const int n = 200000;
  auto quantiles = [&](workload::SizeDistribution& dist) {
    std::vector<double> samples;
    samples.reserve(n);
    sim::Rng rng(7);
    for (int i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>(dist.sample(rng)));
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  const auto s_pc = quantiles(*pc);
  const auto s_nc = quantiles(*nc);
  const auto s_be = quantiles(*be);
  runner::PointResult result;
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const auto i = static_cast<std::size_t>(q * (n - 1));
    result.rows.push_back({stats::Cell(q, 3), s_pc[i] / 1024.0,
                           s_nc[i] / 1024.0, s_be[i] / 1024.0});
  }
  result.metrics["mean_pc"] = pc->mean_bytes() / 1024.0;
  result.metrics["mean_nc"] = nc->mean_bytes() / 1024.0;
  result.metrics["mean_be"] = be->mean_bytes() / 1024.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::reject_unknown_flags(args);
  bench::print_header("Figure 1",
                      "Synthetic production RPC size distributions "
                      "per priority class");
  runner::SweepRunner sweep(args.sweep);
  for (bool write : {false, true}) {
    sweep.submit(
        [write](const runner::PointContext&) { return sample_panel(write); });
  }
  const auto panels = sweep.run();
  for (std::size_t p = 0; p < panels.size(); ++p) {
    std::printf("\n%s RPC sizes (KB at CDF quantiles):\n",
                p == 1 ? "WRITE" : "READ");
    stats::Table table({{"quantile", 10, 3},
                        {"PC", 10, 1},
                        {"NC", 10, 1},
                        {"BE", 10, 1}});
    table.add_rows(panels[p].rows);
    bench::emit(table, args);
    std::printf("mean (KB): PC %.1f, NC %.1f, BE %.1f\n",
                panels[p].metrics.at("mean_pc"),
                panels[p].metrics.at("mean_nc"),
                panels[p].metrics.at("mean_be"));
  }
  std::printf("\nNote: PC's p99.9 is far above its median — large "
              "performance-critical RPCs exist, so size != priority.\n");
  bench::print_footer(args);
  return 0;
}
