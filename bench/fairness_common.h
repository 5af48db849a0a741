// Shared harness for the fairness experiments (Figures 17/18 and the
// Appendix-C sensitivity study): two RPC channels on different hosts send
// 32KB RPCs at line rate to one server, with different fractions requested
// on QoS_h; we trace each channel's admit probability and admitted-QoS_h
// throughput over time.
#pragma once

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "stats/timeseries.h"

namespace aeq::bench {

struct FairnessResult {
  stats::TimeSeries p_admit[2];
  stats::RateMeter throughput[2] = {stats::RateMeter(10 * sim::kMsec),
                                    stats::RateMeter(10 * sim::kMsec)};
  stats::PercentileTracker p_admit_samples[2];
  double steady_throughput_gbps[2] = {0.0, 0.0};
  double steady_p_admit[2] = {0.0, 0.0};
};

struct FairnessSpec {
  double qosh_fraction_a = 0.8;  // channel A's requested QoS_h share
  double qosh_fraction_b = 0.4;  // channel B's
  double slo_us = 15.0;
  double alpha = 0.01;
  double beta_per_mtu = 0.01;
  sim::Time duration = 600 * sim::kMsec;
  std::uint64_t seed = 1;  // callers pass the sweep point's derived seed
  TraceRequest trace;      // forwarded from --trace/--trace-csv
  int trace_point = 0;     // this run's index for TraceRequest::apply
};

// Self-contained: safe to call from a SweepRunner / parallel_points worker
// (the result is plain data; all callbacks stop before it returns).
inline FairnessResult run_fairness(const FairnessSpec& spec) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.admission.aequitas.alpha = spec.alpha;
  config.admission.aequitas.beta_per_mtu = spec.beta_per_mtu;
  config.seed = spec.seed;
  const double size_mtus = 8.0;
  config.slo = rpc::SloConfig::make(
      {spec.slo_us * sim::kUsec / size_mtus, 0.0}, 99.9);
  runner::Experiment experiment(config);
  spec.trace.apply(experiment, spec.trace_point);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  const double fractions[2] = {spec.qosh_fraction_a, spec.qosh_fraction_b};
  for (net::HostId channel : {0, 1}) {
    workload::GeneratorConfig gen;
    const double f = fractions[channel];
    gen.classes = {
        {rpc::Priority::kPC, f * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, (1.0 - f) * sim::gbps(100), sizes, 0.0},
    };
    experiment.add_generator(channel, gen, workload::fixed_destination(2));
  }

  FairnessResult r;  // captured by reference; callbacks stop before return
  for (net::HostId channel : {0, 1}) {
    experiment.stack(channel).set_completion_listener(
        [&r, channel](const rpc::RpcRecord& record) {
          if (record.qos_run == net::kQoSHigh && !record.terminated) {
            r.throughput[channel].add(record.completed,
                                      static_cast<double>(record.bytes));
          }
        });
  }
  experiment.sample_every(1 * sim::kMsec, [&](sim::Time t) {
    for (net::HostId channel : {0, 1}) {
      const double p =
          experiment.aequitas(channel)->p_admit(2, net::kQoSHigh);
      r.p_admit[channel].record(t, p);
      if (t > spec.duration / 3) r.p_admit_samples[channel].add(p);
    }
  });

  experiment.run(0.0, spec.duration);

  const sim::Time steady_start = 2.0 * spec.duration / 3.0;
  for (net::HostId channel : {0, 1}) {
    r.throughput[channel].finish(spec.duration);
    r.steady_throughput_gbps[channel] =
        r.throughput[channel].series().average_in(steady_start,
                                                  spec.duration) *
        8.0 / 1e9;
    r.steady_p_admit[channel] =
        r.p_admit[channel].average_in(steady_start, spec.duration);
  }
  return r;
}

inline stats::Table fairness_timeline_table(const FairnessResult& r,
                                            std::size_t rows) {
  stats::Table table({{"t(ms)", 10, 0},
                      {"p_admit A", 12, 3},
                      {"p_admit B", 12, 3},
                      {"thput A(Gbps)", 14, 1},
                      {"thput B(Gbps)", 14, 1}});
  const auto pa = r.p_admit[0].resample(rows);
  const auto pb = r.p_admit[1].resample(rows);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const sim::Time t = pa[i].t;
    table.add_row({t / sim::kMsec, pa[i].value, pb[i].value,
                   r.throughput[0].series().value_at(t) * 8.0 / 1e9,
                   r.throughput[1].series().value_at(t) * 8.0 / 1e9});
  }
  return table;
}

}  // namespace aeq::bench
