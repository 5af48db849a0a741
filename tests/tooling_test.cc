// Tests for the tooling layers added around the core reproduction: CSV
// export, log-scale histograms, RPC trace parsing and replay, the CLI flag
// parser, and DCTCP with ECN marking.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/fifo_queue.h"
#include "runner/experiment.h"
#include "stats/export.h"
#include "stats/log_histogram.h"
#include "tools/flags.h"
#include "transport/dctcp.h"
#include "workload/trace.h"

namespace aeq {
namespace {

TEST(ExportTest, QuantilesCsvHasRequestedRows) {
  stats::PercentileTracker tracker;
  for (int i = 1; i <= 100; ++i) tracker.add(i);
  std::ostringstream out;
  stats::write_quantiles_csv(out, tracker, {50.0, 99.0});
  EXPECT_EQ(out.str(), "percentile,value\n50,50\n99,99\n");
}

TEST(LogHistogramTest, PercentileWithinRelativeError) {
  stats::LogHistogram histogram(1.0, 1e6, 0.01);
  sim::Rng rng(4);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = std::exp(rng.uniform(0.0, 13.0));  // log-uniform
    values.push_back(v);
    histogram.add(v);
  }
  std::sort(values.begin(), values.end());
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double exact =
        values[static_cast<std::size_t>(pct / 100 * (values.size() - 1))];
    EXPECT_NEAR(histogram.percentile(pct) / exact, 1.0, 0.03)
        << "pct " << pct;
  }
}

TEST(LogHistogramTest, ClampsOutOfRangeSamples) {
  stats::LogHistogram histogram(1.0, 1000.0);
  histogram.add(0.5);     // clamps to 1
  histogram.add(5000.0);  // clamps to 1000
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_LE(histogram.percentile(50.0), 1.0 * 1.03);
  EXPECT_LE(histogram.percentile(100.0), 1000.0 * 1.03);
}

TEST(TraceTest, ParseWriteRoundTrip) {
  std::vector<workload::TraceRecord> records = {
      {0.001, 0, 1, rpc::Priority::kPC, 32768, 0.0},
      {0.002, 1, 2, rpc::Priority::kBE, 1048576, 0.0005},
  };
  // The same two records in the trace CSV format, header included.
  std::istringstream in(
      "time,src,dst,priority,bytes,deadline\n"
      "0.001,0,1,PC,32768,0\n"
      "0.002,1,2,BE,1048576,0.0005\n");
  const auto parsed = workload::parse_trace_csv(in);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0], records[0]);
  EXPECT_EQ(parsed.records[1], records[1]);
}

TEST(TraceTest, RejectsMalformedLines) {
  std::istringstream in(
      "time,src,dst,priority,bytes\n"
      "0.1,0,1,PC,1000\n"
      "garbage\n"
      "0.2,0,0,PC,1000\n"     // src == dst
      "0.3,0,1,WAT,1000\n"    // bad priority
      "# comment\n"
      "0.4,1,0,nc,4096\n");
  const auto parsed = workload::parse_trace_csv(in);
  EXPECT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.errors.size(), 3u);
  EXPECT_EQ(parsed.records[1].priority, rpc::Priority::kNC);
}

TEST(TraceTest, ReplayIssuesThroughStacks) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 3;
  config.admission.kind = policy::kAlwaysAdmit;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  std::vector<workload::TraceRecord> records = {
      {1 * sim::kUsec, 0, 1, rpc::Priority::kPC, 4096, 0.0},
      {2 * sim::kUsec, 1, 2, rpc::Priority::kBE, 8192, 0.0},
      {3 * sim::kUsec, 9, 1, rpc::Priority::kPC, 4096, 0.0},  // bad src
  };
  std::vector<rpc::RpcStack*> stacks;
  for (net::HostId h = 0; h < 3; ++h) stacks.push_back(&experiment.stack(h));
  const auto stats = workload::replay_trace(experiment.simulator(), records,
                                            stacks);
  EXPECT_EQ(stats.scheduled, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  experiment.simulator().run();
  EXPECT_EQ(experiment.metrics().total_completed(), 2u);
}

TEST(FlagsTest, ParsesFormsAndTypes) {
  const char* argv[] = {"prog",          "--hosts=12",
                        "--load",        "0.5",
                        "--aequitas=off", "--mix=0.5,0.3,0.2",
                        "--only=D3,PDQ", "--controller=abc",
                        "--verbose"};
  tools::Flags flags;
  ASSERT_TRUE(flags.parse(9, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("hosts", 0), 12);
  EXPECT_DOUBLE_EQ(flags.get_double("load", 0), 0.5);
  EXPECT_FALSE(flags.get_bool("aequitas", true));
  EXPECT_TRUE(flags.get_bool("verbose", false));
  const auto mix = flags.get_list("mix", {});
  ASSERT_EQ(mix.size(), 3u);
  EXPECT_DOUBLE_EQ(mix[1], 0.3);
  EXPECT_EQ(flags.get_names("only"), (std::vector<std::string>{"D3", "PDQ"}));
  EXPECT_EQ(flags.get_names("controller"), std::vector<std::string>{"abc"});
  EXPECT_TRUE(flags.get_names("missing").empty());
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_TRUE(flags.unused().empty());
  EXPECT_EQ(flags.problem(), "");
}

TEST(FlagsTest, ReportsUnusedAndErrors) {
  const char* argv[] = {"prog", "--typo=1"};
  tools::Flags flags;
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.unused().size(), 1u);
  const char* bad[] = {"prog", "nodashes"};
  tools::Flags broken;
  EXPECT_FALSE(broken.parse(2, const_cast<char**>(bad)));
  EXPECT_FALSE(broken.error().empty());
}

TEST(FlagsTest, MalformedValueIsAProblemNotItsPrefixOrDefault) {
  const char* argv[] = {"prog",           "--hosts=12x",   "--seed=1e3junk",
                        "--load=0.5.1",   "--mix=0.5,x",   "--aequitas=maybe",
                        "--jobs=4",       "--rate=1e3",    "--loads=abc",
                        "--slo=0.5x",     "--weights=",    "--shares=0.5,",
                        "--only=D3,,PDQ", "--kinds=",      "--controller"};
  tools::Flags flags;
  ASSERT_TRUE(flags.parse(15, const_cast<char**>(argv)));
  // A value is only known to be malformed once a getter asks for a type.
  EXPECT_EQ(flags.problem(), "unknown flag --aequitas");
  EXPECT_EQ(flags.get_int("hosts", 144), 144);
  EXPECT_EQ(flags.get_int("seed", 1), 1);
  EXPECT_DOUBLE_EQ(flags.get_double("load", 0.8), 0.8);
  EXPECT_EQ(flags.get_list("mix", {1.0}), std::vector<double>{1.0});
  for (const char* list : {"loads", "slo", "weights", "shares"}) {
    EXPECT_EQ(flags.get_list(list, {1.0}), std::vector<double>{1.0}) << list;
  }
  // A name list needs a name in every item, and a value.
  for (const char* names : {"only", "kinds", "controller"}) {
    EXPECT_TRUE(flags.get_names(names).empty()) << names;
  }
  EXPECT_TRUE(flags.get_bool("aequitas", true));
  EXPECT_EQ(flags.get_int("jobs", 0), 4);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0), 1000.0);
  // Reported by name and value, first by name.
  EXPECT_EQ(flags.problem(), "malformed value for --aequitas: \"maybe\"");
  EXPECT_TRUE(flags.unused().empty());

  const char* typo[] = {"prog", "--hosts=12", "--bogus=1"};
  tools::Flags unknown;
  ASSERT_TRUE(unknown.parse(3, const_cast<char**>(typo)));
  EXPECT_EQ(unknown.get_int("hosts", 0), 12);
  EXPECT_EQ(unknown.problem(), "unknown flag --bogus");
}

TEST(FlagsTest, BarePathFlagIsAMissingValueNotAFileNamedTrue) {
  const char* argv[] = {"prog", "--prof", "--trace=run.json", "--watchdog",
                        "--csv", "out.csv"};
  tools::Flags flags;
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_path("prof"), "");
  EXPECT_EQ(flags.get_path("trace"), "run.json");
  EXPECT_EQ(flags.get_path("csv"), "out.csv");
  EXPECT_EQ(flags.get_path("timeseries"), "");  // absent: no problem
  // A flag that may stand bare still reads as the boolean "true".
  EXPECT_EQ(flags.get("watchdog"), "true");
  EXPECT_EQ(flags.problem(), "missing value for --prof");

  // `--prof=true` is a file the user named, and a later value replaces an
  // earlier bare flag.
  const char* named[] = {"prog", "--prof=true", "--trace", "--trace=t.json"};
  tools::Flags explicit_flags;
  ASSERT_TRUE(explicit_flags.parse(4, const_cast<char**>(named)));
  EXPECT_EQ(explicit_flags.get_path("prof"), "true");
  EXPECT_EQ(explicit_flags.get_path("trace"), "t.json");
  EXPECT_EQ(explicit_flags.problem(), "");
}

TEST(DctcpTest, CutProportionalToMarkedFraction) {
  transport::DctcpConfig config;
  config.initial_cwnd = 100.0;
  config.max_cwnd = 100.0;
  transport::DctcpCC cc(config);
  // One full window, all marked: alpha rises toward g, cut by alpha/2.
  for (int i = 0; i < 100; ++i) {
    cc.on_ack(i * 1e-6, 10e-6, 1.0, true);
  }
  EXPECT_GT(cc.alpha(), 0.0);
  EXPECT_LT(cc.cwnd_packets(), 100.0);
  // Unmarked traffic: grows again.
  const double low = cc.cwnd_packets();
  for (int i = 0; i < 200; ++i) {
    cc.on_ack(1e-3 + i * 1e-6, 10e-6, 1.0, false);
  }
  EXPECT_GT(cc.cwnd_packets(), low);
}

TEST(DctcpTest, AlphaDecaysWithoutMarks) {
  transport::DctcpConfig config;
  transport::DctcpCC cc(config);
  for (int i = 0; i < 64; ++i) cc.on_ack(i * 1e-6, 10e-6, 1.0, true);
  const double alpha_high = cc.alpha();
  for (int i = 0; i < 2000; ++i) {
    cc.on_ack(1e-3 + i * 1e-6, 10e-6, 1.0, false);
  }
  EXPECT_LT(cc.alpha(), alpha_high);
}

TEST(EcnTest, QueueMarksPastThreshold) {
  util::BlockPool buffer;
  net::FifoQueue queue(buffer);
  queue.set_ecn_threshold(3000);
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.enqueue(p));
  // Backlog after first dequeue is 4000 >= 3000: marked.
  auto first = queue.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ecn_ce);
  queue.dequeue();
  queue.dequeue();
  // Backlog now 1000 < 3000: unmarked.
  auto last = queue.dequeue();
  ASSERT_TRUE(last.has_value());
  EXPECT_FALSE(last->ecn_ce);
}

TEST(EcnTest, DctcpExperimentRunsEndToEnd) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.cc_kind = runner::ExperimentConfig::CcKind::kDctcp;
  config.slo = rpc::SloConfig::make({25.0 / 8 * sim::kUsec, 0.0}, 99.9);
  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.6 * sim::gbps(100), sizes, 0.0},
                 {rpc::Priority::kBE, 0.4 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.add_generator(1, gen, workload::fixed_destination(2));
  experiment.run(5 * sim::kMsec, 10 * sim::kMsec);
  EXPECT_GT(experiment.metrics().total_completed(), 1000u);
  // Admission still keeps the high class within sane bounds over DCTCP.
  EXPECT_LT(experiment.metrics().rnl_by_run_qos(0).p999(),
            6 * 25 * sim::kUsec);
}

}  // namespace
}  // namespace aeq
