// Tests for the invariant-audit layer: AEQ_CHECK_* failure reporting, the
// Auditor registry, the check catalogue over real components, a
// deliberately broken queue double proving conservation violations are
// caught, and audited end-to-end runs across every discipline and both
// scheduler backends.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/checks.h"
#include "net/fifo_queue.h"
#include "net/pfabric_queue.h"
#include "net/port.h"
#include "net/queue.h"
#include "net/wfq.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "transport/dctcp.h"
#include "transport/swift.h"
#include "util/block_fifo.h"

namespace aeq {

namespace net {

// Reaches the head finish tag a WfqQueue caches per class, so a death test
// can leave it stale the way a dequeue that skipped the refresh would.
struct WfqQueueTestPeer {
  static double& head_finish(WfqQueue& queue, QoSLevel qos) {
    return queue.classes_[qos].head_finish;
  }
};

}  // namespace net

namespace {

net::Packet make_packet(std::uint32_t bytes, net::QoSLevel qos = 0,
                        std::uint64_t seq = 0) {
  net::Packet p;
  p.size_bytes = bytes;
  p.qos = qos;
  p.seq = seq;
  return p;
}

// --- AEQ_CHECK_* macros ---------------------------------------------------

TEST(CheckMacros, PassingComparisonsAreSilent) {
  AEQ_CHECK_EQ(2 + 2, 4);
  AEQ_CHECK_NE(1, 2);
  AEQ_CHECK_LE(1.0, 1.0);
  AEQ_CHECK_LT(1u, 2u);
  AEQ_CHECK_GE(5, 5);
  AEQ_CHECK_GT(0.2, 0.1);
  AEQ_CHECK_EQ_MSG(std::size_t{3}, 3u, "never printed");
}

TEST(CheckMacros, OperandsEvaluateExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  AEQ_CHECK_LE(next(), 10);
  EXPECT_EQ(calls, 1);
}

TEST(CheckMacrosDeathTest, FailureReportPrintsBothOperands) {
  const std::uint64_t lhs = 3, rhs = 5;
  EXPECT_DEATH(AEQ_CHECK_EQ(lhs, rhs), "lhs == rhs \\(3 vs 5\\)");
  const double x = 1.5;
  EXPECT_DEATH(AEQ_CHECK_GE_MSG(x, 2.0, "window too small"),
               "\\(1\\.5 vs 2\\).*window too small");
}

TEST(CheckMacrosDeathTest, CharSizedOperandsPrintAsNumbers) {
  const net::QoSLevel qos = 7;  // uint8_t: must print "7", not a glyph
  EXPECT_DEATH(AEQ_CHECK_LT(qos, net::QoSLevel{3}), "\\(7 vs 3\\)");
}

TEST(CheckMacrosDeathTest, FailureReportCarriesSimulatedTime) {
  sim::Simulator simulator;
  simulator.schedule_at(2.5, [] { AEQ_CHECK_EQ(1, 2); });
  EXPECT_DEATH(simulator.run(), "t=2\\.5s");
}

// --- Auditor registry -----------------------------------------------------

TEST(Auditor, RunAllEvaluatesEveryCheckInOrder) {
  audit::Auditor auditor;
  std::vector<int> order;
  auditor.add_check("a", "first", [&order] { order.push_back(1); });
  auditor.add_check("b", "second", [&order] { order.push_back(2); });
  EXPECT_EQ(auditor.num_checks(), 2u);
  auditor.run_all();
  auditor.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
  EXPECT_EQ(auditor.passes(), 2u);
}

TEST(Auditor, ReportCountsEvaluationsPerCheck) {
  audit::Auditor auditor;
  auditor.add_check("queue", "conservation", [] {});
  auditor.add_check("queue", "bounds", [] {});
  auditor.add_check("sim", "monotone", [] {});
  auditor.run_all();
  auditor.run_all();
  auditor.run_all();
  const audit::Report report = auditor.report();
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.total_evaluations, 9u);
  EXPECT_EQ(report.num_components(), 2u);
  for (const auto& entry : report.entries) EXPECT_EQ(entry.evaluations, 3u);
}

TEST(Auditor, ReportOrderIsSortedIndependentOfRegistration) {
  // Registration order is construction order and shifts under refactors;
  // the report contract (DESIGN.md §12) is explicit (component, name)
  // ordering so reports stay diffable.
  audit::Auditor auditor;
  auditor.add_check("zeta", "late", [] {});
  auditor.add_check("alpha", "second", [] {});
  auditor.add_check("queue", "conservation", [] {});
  auditor.add_check("alpha", "first", [] {});
  auditor.run_all();
  const audit::Report report = auditor.report();
  ASSERT_EQ(report.entries.size(), 4u);
  EXPECT_EQ(report.entries[0].component, "alpha");
  EXPECT_EQ(report.entries[0].name, "first");
  EXPECT_EQ(report.entries[1].component, "alpha");
  EXPECT_EQ(report.entries[1].name, "second");
  EXPECT_EQ(report.entries[2].component, "queue");
  EXPECT_EQ(report.entries[3].component, "zeta");
}

TEST(AuditorDeathTest, FailureNamesTheViolatedCheck) {
  audit::Auditor auditor;
  auditor.add_check("wfq", "tag-order", [] { AEQ_CHECK_LT(9, 1); });
  EXPECT_DEATH(auditor.run_all(), "audit check: wfq/tag-order");
}

// --- Broken-queue double: conservation violations are caught --------------

// Accepts (and counts) every packet but silently discards every third one
// instead of storing it — exactly the accounting bug the conservation
// invariant exists to catch.
class LeakyQueue final : public net::QueueDiscipline {
 public:
  bool enqueue(const net::Packet& packet) override {
    count_offered(packet);
    count_enqueued(packet);
    if (++arrivals_ % 3 == 0) return true;  // leaked: accepted, never stored
    stored_.push_back(packet);
    backlog_bytes_ += packet.size_bytes;
    return true;
  }
  std::optional<net::Packet> dequeue() override {
    if (stored_.empty()) return std::nullopt;
    net::Packet packet = stored_.front();
    stored_.erase(stored_.begin());
    backlog_bytes_ -= packet.size_bytes;
    count_dequeued(packet);
    return packet;
  }
  bool empty() const override { return stored_.empty(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  std::uint64_t backlog_packets() const override { return stored_.size(); }

 private:
  std::vector<net::Packet> stored_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t arrivals_ = 0;
};

TEST(AuditorDeathTest, LeakyQueueTripsConservation) {
  LeakyQueue queue;
  audit::Auditor auditor;
  audit::register_queue_checks(auditor, "leaky", queue);
  for (int i = 0; i < 6; ++i) queue.enqueue(make_packet(1000));
  EXPECT_DEATH(auditor.run_all(),
               "leaky/conservation-packets.*queue lost or invented packets");
}

// A block taken from a packet buffer outside any FIFO is exactly what a FIFO
// that forgets to give back a spent block leaves behind.
TEST(AuditorDeathTest, LeakedBufferBlockTripsBlockConservation) {
  struct Discard final : net::PacketSink {
    void receive(const net::Packet&) override {}
  } sink;
  sim::Simulator sim;
  util::BlockPool buffer;
  net::Port port(sim, buffer, sim::gbps(100), 1 * sim::kUsec,
                 std::make_unique<net::WfqQueue>(
                     buffer, std::vector<double>{4.0, 1.0}));
  port.connect(&sink);
  audit::Auditor auditor;
  audit::register_buffer_checks(auditor, "buffer0", buffer, {&port});
  for (std::uint64_t i = 0; i < 200; ++i) {
    port.send(make_packet(1500, static_cast<net::QoSLevel>(i % 2), i));
  }
  sim.run_until(5 * sim::kUsec);  // some packets in flight, most queued
  ASSERT_GT(port.in_flight_packets(), 0u);
  auditor.run_all();
  buffer.take();
  EXPECT_DEATH(auditor.run_all(),
               "buffer0/block-conservation.*packet buffer lost a block");
}

// A dequeue that left its class's cached head finish at the tag of the
// packet it just sent: the head is then one packet's tag stale, and the
// class keeps winning the next comparisons it should lose.
TEST(AuditorDeathTest, StaleWfqHeadFinishTripsTagCheck) {
  util::BlockPool buffer;
  net::WfqQueue wfq(buffer, {4.0, 1.0});
  audit::Auditor auditor;
  audit::register_queue_checks(auditor, "wfq0", wfq);
  for (std::uint64_t i = 0; i < 8; ++i) {
    wfq.enqueue(make_packet(1500, static_cast<net::QoSLevel>(i % 2), i));
  }
  ASSERT_EQ(wfq.dequeue()->qos, 0);
  auditor.run_all();
  net::WfqQueueTestPeer::head_finish(wfq, 0) -= 1500 / 4.0;
  EXPECT_DEATH(auditor.run_all(),
               "wfq0/wfq-tag-order.*cached head finish does not match");
}

// --- Catalogue over real components ---------------------------------------

TEST(Checks, WellBehavedQueuesPassConservation) {
  util::BlockPool buffer;
  net::FifoQueue fifo(buffer, 64 * 1024);
  net::WfqQueue wfq(buffer, {4.0, 1.0}, 64 * 1024);
  net::PfabricQueue pfabric(16 * 1024);

  audit::Auditor auditor;
  audit::register_queue_checks(auditor, "fifo", fifo);
  audit::register_queue_checks(auditor, "wfq", wfq);
  audit::register_queue_checks(auditor, "pfabric", pfabric);
  // WFQ tag checks were attached automatically by the dynamic type probe.
  EXPECT_GT(auditor.num_checks(), 9u);

  std::uint64_t pfabric_rejected = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto qos = static_cast<net::QoSLevel>(i % 2);
    fifo.enqueue(make_packet(1500, qos, i));
    wfq.enqueue(make_packet(1500, qos, i));
    net::Packet p = make_packet(1500, qos, i);
    // Varied remaining size: a full queue evicts its least urgent resident,
    // or rejects the newcomer when that is the least urgent packet.
    p.priority = static_cast<double>((i % 7 + 1) * 1500);
    if (!pfabric.enqueue(p)) ++pfabric_rejected;
    auditor.run_all();
    if (i % 3 == 0) {
      fifo.dequeue();
      wfq.dequeue();
      pfabric.dequeue();
      auditor.run_all();
    }
  }
  EXPECT_GT(fifo.stats().dropped_packets, 0u);  // tail drops happened
  EXPECT_GT(pfabric_rejected, 0u);              // newcomers rejected
  // Drops beyond the rejections are evicted residents.
  EXPECT_GT(pfabric.stats().dropped_packets, pfabric_rejected);
  EXPECT_GT(auditor.report().total_evaluations, 0u);
}

TEST(Checks, CongestionControlInvariantsPass) {
  const transport::SwiftConfig swift_config;
  const transport::DctcpConfig dctcp_config;
  transport::SwiftCC swift{swift_config};
  transport::DctcpCC dctcp{dctcp_config};
  for (int i = 0; i < 50; ++i) {
    swift.on_ack(i * 1e-5, 8 * sim::kUsec, 1.0, false);
    dctcp.on_ack(i * 1e-5, 8 * sim::kUsec, 1.0, i % 4 == 0);
    swift.audit_invariants();
    dctcp.audit_invariants();
  }
  swift.on_loss(1.0);
  dctcp.on_loss(1.0);
  swift.on_idle_restart();
  dctcp.on_idle_restart();
  swift.audit_invariants();
  dctcp.audit_invariants();
}

// --- Audited end-to-end runs ----------------------------------------------

runner::ExperimentConfig audited_config(net::SchedulerType scheduler,
                                        sim::SchedulerBackend backend) {
  runner::ExperimentConfig config;
  config.num_hosts = 3;
  config.num_qos = 2;
  config.wfq_weights = {4.0, 1.0};
  config.scheduler = scheduler;
  config.scheduler_backend = backend;
  config.buffer_bytes = 256 * 1024;  // small enough to exercise drops
  config.slo = rpc::SloConfig::make({15.0 / 8 * sim::kUsec, 0.0}, 99.9);
  config.audit = true;
  config.audit_interval = 100 * sim::kUsec;
  return config;
}

void run_audited(runner::Experiment& experiment) {
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.6 * sim::gbps(100), sizes, 0.0},
                 {rpc::Priority::kBE, 0.5 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.add_generator(1, gen, workload::fixed_destination(2));
  experiment.run(0.0, 3 * sim::kMsec);
}

TEST(AuditedRuns, EveryDisciplineOnBothBackendsRunsClean) {
  const net::SchedulerType disciplines[] = {
      net::SchedulerType::kFifo, net::SchedulerType::kWfq,
      net::SchedulerType::kDwrr, net::SchedulerType::kSpq,
      net::SchedulerType::kPfabric};
  const sim::SchedulerBackend backends[] = {sim::SchedulerBackend::kHeap,
                                            sim::SchedulerBackend::kCalendar};
  for (const auto scheduler : disciplines) {
    for (const auto backend : backends) {
      SCOPED_TRACE(static_cast<int>(scheduler));
      runner::Experiment experiment(audited_config(scheduler, backend));
      ASSERT_NE(experiment.auditor(), nullptr);
      run_audited(experiment);
      // Reaching here means zero violations (a violation aborts). The
      // registry must actually have swept: periodic passes plus the final
      // post-drain pass.
      EXPECT_GT(experiment.auditor()->passes(), 10u);
      EXPECT_GT(experiment.auditor()->report().total_evaluations, 0u);
      // The packet buffer's block conservation was evaluated every pass.
      bool buffer_checked = false;
      for (const auto& entry : experiment.auditor()->report().entries) {
        if (entry.component == "buffer0" &&
            entry.name == "block-conservation") {
          buffer_checked =
              entry.evaluations == experiment.auditor()->passes();
        }
      }
      EXPECT_TRUE(buffer_checked);
    }
  }
}

TEST(AuditedRuns, AuditOffLeavesNoRegistry) {
  auto config = audited_config(net::SchedulerType::kWfq,
                               sim::SchedulerBackend::kCalendar);
  config.audit = false;
  runner::Experiment experiment(config);
  EXPECT_EQ(experiment.auditor(), nullptr);
}

TEST(AuditedRuns, RuntimeDefaultTracksBuildFlag) {
  const runner::ExperimentConfig config;
  EXPECT_EQ(config.audit, audit::kBuildEnabled);
}

}  // namespace
}  // namespace aeq
