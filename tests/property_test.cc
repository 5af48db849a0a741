// Property-based suites tying the layers together:
//  * model-based event-store check (both backends) against a reference
//    priority list,
//  * model-based WFQ check against a reference that keeps both tags,
//  * packet-level WFQ worst-case delay vs the closed-form bound across a
//    (phi, rho, share) grid — the Figure-10 validation as a test,
//  * fluid-model invariants (single class, symmetric classes),
//  * Swift idle-restart and pacing behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "analysis/fluid.h"
#include "analysis/wfq_delay.h"
#include "net/port.h"
#include "net/wfq.h"
#include "sim/scheduler.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/swift.h"

namespace aeq {
namespace {

// The event store over either backend against a reference priority list.
// Times are drawn anywhere in [0, 100): the store, unlike Simulator, takes
// events below the last popped time too, and must still pop the minimum.
TEST(EventQueueModelTest, MatchesReferenceOrderUnderRandomOps) {
  for (const auto backend :
       {sim::SchedulerBackend::kHeap, sim::SchedulerBackend::kCalendar}) {
    SCOPED_TRACE(sim::backend_name(backend));
    sim::EventStore queue(sim::make_scheduler(backend));
    sim::Rng rng(99);
    struct Ref {
      double t;
      std::uint64_t seq;
      int id;
    };
    std::vector<Ref> reference;
    std::vector<sim::EventId> ids;
    std::vector<int> fired;
    std::uint64_t seq = 0;
    int next_id = 0;

    for (int round = 0; round < 2000; ++round) {
      const double action = rng.uniform();
      if (action < 0.55 || queue.size() == 0) {
        const double t = rng.uniform(0.0, 100.0);
        const int id = next_id++;
        ids.push_back(queue.schedule(
            t, [&fired, id] { fired.push_back(id); }, sim::kTieRankDefault));
        reference.push_back(Ref{t, seq++, id});
      } else if (action < 0.7 && !ids.empty()) {
        // Cancel a random still-known event (may already have fired).
        const std::size_t pick = rng.index(ids.size());
        if (queue.cancel(ids[pick])) {
          // Remove from the reference model by matching insertion order:
          // the id at position `pick` corresponds to reference entry with
          // id == pick only if never fired; search by id.
          auto it = std::find_if(
              reference.begin(), reference.end(),
              [&](const Ref& r) { return r.id == static_cast<int>(pick); });
          ASSERT_NE(it, reference.end());
          reference.erase(it);
        }
      } else {
        ASSERT_NE(queue.head(), sim::kNoSlot);
        queue.run(queue.pop_head());
        // Reference: smallest (t, seq).
        auto best = std::min_element(reference.begin(), reference.end(),
                                     [](const Ref& a, const Ref& b) {
                                       return std::tie(a.t, a.seq) <
                                              std::tie(b.t, b.seq);
                                     });
        ASSERT_NE(best, reference.end());
        ASSERT_FALSE(fired.empty());
        EXPECT_EQ(fired.back(), best->id);
        reference.erase(best);
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
  }
}

// WfqQueue against a reference that keeps both tags with every queued
// packet and compares every class's head on each dequeue, the discipline
// as §4.1 states it. Random enqueue/dequeue sequences over 1-8 classes with
// random weights and sizes, some drained to empty midway, must dequeue in
// the same order and leave the virtual clock bit-identical.
TEST(WfqModelTest, MatchesTwoTagReferenceUnderRandomOps) {
  sim::Rng rng(2022);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t num_classes = 1 + rng.index(8);
    std::vector<double> weights;
    for (std::size_t i = 0; i < num_classes; ++i) {
      weights.push_back(rng.uniform(0.05, 16.0));
    }
    util::BlockPool buffer;
    net::WfqQueue queue(buffer, weights);

    struct Ref {
      std::uint64_t id;
      double start;
      double finish;
    };
    std::vector<std::deque<Ref>> reference(num_classes);
    std::vector<double> last_finish(num_classes, 0.0);
    double virtual_time = 0.0;
    std::size_t resident = 0;
    std::uint64_t next_id = 0;

    // One dequeue from each side; a failure names the first disagreement.
    const auto dequeue_both = [&]() -> ::testing::AssertionResult {
      std::size_t best = num_classes;
      for (std::size_t i = 0; i < num_classes; ++i) {
        if (reference[i].empty()) continue;
        if (best == num_classes ||
            reference[i].front().finish < reference[best].front().finish) {
          best = i;
        }
      }
      const Ref head = reference[best].front();
      reference[best].pop_front();
      virtual_time = std::max(virtual_time, head.start);
      --resident;
      const std::optional<net::Packet> got = queue.dequeue();
      if (!got) return ::testing::AssertionFailure() << "queue ran dry";
      if (got->rpc_id != head.id) {
        return ::testing::AssertionFailure()
               << "dequeued packet " << got->rpc_id << " of class "
               << int{got->qos} << ", reference " << head.id << " of class "
               << best;
      }
      if (queue.virtual_time() != virtual_time) {  // bit-identical
        return ::testing::AssertionFailure()
               << "virtual time " << queue.virtual_time() << ", reference "
               << virtual_time;
      }
      return ::testing::AssertionSuccess();
    };

    const int ops = 50 + static_cast<int>(rng.index(400));
    for (int op = 0; op < ops; ++op) {
      const double action = rng.uniform();
      if (action < 0.02) {
        while (resident > 0) ASSERT_TRUE(dequeue_both());
      } else if (action < 0.6 || resident == 0) {
        net::Packet p;
        p.qos = static_cast<net::QoSLevel>(rng.index(num_classes));
        p.size_bytes =
            1 + static_cast<std::uint32_t>(rng.index(net::kMtuBytes));
        p.rpc_id = next_id++;
        const double start = std::max(virtual_time, last_finish[p.qos]);
        const double finish =
            start + static_cast<double>(p.size_bytes) / weights[p.qos];
        last_finish[p.qos] = finish;
        reference[p.qos].push_back(Ref{p.rpc_id, start, finish});
        ++resident;
        ASSERT_TRUE(queue.enqueue(p));
      } else {
        ASSERT_TRUE(dequeue_both());
      }
      ASSERT_EQ(queue.backlog_packets(), resident);
    }
    while (resident > 0) ASSERT_TRUE(dequeue_both());
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.dequeue().has_value());
    EXPECT_EQ(buffer.blocks_owned(), buffer.blocks_free());
  }
}

// Packet-level WFQ under the Figure-7 arrival pattern must respect the
// closed-form worst-case bound (within packet-granularity slack) and get
// close to it (the bound is tight for this arrival pattern).
class WfqDelayBoundProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(WfqDelayBoundProperty, PacketSimMatchesTheory) {
  const auto [phi, rho, share] = GetParam();
  const analysis::TwoQosParams params{.phi = phi, .mu = 0.8, .rho = rho};

  sim::Simulator s;
  const sim::Rate line_rate = sim::gbps(100);
  const sim::Time period = 400 * sim::kUsec;
  const sim::Time window = period * params.mu / params.rho;
  const std::uint32_t pkt = 1000;

  struct Recorder final : net::PacketSink {
    sim::Simulator* sim;
    double worst[2] = {0, 0};
    void receive(const net::Packet& p) override {
      worst[p.qos] = std::max(worst[p.qos], sim->now() - p.sent_time);
    }
  } recorder;
  recorder.sim = &s;

  util::BlockPool buffer;
  net::Port port(s, buffer, line_rate, 0.0,
                 std::make_unique<net::WfqQueue>(
                     buffer, std::vector<double>{phi, 1.0}));
  port.connect(&recorder);
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int cls = 0; cls < 2; ++cls) {
      const double cls_share = cls == 0 ? share : 1.0 - share;
      const double byte_rate = params.rho * line_rate * cls_share;
      const sim::Time interval = pkt / byte_rate;
      for (sim::Time t = cycle * period; t < cycle * period + window;
           t += interval) {
        s.schedule_at(t, [&port, cls, &s] {
          net::Packet p;
          p.qos = static_cast<net::QoSLevel>(cls);
          p.size_bytes = 1000;
          p.sent_time = s.now();
          port.send(p);
        });
      }
    }
  }
  s.run();

  const double slack = 0.01;  // packet granularity, normalized to period
  EXPECT_NEAR(recorder.worst[0] / period, analysis::delay_high(params, share),
              slack)
      << "QoS_h phi=" << phi << " rho=" << rho << " x=" << share;
  EXPECT_NEAR(recorder.worst[1] / period, analysis::delay_low(params, share),
              slack)
      << "QoS_l phi=" << phi << " rho=" << rho << " x=" << share;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WfqDelayBoundProperty,
    ::testing::Combine(::testing::Values(2.0, 4.0, 8.0),
                       ::testing::Values(1.2, 1.5, 2.0),
                       ::testing::Values(0.2, 0.5, 0.8)));

TEST(FluidPropertyTest, SingleClassMatchesMm1StyleBound) {
  // One class: worst-case delay is mu * (1 - 1/rho) regardless of weights.
  for (double rho : {1.2, 1.6, 2.4}) {
    analysis::FluidConfig config;
    config.weights = {3.0};
    config.shares = {1.0};
    config.mu = 0.8;
    config.rho = rho;
    const auto result = analysis::simulate_fluid(config);
    EXPECT_NEAR(result.delay[0], 0.8 * (1.0 - 1.0 / rho), 1e-9);
  }
}

TEST(FluidPropertyTest, SymmetricClassesGetEqualDelay) {
  analysis::FluidConfig config;
  config.weights = {2.0, 2.0, 2.0};
  config.shares = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  config.mu = 0.8;
  config.rho = 1.5;
  const auto result = analysis::simulate_fluid(config);
  EXPECT_NEAR(result.delay[0], result.delay[1], 1e-9);
  EXPECT_NEAR(result.delay[1], result.delay[2], 1e-9);
}

TEST(FluidPropertyTest, HigherWeightNeverHurtsTheHighClass) {
  for (double x : {0.3, 0.5, 0.7}) {
    double previous = 1e9;
    for (double phi : {1.0, 2.0, 4.0, 8.0, 32.0}) {
      const analysis::TwoQosParams params{.phi = phi, .mu = 0.8, .rho = 1.5};
      const double d = analysis::delay_high(params, x);
      EXPECT_LE(d, previous + 1e-12) << "x=" << x << " phi=" << phi;
      previous = d;
    }
  }
}

TEST(SwiftPropertyTest, IdleRestartRestoresWindow) {
  transport::SwiftConfig config;
  config.restart_cwnd = 16.0;
  transport::SwiftCC cc(config);
  // Congest hard: window collapses.
  for (int i = 0; i < 50; ++i) {
    cc.on_ack(i * 1e-3, 1.0 * sim::kMsec, 1.0, false);
  }
  EXPECT_LT(cc.cwnd_packets(), 1.0);
  cc.on_idle_restart();
  EXPECT_DOUBLE_EQ(cc.cwnd_packets(), 16.0);
  // Restart never lowers an already-large window.
  transport::SwiftCC fresh(config);
  const double before = fresh.cwnd_packets();
  fresh.on_idle_restart();
  EXPECT_DOUBLE_EQ(fresh.cwnd_packets(), before);
}

TEST(SwiftPropertyTest, WindowBoundedAcrossRandomTraces) {
  transport::SwiftConfig config;
  transport::SwiftCC cc(config);
  sim::Rng rng(123);
  double now = 0.0;
  for (int i = 0; i < 100000; ++i) {
    now += rng.exponential(2e-6);
    if (rng.bernoulli(0.01)) {
      cc.on_loss(now);
    } else {
      cc.on_ack(now, rng.exponential(12e-6), rng.uniform(0.25, 4.0),
                rng.bernoulli(0.1));
    }
    ASSERT_GE(cc.cwnd_packets(), config.min_cwnd);
    ASSERT_LE(cc.cwnd_packets(), config.max_cwnd);
  }
}

}  // namespace
}  // namespace aeq
