// Unit tests for the discrete-event core: ordering, determinism,
// cancellation, clock semantics, and RNG behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace aeq::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  Simulator q(SchedulerBackend::kHeap);
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreaksByInsertionOrder) {
  Simulator q(SchedulerBackend::kHeap);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  Simulator q(SchedulerBackend::kHeap);
  bool ran = false;
  EventId id = q.schedule_at(1.0, [&] { ran = true; });
  q.schedule_at(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  Simulator q(SchedulerBackend::kHeap);
  EventId id = q.schedule_at(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueTest, CancelAfterFireIsHarmlessNoOp) {
  Simulator q(SchedulerBackend::kHeap);
  EventId fired = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  q.run_until(1.0);  // fires the first event only
  // Cancelling the already-fired event must not disturb live accounting.
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_EQ(q.events_processed(), 2u);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  Simulator q(SchedulerBackend::kHeap);
  EventId early = q.schedule_at(1.0, [] {});
  q.schedule_at(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_event_time(), 5.0);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s;
  Time seen = -1.0;
  s.schedule_at(2.5, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<Time>(i), [&] { ++count; });
  }
  s.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run_until(20.0);
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(1.0 * kUsec, recurse);
  };
  s.schedule_in(0.0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.events_processed(), 100u);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<Time>(i), [&] {
      if (++count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

// A transition source that keeps a set of keys, as a port keeps its tx-end
// and deliveries, and logs its id each time one of them fires.
class KeyedSource final : public TransitionSource {
 public:
  KeyedSource(Simulator& sim, std::vector<int>& log, int id)
      : sim_(sim), leaf_(sim.attach(*this)), log_(log), id_(id) {}
  ~KeyedSource() { sim_.detach(leaf_); }

  // Keys a transition at `t`, drawn now, and publishes the earliest.
  void add(Time t) {
    keys_.push_back(sim_.make_key(t));
    publish();
  }
  // Publishes `key` as this source's earliest, bypassing its own keys.
  void publish_raw(const OrderKey& key) { sim_.publish(leaf_, key); }

  void fire() override {
    keys_.erase(earliest());
    log_.push_back(id_);
    publish();
  }
  std::size_t pending() const override { return keys_.size(); }

 private:
  std::vector<OrderKey>::iterator earliest() {
    return std::min_element(keys_.begin(), keys_.end(),
                            [](const OrderKey& a, const OrderKey& b) {
                              return earlier(a, b);
                            });
  }
  void publish() {
    sim_.publish(leaf_, keys_.empty() ? kIdleKey : *earliest());
  }

  Simulator& sim_;
  std::uint32_t leaf_;
  std::vector<int>& log_;
  int id_;
  std::vector<OrderKey> keys_;
};

class TransitionSourceTest
    : public ::testing::TestWithParam<SchedulerBackend> {};

// A transition sorts where an event drawn at the same point would: by
// time, then by insertion order across events and transitions alike.
TEST_P(TransitionSourceTest, InterleavesWithEventsByTimeThenInsertionOrder) {
  Simulator s(GetParam());
  std::vector<int> log;
  KeyedSource a(s, log, 1);
  KeyedSource b(s, log, 2);
  s.schedule_at(1.0, [&] { log.push_back(10); });
  a.add(1.0);
  s.schedule_at(1.0, [&] { log.push_back(11); });
  b.add(0.5);
  b.add(1.0);
  a.add(2.0);
  s.schedule_at(0.5, [&] { log.push_back(12); });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{2, 12, 10, 1, 11, 2, 1}));
  EXPECT_EQ(s.events_processed(), 7u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

// Many sources with random keys, plus events: dispatch is exactly the
// (time, draw order) sort. Seventy sources need a tree wider than 64.
TEST_P(TransitionSourceTest, RandomKeysDispatchInSortedOrder) {
  Simulator s(GetParam());
  Rng rng(5);
  std::vector<int> log;
  std::vector<std::unique_ptr<KeyedSource>> sources;
  for (int id = 0; id < 70; ++id) {
    sources.push_back(std::make_unique<KeyedSource>(s, log, id));
  }
  // (time, draw order, id) of every key, sorted: the expected dispatch.
  std::vector<std::tuple<Time, int, int>> expected;
  int draws = 0;
  for (int k = 0; k < 2000; ++k) {
    // Coarse times, so many keys tie and only the draw order decides.
    const Time t = static_cast<Time>(rng.index(200)) * 1e-6;
    const int id = static_cast<int>(rng.index(71));  // 70: an event
    if (id == 70) {
      s.schedule_at(t, [&log] { log.push_back(70); });
    } else {
      sources[static_cast<std::size_t>(id)]->add(t);
    }
    expected.emplace_back(t, draws++, id);
  }
  EXPECT_EQ(s.pending_events(), 2000u);
  std::sort(expected.begin(), expected.end());
  s.run();
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i], std::get<2>(expected[i])) << "dispatch " << i;
  }
  EXPECT_EQ(s.pending_events(), 0u);
}

// An idle source publishes +inf: it never fires, not even under run()'s
// unbounded limit, and next_event_time() sees through it.
TEST_P(TransitionSourceTest, IdleSourceNeverFires) {
  Simulator s(GetParam());
  std::vector<int> log;
  KeyedSource idle(s, log, 1);
  EXPECT_EQ(s.next_event_time(), kIdleKey.t);
  s.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(s.events_processed(), 0u);
  KeyedSource once(s, log, 2);
  once.add(1.0);
  s.run();
  EXPECT_EQ(log, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(s.next_event_time(), kIdleKey.t);
}

TEST_P(TransitionSourceTest, NextEventTimeAndPendingCountSources) {
  Simulator s(GetParam());
  std::vector<int> log;
  KeyedSource source(s, log, 1);
  s.schedule_at(5.0, [] {});
  source.add(4.0);
  source.add(3.0);
  EXPECT_DOUBLE_EQ(s.next_event_time(), 3.0);
  EXPECT_EQ(s.pending_events(), 3u);
  s.run_until(3.5);
  EXPECT_DOUBLE_EQ(s.next_event_time(), 4.0);
  EXPECT_EQ(s.pending_events(), 2u);
}

// A source that dies with keys pending leaves its leaf idle for good.
TEST_P(TransitionSourceTest, DetachedSourceNeverFires) {
  Simulator s(GetParam());
  std::vector<int> log;
  auto gone = std::make_unique<KeyedSource>(s, log, 1);
  gone->add(1.0);
  gone.reset();
  KeyedSource next(s, log, 2);
  next.add(2.0);
  s.run();
  EXPECT_EQ(log, (std::vector<int>{2}));
}

INSTANTIATE_TEST_SUITE_P(Backends, TransitionSourceTest,
                         ::testing::Values(SchedulerBackend::kHeap,
                                           SchedulerBackend::kCalendar),
                         [](const auto& param_info) {
                           return std::string(backend_name(param_info.param));
                         });

// A published key below now() is rejected exactly like an event scheduled
// into the past.
TEST(TransitionSourceDeathTest, KeyBelowNowIsRejected) {
  Simulator s;
  std::vector<int> log;
  KeyedSource source(s, log, 1);
  s.run_until(1.0);
  EXPECT_DEATH(source.add(0.5), "cannot schedule into the past");
}

#if AEQ_AUDIT_ENABLED
// The audit build checks every dispatch against the last one: a key at
// now() whose tie sorts before the transition just run is out of order.
TEST(TransitionSourceDeathTest, AuditCatchesTieBelowTheLastDispatch) {
  Simulator s;
  std::vector<int> log;
  KeyedSource source(s, log, 1);
  s.schedule_at(1.0, [&] { source.publish_raw({1.0, 0}); });
  EXPECT_DEATH(s.run(), "tied events dispatched out of insertion order");
}
#endif

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng b = a.fork();
  // The fork must not mirror the parent.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(100), 12.5e9);
  EXPECT_DOUBLE_EQ(serialization_delay(12500, gbps(100)), 1.0 * kUsec);
}

}  // namespace
}  // namespace aeq::sim
