// Event-core tests: the heap/calendar equivalence property (same seed =>
// identical event order and identical experiment stats), the EventStore's
// slot, handler and generation-stamped cancellation contract on both
// backends, and CalendarQueue edge cases (overflow cancellation, resize in
// both directions, tie-breaking, next_time() purity).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "rpc/slo.h"
#include "runner/experiment.h"
#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "workload/size_dist.h"

namespace aeq {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

// Dispatches the earliest pending event of `store` and returns its time.
double pop_and_run(sim::EventStore& store) {
  const std::uint32_t slot = store.head();
  EXPECT_NE(slot, sim::kNoSlot);
  if (slot == sim::kNoSlot) return -1.0;
  store.pop_head();
  const double t = store.key(slot).t;
  store.run(slot);
  return t;
}

template <typename F>
sim::EventId schedule(sim::EventStore& store, double t, F&& handler) {
  return store.schedule(t, std::forward<F>(handler), sim::kTieRankDefault);
}

std::uint32_t slot_of(sim::EventId id) {
  return static_cast<std::uint32_t>(id.value);
}

// Same random schedule/cancel/pop trace applied to the event store over
// both backends: every pop must return the same time, every cancel the
// same verdict, and the fired-handler order must be identical.
TEST(SchedulerEquivalenceTest, IdenticalEventOrderUnderRandomOps) {
  const auto backends = {sim::SchedulerBackend::kHeap,
                         sim::SchedulerBackend::kCalendar};
  std::vector<std::vector<int>> fired_per_backend;
  std::vector<std::vector<double>> popped_per_backend;
  std::vector<std::vector<char>> verdicts_per_backend;
  std::vector<std::vector<std::size_t>> sizes_per_backend;
  for (const auto backend : backends) {
    sim::EventStore queue(sim::make_scheduler(backend));
    sim::Rng rng(2024);  // same seed: same op trace for both backends
    std::vector<sim::EventId> ids;
    std::vector<int> fired;
    std::vector<double> popped;
    std::vector<char> verdicts;
    std::vector<std::size_t> sizes;
    double now = 0.0;
    int next_label = 0;
    for (int round = 0; round < 30000; ++round) {
      const double action = rng.uniform();
      if (action < 0.5 || queue.size() == 0) {
        // Mixed horizons: dense near-term, sparse far-future (overflow).
        const double t =
            now + (rng.bernoulli(0.9) ? rng.exponential(2e-6)
                                      : rng.uniform(1e-3, 5e-3));
        const int label = next_label++;
        ids.push_back(schedule(queue, t,
                               [&fired, label] { fired.push_back(label); }));
      } else if (action < 0.65 && !ids.empty()) {
        // Cancel a random known id (may have fired or been cancelled
        // already); both backends must agree on the verdict.
        verdicts.push_back(queue.cancel(ids[rng.index(ids.size())]) ? 1 : 0);
      } else {
        now = pop_and_run(queue);
        popped.push_back(now);
      }
      sizes.push_back(queue.size());
    }
    while (queue.size() != 0) popped.push_back(pop_and_run(queue));
    fired_per_backend.push_back(std::move(fired));
    popped_per_backend.push_back(std::move(popped));
    verdicts_per_backend.push_back(std::move(verdicts));
    sizes_per_backend.push_back(std::move(sizes));
  }
  ASSERT_EQ(fired_per_backend[0].size(), fired_per_backend[1].size());
  EXPECT_EQ(fired_per_backend[0], fired_per_backend[1]);
  EXPECT_EQ(popped_per_backend[0], popped_per_backend[1]);
  EXPECT_EQ(verdicts_per_backend[0], verdicts_per_backend[1]);
  EXPECT_EQ(sizes_per_backend[0], sizes_per_backend[1]);
}

// Full-stack determinism: an identical experiment config must produce
// bit-identical traffic accounting and latency stats on either backend.
TEST(SchedulerEquivalenceTest, ExperimentStatsIdenticalAcrossBackends) {
  struct Result {
    std::uint64_t events;
    std::uint64_t requested[3];
    std::uint64_t admitted[3];
    std::uint64_t completed[3];
    double p999[3];
  };
  auto run_once = [](sim::SchedulerBackend backend) {
    runner::ExperimentConfig config;
    config.scheduler_backend = backend;
    config.num_hosts = 5;
    config.num_qos = 3;
    config.seed = 7;
    config.slo = rpc::SloConfig::make(
        {25.0 / 8 * sim::kUsec, 50.0 / 8 * sim::kUsec, 0.0}, 99.9);
    runner::Experiment experiment(config);
    const auto* sizes = experiment.own(
        std::make_unique<workload::FixedSize>(32 * sim::kKiB));
    workload::GeneratorConfig gen;
    gen.classes = {{rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes},
                   {rpc::Priority::kBE, 0.5 * sim::gbps(100), sizes}};
    for (std::size_t h = 0; h < config.num_hosts; ++h) {
      experiment.add_generator(static_cast<net::HostId>(h), gen);
    }
    experiment.run(1 * sim::kMsec, 2 * sim::kMsec);
    Result result;
    result.events = experiment.simulator().events_processed();
    for (std::size_t q = 0; q < 3; ++q) {
      result.requested[q] = experiment.metrics().bytes_requested(q);
      result.admitted[q] = experiment.metrics().bytes_admitted(q);
      result.completed[q] = experiment.metrics().bytes_completed(q);
      result.p999[q] = experiment.metrics().rnl_by_run_qos(q).p999();
    }
    return result;
  };
  const Result heap = run_once(sim::SchedulerBackend::kHeap);
  const Result calendar = run_once(sim::SchedulerBackend::kCalendar);
  EXPECT_GT(heap.events, 1000u);
  EXPECT_EQ(heap.events, calendar.events);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(heap.requested[q], calendar.requested[q]) << "qos " << q;
    EXPECT_EQ(heap.admitted[q], calendar.admitted[q]) << "qos " << q;
    EXPECT_EQ(heap.completed[q], calendar.completed[q]) << "qos " << q;
    EXPECT_DOUBLE_EQ(heap.p999[q], calendar.p999[q]) << "qos " << q;
  }
}

TEST(SchedulerFactoryTest, NamesAndTypes) {
  EXPECT_STREQ(sim::backend_name(sim::SchedulerBackend::kHeap), "heap");
  EXPECT_STREQ(sim::backend_name(sim::SchedulerBackend::kCalendar),
               "calendar");
  EXPECT_NE(dynamic_cast<sim::EventQueue*>(
                sim::make_scheduler(sim::SchedulerBackend::kHeap).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<sim::CalendarQueue*>(
                sim::make_scheduler(sim::SchedulerBackend::kCalendar).get()),
            nullptr);
}

TEST(SimulatorBackendTest, ReportsConfiguredBackend) {
  sim::Simulator heap_sim;  // heap is the Simulator-level default
  EXPECT_EQ(heap_sim.backend(), sim::SchedulerBackend::kHeap);
  sim::Simulator cal_sim(sim::SchedulerBackend::kCalendar);
  EXPECT_EQ(cal_sim.backend(), sim::SchedulerBackend::kCalendar);
  // Both dispatch the same three events in the same order.
  for (sim::Simulator* s : {&heap_sim, &cal_sim}) {
    std::vector<int> order;
    s->schedule_in(3e-6, [&] { order.push_back(3); });
    s->schedule_in(1e-6, [&] { order.push_back(1); });
    s->schedule_in(2e-6, [&] { order.push_back(2); });
    s->run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s->events_processed(), 3u);
  }
}

// The always-on checks of Simulator::schedule_at (the past is covered by
// ContractDeathTest.SimulatorRejectsPastScheduling).
TEST(SimulatorDeathTest, RejectsNullHandlersAndNonFiniteTimes) {
  sim::Simulator s;
  const std::function<void()> empty;
  EXPECT_DEATH(s.schedule_at(1.0, empty), "null event handler");
  void (*const null_fn)() = nullptr;
  EXPECT_DEATH(s.schedule_at(1.0, null_fn), "null event handler");
  EXPECT_DEATH(s.schedule_at(kForever, [] {}), "must be finite");
}

// --- the event store on both backends ------------------------------------

// Tallies the copies of a capture: how many were ever built and how many
// are alive.
struct Census {
  int built = 0;
  int live = 0;
};

struct Counted {
  explicit Counted(Census* c) : census(c) { ++census->built, ++census->live; }
  Counted(const Counted& other) : census(other.census) {
    ++census->built, ++census->live;
  }
  Counted(Counted&& other) noexcept : census(other.census) {
    ++census->built, ++census->live;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --census->live; }
  Census* census;
};

class EventCoreTest
    : public ::testing::TestWithParam<sim::SchedulerBackend> {};

TEST_P(EventCoreTest, FiredCaptureIsBuiltInPlaceAndDestroyedOnce) {
  Census census;
  sim::Simulator s(GetParam());
  int live_while_running = -1;
  s.schedule_at(1.0, [counted = Counted(&census), &live_while_running] {
    live_while_running = counted.census->live;
  });
  // Built at the call site, moved once into its slot; the temporary is gone.
  EXPECT_EQ(census.built, 2);
  EXPECT_EQ(census.live, 1);
  s.run();
  EXPECT_EQ(live_while_running, 1);  // alive while it runs
  EXPECT_EQ(census.live, 0);         // destroyed once it returned
  EXPECT_EQ(census.built, 2);        // run where it lay: never moved again
}

TEST_P(EventCoreTest, CancelledCaptureIsDestroyedOnceWhenDrained) {
  Census census;
  sim::Simulator s(GetParam());
  bool ran = false;
  const sim::EventId id =
      s.schedule_at(1.0, [counted = Counted(&census), &ran] { ran = true; });
  s.schedule_at(2.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(census.live, 1);  // a tombstone until its backend hands it back
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(census.live, 0);
  EXPECT_EQ(census.built, 2);
}

// Resizes move keys only: a tombstone rides through the calendar's growth
// and shrinkage and is destroyed once, when drained.
TEST_P(EventCoreTest, CancelledCaptureSurvivesResizeAndIsDestroyedOnce) {
  Census census;
  sim::Simulator s(GetParam());
  const sim::EventId id =
      s.schedule_at(0.5e-3, [counted = Counted(&census)] {});
  ASSERT_TRUE(s.cancel(id));
  sim::Rng rng(5);
  int fired = 0;
  for (int i = 0; i < 3000; ++i) {  // 256 -> 2048 buckets, then back
    s.schedule_at(rng.uniform(0.0, 1e-3), [&fired] { ++fired; });
  }
  EXPECT_EQ(census.live, 1);
  s.run();
  EXPECT_EQ(fired, 3000);
  EXPECT_EQ(census.live, 0);
  EXPECT_EQ(census.built, 2);
}

TEST_P(EventCoreTest, PendingCaptureIsDestroyedOnceWithTheSimulator) {
  Census census;
  {
    sim::Simulator s(GetParam());
    s.schedule_at(1.0, [counted = Counted(&census)] {});
    const sim::EventId cancelled =
        s.schedule_at(2.0, [counted = Counted(&census)] {});
    ASSERT_TRUE(s.cancel(cancelled));
    s.run_until(0.5);
    EXPECT_EQ(census.live, 2);
  }
  EXPECT_EQ(census.live, 0);
  EXPECT_EQ(census.built, 4);
}

// The id retires before the handler runs, and the slot is freed only after
// it returns: an event scheduled from inside cannot land on (and overwrite)
// the running handler.
TEST_P(EventCoreTest, HandlerCancellingItsOwnIdGetsFalse) {
  sim::Simulator s(GetParam());
  sim::EventId self;
  bool verdict = true;
  std::uint32_t inner_slot = sim::kNoSlot;
  int tag_after = 0;
  self = s.schedule_at(1.0, [&s, &self, &verdict, &inner_slot, &tag_after,
                             tag = 42] {
    verdict = s.cancel(self);
    inner_slot = slot_of(s.schedule_at(2.0, [] {}));
    tag_after = tag;
  });
  s.run_until(1.5);
  EXPECT_FALSE(verdict);
  EXPECT_NE(inner_slot, slot_of(self));
  EXPECT_EQ(tag_after, 42);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_FALSE(s.cancel(self));  // fired
}

// A handler that schedules past the arena's current chunks (512 nodes
// each) and grows the key array still reads intact captures afterwards:
// nodes never move. Meaningful under ASan, which CI runs.
TEST_P(EventCoreTest, HandlerGrowingTheArenaKeepsItsCaptures) {
  struct Run {
    sim::Simulator sim;
    std::array<std::uint64_t, 4> seen{};
    int fired = 0;
  } run{sim::Simulator(GetParam())};
  const std::array<std::uint64_t, 4> expected = {0x1111, 0x2222, 0x3333,
                                                 0x4444};
  run.sim.schedule_at(1.0, [r = &run, values = expected] {
    for (int i = 0; i < 2000; ++i) {
      r->sim.schedule_in(1.0 + i, [r] { ++r->fired; });
    }
    r->seen = values;
  });
  run.sim.run();
  EXPECT_EQ(run.seen, expected);
  EXPECT_EQ(run.fired, 2000);
  EXPECT_EQ(run.sim.events_processed(), 2001u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, EventCoreTest,
                         ::testing::Values(sim::SchedulerBackend::kHeap,
                                           sim::SchedulerBackend::kCalendar),
                         [](const auto& param_info) {
                           return std::string(
                               sim::backend_name(param_info.param));
                         });

// A slot reused after firing gets a new id; the stale id is a reliable
// no-op and cannot cancel the reuser.
TEST(EventStoreTest, StaleIdAfterSlotReuseIsRejected) {
  for (const auto backend :
       {sim::SchedulerBackend::kHeap, sim::SchedulerBackend::kCalendar}) {
    SCOPED_TRACE(sim::backend_name(backend));
    sim::Simulator s(backend);
    const sim::EventId first = s.schedule_at(1.0, [] {});
    s.run();  // fired: the slot goes back
    bool ran = false;
    const sim::EventId reused = s.schedule_at(2.0, [&ran] { ran = true; });
    EXPECT_EQ(slot_of(first), slot_of(reused));  // same slot, new generation
    EXPECT_NE(first.value, reused.value);
    EXPECT_FALSE(s.cancel(first));  // stale generation: reliable no-op
    EXPECT_EQ(s.pending_events(), 1u);
    s.run();
    EXPECT_TRUE(ran);
    const sim::EventId again = s.schedule_at(3.0, [] {});
    EXPECT_TRUE(s.cancel(again));
    EXPECT_FALSE(s.cancel(again));  // double cancel
    EXPECT_FALSE(s.cancel(sim::EventId{}));
  }
}

TEST(EventQueueTest, StaleCancelAfterSlotReuseLeavesNewEventLive) {
  sim::EventStore q(std::make_unique<sim::EventQueue>());
  const sim::EventId old_id = schedule(q, 1.0, [] {});
  pop_and_run(q);  // fires the event, freeing its slot for reuse
  bool ran = false;
  schedule(q, 2.0, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(old_id));         // stale id must not kill the reuser
  EXPECT_EQ(q.size(), 1u);
  pop_and_run(q);
  EXPECT_TRUE(ran);
}

TEST(CalendarQueueTest, CancelAfterFireIsHarmlessNoOp) {
  sim::EventStore q(std::make_unique<sim::CalendarQueue>());
  const sim::EventId fired = schedule(q, 1e-6, [] {});
  schedule(q, 2e-6, [] {});
  pop_and_run(q);
  // With hash-set bookkeeping this used to corrupt the live count; the
  // generation stamp makes it a reliable no-op.
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);
  pop_and_run(q);
  EXPECT_EQ(q.size(), 0u);
}

// --- CalendarQueue edge cases ---------------------------------------------

TEST(CalendarQueueTest, CancelOfOverflowEventIsSkipped) {
  // 8 buckets x 1us: one rotation covers 8us; 1s is far in the overflow
  // region reached only via the sparse-jump scan.
  sim::EventStore q(std::make_unique<sim::CalendarQueue>(1e-6, 8));
  std::vector<int> order;
  const sim::EventId far = schedule(q, 1.0, [&] { order.push_back(99); });
  schedule(q, 1e-6, [&] { order.push_back(1); });
  schedule(q, 3e-6, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(far));
  EXPECT_FALSE(q.cancel(far));
  EXPECT_EQ(q.size(), 2u);
  while (q.size() != 0) pop_and_run(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(CalendarQueueTest, OverflowEventStillFiresAfterNearTermDrain) {
  sim::EventStore q(std::make_unique<sim::CalendarQueue>(1e-6, 8));
  std::vector<double> popped;
  schedule(q, 0.5, [] {});   // beyond many rotations
  schedule(q, 2.0, [] {});   // even further
  schedule(q, 2e-6, [] {});
  while (q.size() != 0) popped.push_back(pop_and_run(q));
  EXPECT_EQ(popped, (std::vector<double>{2e-6, 0.5, 2.0}));
}

TEST(CalendarQueueTest, SlotBoundaryTruncatedEventIsNotStranded) {
  // Regression: t = 0.0018 with the default 1us width truncates to slot 1799
  // in bucket placement (0.0018 / 1e-6 computes just under 1800), while a
  // float rolling-window scan put it in slot 1800's window. The scan then
  // skipped it as "future rotation" forever and it surfaced late — and out
  // of order — via the sparse-jump fallback, silently regressing simulated
  // time. Placement and window membership must share one slot computation.
  sim::EventStore q(std::make_unique<sim::CalendarQueue>());
  std::vector<double> expected;
  schedule(q, 0.0018, [] {});
  expected.push_back(0.0018);
  for (int k = 1; k <= 300; ++k) {
    const double t = 0.0018 + k * 0.7e-6;  // mid-slot, spans > one rotation
    schedule(q, t, [] {});
    expected.push_back(t);
  }
  std::vector<double> popped;
  while (q.size() != 0) popped.push_back(pop_and_run(q));
  EXPECT_EQ(popped, expected);  // already sorted: strictly increasing input
}

TEST(CalendarQueueTest, ResizeBothDirectionsPreservesOrderAndNextTime) {
  auto calendar = std::make_unique<sim::CalendarQueue>();
  const sim::CalendarQueue& layout = *calendar;  // 256 buckets initially
  sim::EventStore q(std::move(calendar));
  sim::Rng rng(31);
  const std::size_t initial_buckets = layout.num_buckets();
  for (int i = 0; i < 3000; ++i) schedule(q, rng.uniform(0.0, 1e-3), [] {});
  const std::size_t grown = layout.num_buckets();
  EXPECT_GT(grown, initial_buckets);  // doubling triggered
  std::size_t smallest = grown;
  double last = -1.0;
  while (q.size() != 0) {
    // next_time() must agree with the following pop and be monotone.
    const double peek = q.next_time();
    const double t = pop_and_run(q);
    EXPECT_DOUBLE_EQ(peek, t);
    EXPECT_GE(t, last);
    last = t;
    smallest = std::min(smallest, layout.num_buckets());
  }
  EXPECT_LT(smallest, grown);  // halving triggered on the way down
}

TEST(CalendarQueueTest, TieBreakBySequenceMatchesEventQueue) {
  sim::EventStore calendar(std::make_unique<sim::CalendarQueue>(1e-6, 4));
  sim::EventStore heap(std::make_unique<sim::EventQueue>());
  std::vector<std::string> calendar_order, heap_order;
  std::vector<sim::EventId> calendar_ids, heap_ids;
  // Three batches at the same instant, interleaved with batches at another
  // instant, plus cancellation of every third event.
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 5; ++i) {
      const double t = (batch % 2 == 0) ? 5e-6 : 2e-6;
      const std::string label =
          std::to_string(batch) + ":" + std::to_string(i);
      calendar_ids.push_back(schedule(calendar, t, [&calendar_order, label] {
        calendar_order.push_back(label);
      }));
      heap_ids.push_back(schedule(
          heap, t, [&heap_order, label] { heap_order.push_back(label); }));
    }
  }
  for (std::size_t k = 0; k < calendar_ids.size(); k += 3) {
    EXPECT_EQ(calendar.cancel(calendar_ids[k]), heap.cancel(heap_ids[k]));
  }
  while (heap.size() != 0) {
    ASSERT_NE(calendar.size(), 0u);
    ASSERT_DOUBLE_EQ(pop_and_run(calendar), pop_and_run(heap));
  }
  EXPECT_EQ(calendar.size(), 0u);
  EXPECT_EQ(calendar_order, heap_order);
}

// Regression: scheduling between a peek at a far-future event and the next
// pop used to trip the "cannot schedule into the past" contract. A peek
// leaves the cursor on the far event; the earlier key pulls it back.
TEST(CalendarQueueTest, ScheduleAfterNextTimePeekOfFarEvent) {
  sim::EventStore q(std::make_unique<sim::CalendarQueue>(1e-6, 8));
  std::vector<double> popped;
  schedule(q, 100e-6, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 100e-6);
  // Still allowed: 1us is in the peeked event's past but not the clock's.
  schedule(q, 1e-6, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1e-6);
  while (q.size() != 0) popped.push_back(pop_and_run(q));
  EXPECT_EQ(popped, (std::vector<double>{1e-6, 100e-6}));
}

// A steady population that never crosses the doubling or halving marks
// (300 live keys in 256 buckets) packed far inside the initial 1 us width:
// without a width re-estimate every key shares one or two buckets and each
// insert walks a long chain. The queue must notice the walks and narrow its
// width, at the same bucket count, while popping exactly what the heap pops.
TEST(CalendarQueueTest, SteadyDensePopulationAdaptsWidthAndPopsInHeapOrder) {
  auto calendar = std::make_unique<sim::CalendarQueue>();
  const sim::CalendarQueue& layout = *calendar;
  sim::EventStore queue(std::move(calendar));
  sim::EventStore heap(std::make_unique<sim::EventQueue>());
  const std::size_t initial_buckets = layout.num_buckets();
  const double initial_width = layout.bucket_width();
  std::vector<int> queue_order, heap_order;
  sim::Rng rng(13);
  double now = 0.0;
  int next_id = 0;
  const auto schedule_both = [&] {
    const double t = now + rng.uniform(0.0, 1e-6);
    const int id = next_id++;
    schedule(queue, t, [&queue_order, id] { queue_order.push_back(id); });
    schedule(heap, t, [&heap_order, id] { heap_order.push_back(id); });
  };
  for (int i = 0; i < 300; ++i) schedule_both();
  for (int round = 0; round < 20000; ++round) {
    now = pop_and_run(heap);
    ASSERT_EQ(pop_and_run(queue), now) << "round " << round;
    schedule_both();
  }
  while (heap.size() != 0) {
    ASSERT_EQ(pop_and_run(queue), pop_and_run(heap));
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue_order, heap_order);
  EXPECT_EQ(layout.num_buckets(), initial_buckets);
  EXPECT_LT(layout.bucket_width(), initial_width / 10);
}

}  // namespace
}  // namespace aeq
