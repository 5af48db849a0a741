// Steady-state allocation regression test.
//
// The hot-path overhaul (DESIGN.md §10) promises an allocation-free event
// loop once every pool has reached its high-water mark: events live in the
// EventStore's key array and handler nodes, handlers in fixed
// InlineFunction buffers, packets in
// blocks of each shard's packet buffer, channel state in FlatMap64s, and
// percentile samples in pre-reserved vectors. This binary overrides global operator new/delete
// with counting shims and proves the promise end to end: a fig03-style
// Aequitas run (WFQ, 3 QoS, Poisson all-to-all load) performs ZERO heap
// allocations during its post-warmup measurement window, on both scheduler
// backends. Any new `new` on a per-event or per-RPC path fails this test
// rather than quietly eroding events/sec.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rpc/slo.h"
#include "runner/experiment.h"
#include "sim/units.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace {

// Relaxed is fine: the simulator is single-threaded and the test reads the
// counter from the same thread that bumps it.
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace aeq {
namespace {

constexpr sim::Time kWarmup = 4 * sim::kMsec;
constexpr sim::Time kMeasure = 8 * sim::kMsec;

struct Tick {
  sim::Time t;
  std::uint64_t allocation_count;
};

// One fig03-style run on the given backend; returns the per-sample
// allocation counter readings taken during run().
std::vector<Tick> run_counted(sim::SchedulerBackend backend) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.num_hosts = 6;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.seed = 7;
  config.slo = rpc::SloConfig::make(
      {25.0 / 8 * sim::kUsec, 50.0 / 8 * sim::kUsec, 0.0}, 99.9);
  // Rare new queue-depth or live-event records otherwise double a ring or
  // arena mid-run; the hints move that growth to construction time.
  config.queue_reserve_packets = 4096;
  config.reserve_events = 1u << 15;
  // This pins the event loop; the audit sweep is an opt-in diagnostic that
  // allocates (and defaults on in -DAEQ_AUDIT builds).
  config.audit = false;
  runner::Experiment experiment(config);

  const auto* sizes =
      experiment.own(std::make_unique<workload::FixedSize>(8 * sim::kKiB));
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    const double rate = 0.6 * sim::gbps(100);
    gen.classes = {{rpc::Priority::kPC, 0.4 * rate, sizes, 0.0},
                   {rpc::Priority::kNC, 0.3 * rate, sizes, 0.0},
                   {rpc::Priority::kBE, 0.3 * rate, sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }

  // Pre-size the only unbounded per-RPC accumulator (latency samples); the
  // run completes well under this many RPCs per QoS level.
  experiment.metrics().reserve_samples(1u << 18);

  std::vector<Tick> ticks;
  ticks.reserve(1024);  // sampling must not allocate either
  experiment.sample_every(100 * sim::kUsec, [&ticks](sim::Time t) {
    if (ticks.size() < 1024) ticks.push_back(Tick{t, allocations()});
  });
  experiment.run(kWarmup, kMeasure);
  return ticks;
}

class AllocationTest
    : public ::testing::TestWithParam<sim::SchedulerBackend> {};

TEST_P(AllocationTest, SteadyStateEventLoopIsAllocationFree) {
  const std::vector<Tick> ticks = run_counted(GetParam());
  ASSERT_GE(ticks.size(), 80u);

  // Warmup is allowed to allocate: pools are still finding their
  // high-water marks. After it, the counter must be flat — zero heap
  // allocations across the entire measurement window.
  const Tick* start = nullptr;
  for (const Tick& tick : ticks) {
    if (tick.t >= kWarmup) {
      start = &tick;
      break;
    }
  }
  ASSERT_NE(start, nullptr);
  const Tick& end = ticks.back();
  ASSERT_GT(end.t, start->t);
  EXPECT_EQ(end.allocation_count - start->allocation_count, 0u)
      << "steady-state window [" << start->t << "s, " << end.t << "s] "
      << "performed " << (end.allocation_count - start->allocation_count)
      << " heap allocations; the event loop must not touch the allocator "
      << "after warmup (DESIGN.md §10)";
}

INSTANTIATE_TEST_SUITE_P(BothBackends, AllocationTest,
                         ::testing::Values(sim::SchedulerBackend::kHeap,
                                           sim::SchedulerBackend::kCalendar),
                         [](const auto& param_info) {
                           return std::string(
                               sim::backend_name(param_info.param));
                         });

}  // namespace
}  // namespace aeq
