// Micro-benchmarks (google-benchmark) for the hot data structures: event
// queue, the port packet hop, queue disciplines, Swift, the Aequitas
// admission decision, and whole-simulator packet throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/aequitas.h"
#include "net/dwrr.h"
#include "net/pfabric_queue.h"
#include "net/port.h"
#include "net/spq.h"
#include "net/wfq.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "transport/host_stack.h"
#include "transport/swift.h"

namespace {

using namespace aeq;

// The event core as the simulation drives it: Simulator::schedule_at builds
// each handler in its slot and dispatch runs it there. Every event
// schedules its successor one gap later and stops the run, so one
// iteration is exactly one schedule_at plus one dispatch, over a standing
// population of `population` pending events. items/s is events/sec.
struct Hop {
  sim::Simulator* sim;
  sim::Rng* rng;
  double (*gap)(sim::Rng&);
  void operator()() const {
    sim->schedule_in(gap(*rng), *this);
    sim->stop();
  }
};

void run_event_stream(benchmark::State& state, sim::SchedulerBackend backend,
                      double (*gap)(sim::Rng&), int population = 1000) {
  sim::Simulator s(backend);
  sim::Rng rng(1);
  const Hop hop{&s, &rng, gap};
  for (int i = 0; i < population; ++i) s.schedule_in(gap(rng), hop);
  for (auto _ : state) s.run();
  state.SetItemsProcessed(state.iterations());
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  run_event_stream(state, sim::SchedulerBackend::kHeap,
                   [](sim::Rng& rng) { return rng.uniform(); });
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_CalendarQueueScheduleAndPop(benchmark::State& state) {
  run_event_stream(state, sim::SchedulerBackend::kCalendar,
                   [](sim::Rng& rng) { return rng.uniform(0, 1e-3); });
}
BENCHMARK(BM_CalendarQueueScheduleAndPop);

// Both backends on the dense short-horizon event profile a packet
// simulation produces.
void BM_SchedulerScheduleAndPop(benchmark::State& state) {
  const auto backend = static_cast<sim::SchedulerBackend>(state.range(0));
  state.SetLabel(sim::backend_name(backend));
  run_event_stream(state, backend,
                   [](sim::Rng& rng) { return rng.exponential(2e-6); });
}
BENCHMARK(BM_SchedulerScheduleAndPop)
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kHeap))
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kCalendar));

// A small steady population packed inside one initial calendar bucket: 300
// pending events at 0-1 us gaps, as a few hosts' packet events are. It
// never crosses the calendar's doubling or halving marks, so only the
// walk-triggered width re-estimate adapts the calendar to it.
void BM_SchedulerSmallDensePopulation(benchmark::State& state) {
  const auto backend = static_cast<sim::SchedulerBackend>(state.range(0));
  state.SetLabel(sim::backend_name(backend));
  run_event_stream(
      state, backend, [](sim::Rng& rng) { return rng.uniform(0, 1e-6); },
      300);
}
BENCHMARK(BM_SchedulerSmallDensePopulation)
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kHeap))
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kCalendar));

// Timer-heavy profile: most scheduled events are cancelled before firing
// (retransmission timers, deadline guards). Exercises the store's
// tombstone path on both backends.
void BM_SchedulerScheduleCancelPop(benchmark::State& state) {
  const auto backend = static_cast<sim::SchedulerBackend>(state.range(0));
  state.SetLabel(sim::backend_name(backend));
  sim::Simulator s(backend);
  sim::Rng rng(1);
  for (auto _ : state) {
    const sim::EventId timer = s.schedule_in(rng.exponential(5e-6), [] {});
    s.schedule_in(rng.exponential(2e-6), [&s] { s.stop(); });
    s.cancel(timer);  // the "timer" never fires
    s.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerScheduleCancelPop)
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kHeap))
    ->Arg(static_cast<int>(aeq::sim::SchedulerBackend::kCalendar));

// The per-packet link path, which the scheduler benchmarks above never
// see: ports keep their tx-ends and deliveries out of the event store. Two
// WFQ ports back to back in sink mode, each delivering into the other, with
// 8 packets circling; every delivery stops the run, so one iteration is one
// packet hop (a delivery, the send it causes on the other port, and that
// port's share of tx-ends and tree replays). Arg: propagation in ns; at 0 a
// packet's delivery and its tx-end share a time.
void BM_PortPacketHop(benchmark::State& state) {
  sim::Simulator s(sim::SchedulerBackend::kCalendar);
  util::BlockPool buffer;
  const sim::Time propagation = static_cast<double>(state.range(0)) * 1e-9;
  const auto make_port = [&] {
    return std::make_unique<net::Port>(
        s, buffer, sim::gbps(100), propagation,
        std::make_unique<net::WfqQueue>(buffer,
                                        std::vector<double>{8.0, 4.0, 1.0}));
  };
  const auto a = make_port();
  const auto b = make_port();
  struct Relay final : net::PacketSink {
    sim::Simulator* sim;
    net::Port* next;
    void receive(const net::Packet& packet) override {
      next->send(packet);
      sim->stop();
    }
  };
  Relay to_a{};
  to_a.sim = &s;
  to_a.next = a.get();
  Relay to_b{};
  to_b.sim = &s;
  to_b.next = b.get();
  a->connect(&to_b);
  b->connect(&to_a);
  for (int i = 0; i < 8; ++i) {
    net::Packet packet;
    packet.qos = static_cast<net::QoSLevel>(i % 3);
    packet.size_bytes = 4096;
    a->send(packet);
  }
  for (auto _ : state) s.run();
  state.SetItemsProcessed(state.iterations());
  state.counters["transitions_per_hop"] =
      static_cast<double>(s.events_processed()) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
}
BENCHMARK(BM_PortPacketHop)->Arg(0)->Arg(500);

template <typename Queue>
net::Packet make_packet(std::uint8_t qos, double priority = 0.0) {
  net::Packet p;
  p.qos = qos;
  p.size_bytes = 4096;
  p.priority = priority;
  return p;
}

// One enqueue plus one dequeue over a resident backlog of state.range(0)
// packets: 64 stay cache-resident, 200,000 (about 14 MiB of slots) do not,
// so the larger backlog shows what a dequeue reads beyond the chosen head.
void BM_WfqEnqueueDequeue(benchmark::State& state) {
  util::BlockPool buffer;
  net::WfqQueue queue(buffer, {8.0, 4.0, 1.0});
  sim::Rng rng(2);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    queue.enqueue(make_packet<net::WfqQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
  }
  for (auto _ : state) {
    queue.enqueue(make_packet<net::WfqQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
    benchmark::DoNotOptimize(queue.dequeue());
  }
}
BENCHMARK(BM_WfqEnqueueDequeue)->Arg(64)->Arg(200000);

void BM_DwrrEnqueueDequeue(benchmark::State& state) {
  util::BlockPool buffer;
  net::DwrrQueue queue(buffer, {8.0, 4.0, 1.0});
  sim::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    queue.enqueue(make_packet<net::DwrrQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
  }
  for (auto _ : state) {
    queue.enqueue(make_packet<net::DwrrQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
    benchmark::DoNotOptimize(queue.dequeue());
  }
}
BENCHMARK(BM_DwrrEnqueueDequeue);

void BM_SpqEnqueueDequeue(benchmark::State& state) {
  util::BlockPool buffer;
  net::SpqQueue queue(buffer, 3);
  sim::Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    queue.enqueue(make_packet<net::SpqQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
  }
  for (auto _ : state) {
    queue.enqueue(make_packet<net::SpqQueue>(
        static_cast<std::uint8_t>(rng.index(3))));
    benchmark::DoNotOptimize(queue.dequeue());
  }
}
BENCHMARK(BM_SpqEnqueueDequeue);

void BM_PfabricEnqueueDequeue(benchmark::State& state) {
  net::PfabricQueue queue(64 * 4096);
  sim::Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    queue.enqueue(
        make_packet<net::PfabricQueue>(0, rng.uniform(0, 1e6)));
  }
  for (auto _ : state) {
    queue.enqueue(
        make_packet<net::PfabricQueue>(0, rng.uniform(0, 1e6)));
    benchmark::DoNotOptimize(queue.dequeue());
  }
}
BENCHMARK(BM_PfabricEnqueueDequeue);

void BM_SwiftOnAck(benchmark::State& state) {
  transport::SwiftConfig config;
  transport::SwiftCC cc(config);
  sim::Rng rng(6);
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-6;
    cc.on_ack(now, rng.uniform(5e-6, 20e-6), 1.0, false);
  }
  benchmark::DoNotOptimize(cc.cwnd_packets());
}
BENCHMARK(BM_SwiftOnAck);

void BM_AequitasAdmitDecision(benchmark::State& state) {
  core::AequitasConfig config;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  core::AequitasController controller(config, sim::Rng(7));
  sim::Rng rng(8);
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-6;
    const auto dst = static_cast<net::HostId>(rng.index(32));
    benchmark::DoNotOptimize(controller.admit(now, 0, dst, 0, 4096));
    controller.on_completion(now, 0, dst, 0, 0,
                             rng.uniform(5e-6, 30e-6), 8);
  }
}
BENCHMARK(BM_AequitasAdmitDecision);

// Whole-simulator throughput: 3-node star at line rate; reports simulated
// packets per wall second.
void BM_EndToEndPacketThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator s;
    topo::StarConfig config;
    config.num_hosts = 3;
    config.host_queue.weights = {4.0, 1.0};
    config.switch_queue.weights = {4.0, 1.0};
    topo::Network network = topo::build_star(s, config);
    const transport::SwiftConfig swift;
    std::vector<std::unique_ptr<transport::HostStack>> stacks;
    for (std::size_t i = 0; i < 3; ++i) {
      stacks.push_back(std::make_unique<transport::HostStack>(
          s, network.host(static_cast<net::HostId>(i)), 3,
          transport::TransportConfig{}, [&swift] {
            return std::make_unique<transport::SwiftCC>(swift);
          }));
    }
    int done = 0;
    for (int m = 0; m < 100; ++m) {
      transport::SendRequest request;
      request.dst = 2;
      request.qos = 0;
      request.bytes = 64 * 1024;
      request.rpc_id = static_cast<std::uint64_t>(m) + 1;
      stacks[m % 2]->send_message(
          request, [&done](const transport::MessageCompletion&) { ++done; });
    }
    state.ResumeTiming();
    s.run();
    benchmark::DoNotOptimize(done);
    state.counters["events"] = static_cast<double>(s.events_processed());
  }
}
BENCHMARK(BM_EndToEndPacketThroughput);

}  // namespace

BENCHMARK_MAIN();
