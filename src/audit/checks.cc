#include "audit/checks.h"

#include <cstdint>
#include <utility>

#include "net/port.h"
#include "net/queue.h"
#include "net/switch.h"
#include "net/wfq.h"
#include "rpc/admission.h"
#include "sim/simulator.h"
#include "transport/flow.h"
#include "transport/host_stack.h"
#include "util/block_fifo.h"

namespace aeq::audit {

void register_queue_checks(Auditor& auditor, std::string component,
                           const net::QueueDiscipline& queue) {
  auditor.add_check(component, "conservation-packets", [&queue] {
    const net::QueueStats& s = queue.stats();
    AEQ_CHECK_EQ_MSG(
        s.offered_packets,
        s.dequeued_packets + s.dropped_packets + queue.backlog_packets(),
        "queue lost or invented packets");
  });
  auditor.add_check(component, "conservation-bytes", [&queue] {
    const net::QueueStats& s = queue.stats();
    AEQ_CHECK_EQ_MSG(
        s.offered_bytes,
        s.dequeued_bytes + s.dropped_bytes + queue.backlog_bytes(),
        "queue lost or invented bytes");
  });
  auditor.add_check(component, "counter-bounds", [&queue] {
    const net::QueueStats& s = queue.stats();
    AEQ_CHECK_LE(s.enqueued_packets, s.offered_packets);
    AEQ_CHECK_LE(s.enqueued_bytes, s.offered_bytes);
    AEQ_CHECK_LE(s.dequeued_packets, s.enqueued_packets);
    AEQ_CHECK_LE(s.dequeued_bytes, s.enqueued_bytes);
    AEQ_CHECK_LE(s.dropped_packets, s.offered_packets);
    AEQ_CHECK_LE(s.dropped_bytes, s.offered_bytes);
  });
  auditor.add_check(component, "class-sums", [&queue] {
    std::uint64_t class_backlog = 0;
    std::uint64_t class_drop_packets = 0;
    std::uint64_t class_drop_bytes = 0;
    for (std::size_t q = 0; q < net::kMaxQoSLevels; ++q) {
      const auto qos = static_cast<net::QoSLevel>(q);
      class_backlog += queue.class_backlog_bytes(qos);
      class_drop_packets += queue.class_dropped_packets(qos);
      class_drop_bytes += queue.class_dropped_bytes(qos);
    }
    // The QueueDiscipline base maintains the per-class counters for every
    // discipline, over every class a queue can hold (Homa's eight priority
    // levels included), so whenever any class reports backlog the per-class
    // backlogs must partition the total exactly. (The guard keeps the check
    // vacuous for an idle queue.)
    if (class_backlog != 0) {
      AEQ_CHECK_EQ_MSG(class_backlog, queue.backlog_bytes(),
                       "per-class backlogs do not partition queue backlog");
    }
    // Every drop is charged to exactly one class, so class drops partition
    // the totals.
    AEQ_CHECK_EQ(class_drop_packets, queue.stats().dropped_packets);
    AEQ_CHECK_EQ(class_drop_bytes, queue.stats().dropped_bytes);
  });

  // Attach the WFQ tag invariants when this discipline is a virtual-time
  // WFQ.
  if (const auto* wfq = dynamic_cast<const net::WfqQueue*>(&queue)) {
    register_wfq_checks(auditor, std::move(component), *wfq);
  }
}

void register_wfq_checks(Auditor& auditor, std::string component,
                         const net::WfqQueue& queue) {
  auditor.add_check(component, "wfq-tag-order",
                    [&queue] { queue.audit_tags(); });
  auditor.add_check(component, "wfq-virtual-time-monotone",
                    [&queue, prev = queue.virtual_time()]() mutable {
                      const double v = queue.virtual_time();
                      AEQ_CHECK_GE_MSG(v, prev,
                                       "WFQ virtual clock ran backwards");
                      prev = v;
                    });
}

void register_port_checks(Auditor& auditor, std::string component,
                          const net::Port& port, const sim::Simulator& sim) {
  auditor.add_check(component, "link-conservation", [&port] {
    AEQ_CHECK_EQ_MSG(port.queue().stats().dequeued_packets,
                     port.delivered_packets() + port.in_flight_packets(),
                     "packet left the queue but neither delivered nor "
                     "propagating");
  });
  auditor.add_check(component, "transition-order", [&port, &sim] {
    port.audit_transitions(sim.now());
  });
  auditor.add_check(component, "busy-time-bounded", [&port, &sim] {
    const sim::Time now = sim.now();
    AEQ_CHECK_GE(port.busy_time(), 0.0);
    // Tolerance: busy time is a sum of exact sub-intervals of [0, now] and
    // may round up by a few ulps across millions of packets.
    AEQ_CHECK_LE_MSG(port.busy_time(), now * (1.0 + 1e-9) + 1e-9,
                     "port was busy longer than simulated time");
  });
  register_queue_checks(auditor, std::move(component), port.queue());
}

void register_buffer_checks(Auditor& auditor, std::string component,
                            const util::BlockPool& buffer,
                            std::vector<const net::Port*> ports) {
  auditor.add_check(
      std::move(component), "block-conservation",
      [&buffer, ports = std::move(ports)] {
        std::size_t held = 0;
        for (const net::Port* port : ports) held += port->buffer_blocks();
        AEQ_CHECK_EQ_MSG(buffer.blocks_owned(), buffer.blocks_free() + held,
                         "packet buffer lost a block or handed one out "
                         "twice");
      });
}

void register_switch_checks(Auditor& auditor, std::string component,
                            const net::Switch& fabric_switch,
                            const sim::Simulator& sim) {
  auditor.add_check(component, "routing-conservation", [&fabric_switch] {
    std::uint64_t offered = 0;
    for (std::size_t p = 0; p < fabric_switch.num_ports(); ++p) {
      offered += fabric_switch.port(p).queue().stats().offered_packets;
    }
    AEQ_CHECK_EQ_MSG(fabric_switch.received_packets(), offered,
                     "switch received packets it never offered to a port");
  });
  for (std::size_t p = 0; p < fabric_switch.num_ports(); ++p) {
    register_port_checks(auditor,
                         component + "/port" + std::to_string(p),
                         fabric_switch.port(p), sim);
  }
}

void register_simulator_checks(Auditor& auditor, const sim::Simulator& sim) {
  auditor.add_check("sim", "time-monotone",
                    [&sim, prev = sim.now()]() mutable {
                      const sim::Time now = sim.now();
                      AEQ_CHECK_GE_MSG(now, prev,
                                       "simulated clock ran backwards");
                      prev = now;
                    });
}

void register_admission_checks(Auditor& auditor, std::string component,
                               const rpc::AdmissionController& controller,
                               const sim::Simulator& sim) {
  auditor.add_check(component, "invariants", [&controller, &sim] {
    controller.audit_invariants(sim.now());
  });
  auditor.add_check(std::move(component), "gauge-bounds", [&controller] {
    for (const rpc::Gauge& gauge : controller.gauges()) {
      // NaN fails both comparisons, so a poisoned gauge aborts here too.
      AEQ_CHECK_GE_MSG(gauge.value, gauge.lo,
                       "admission gauge below its documented lower bound");
      AEQ_CHECK_LE_MSG(gauge.value, gauge.hi,
                       "admission gauge above its documented upper bound");
    }
  });
}

void register_transport_checks(Auditor& auditor, std::string component,
                               const transport::HostStack& stack) {
  auditor.add_check(std::move(component), "flow-invariants", [&stack] {
    stack.for_each_flow(
        [](const transport::Flow& flow) { flow.audit_invariants(); });
  });
}

}  // namespace aeq::audit
