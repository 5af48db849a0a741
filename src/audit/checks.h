// The invariant catalogue: registration helpers that attach the library's
// machine-checked invariants to an audit::Auditor.
//
// Each helper registers named, read-only closures over one component. The
// catalogue (component/check -> paper property it guards):
//
//   queue/conservation-{packets,bytes}   offered == dequeued + dropped +
//                                        resident, for every discipline
//                                        (FIFO, WFQ, SPQ, DWRR, pFabric).
//                                        Work conservation is the
//                                        ground assumption of the WFQ delay
//                                        bound (paper §4.1, Appendix B).
//   queue/counter-bounds                 enqueued <= offered, dequeued <=
//                                        enqueued, dropped <= offered.
//   queue/class-sums                     per-QoS backlogs and drops sum to
//                                        the queue totals for classful
//                                        disciplines (per-class byte counts
//                                        feed the QoS-mix figures).
//   wfq/tag-order, wfq/virtual-time-monotone
//                                        start/finish-tag ordering and a
//                                        non-decreasing virtual clock — the
//                                        invariants the per-QoS delay bound
//                                        is derived from (§4, Appendix B).
//   port/link-conservation               dequeued == delivered + in-flight.
//   port/transition-order                the port's pending tx-end and
//                                        delivery keys lie at or after now,
//                                        deliveries keyed in link order —
//                                        so the one key it publishes to the
//                                        simulator is its earliest.
//   buffer/block-conservation            a shard's packet buffer owns
//                                        exactly its free blocks plus the
//                                        blocks its ports' FIFOs hold,
//                                        in-flight delivery keys included:
//                                        no block leaked or handed out
//                                        twice.
//   port/busy-time-bounded               serialization time fits in [0, now]
//                                        (utilization figures depend on it).
//   switch/routing-conservation          every received packet was offered
//                                        to exactly one egress queue.
//   sim/time-monotone                    the simulated clock never runs
//                                        backwards (scheduler contract,
//                                        identical for heap and calendar
//                                        backends).
//   admission/invariants                 the controller's own invariant
//                                        sweep (for Aequitas: every
//                                        channel's p_admit in
//                                        [p_admit_floor, 1] — the §5.1
//                                        starvation guard and the AIMD
//                                        clamp of Algorithm 1; for the
//                                        ticket pool: non-negative
//                                        in-flight and a clamped limit;
//                                        for the bandit: Q-values inside
//                                        the reward hull; for SWP: pacing
//                                        rate and token bounds; for the
//                                        quota controller: its Aequitas
//                                        sweep plus the quota server's
//                                        non-negative grants and demands,
//                                        with per-QoS grants summing to at
//                                        most the operator budget — §5.2:
//                                        quota cannot over-promise the
//                                        admissible region).
//   admission/gauge-bounds               every introspection gauge
//                                        (rpc::Gauge) sits inside its
//                                        documented [lo, hi] and is finite
//                                        unless a bound is explicitly
//                                        unbounded.
//   transport/flow-invariants            cumulative-ACK stream ordering and
//                                        congestion-window bounds (Swift /
//                                        DCTCP window clamps, §6.1's
//                                        well-functioning-CC assumption).
//
// All closures only read the audited objects, so enabling the audit never
// perturbs the simulation trajectory. Violations abort via AEQ_CHECK_*
// (sim/assert.h) with operand values, sim time, and the check name.
#pragma once

#include <string>
#include <vector>

#include "audit/audit.h"

namespace aeq::net {
class Port;
class QueueDiscipline;
class Switch;
class WfqQueue;
}  // namespace aeq::net
namespace aeq::rpc {
class AdmissionController;
}  // namespace aeq::rpc
namespace aeq::sim {
class Simulator;
}  // namespace aeq::sim
namespace aeq::transport {
class HostStack;
}  // namespace aeq::transport
namespace aeq::util {
class BlockPool;
}  // namespace aeq::util

namespace aeq::audit {

// Conservation and counter-sanity checks for one queue discipline. When the
// discipline is a WfqQueue, the WFQ tag checks are attached too.
void register_queue_checks(Auditor& auditor, std::string component,
                           const net::QueueDiscipline& queue);

// WFQ virtual-time/tag invariants (normally attached via
// register_queue_checks; exposed for unit tests).
void register_wfq_checks(Auditor& auditor, std::string component,
                         const net::WfqQueue& queue);

// Link-level conservation and busy-time sanity for one port, plus the queue
// checks for its discipline.
void register_port_checks(Auditor& auditor, std::string component,
                          const net::Port& port, const sim::Simulator& sim);

// Block conservation of one packet buffer: `ports` must be every port
// whose FIFOs live in it.
void register_buffer_checks(Auditor& auditor, std::string component,
                            const util::BlockPool& buffer,
                            std::vector<const net::Port*> ports);

// Routing conservation across the switch plus port checks for every egress.
void register_switch_checks(Auditor& auditor, std::string component,
                            const net::Switch& fabric_switch,
                            const sim::Simulator& sim);

// Clock monotonicity of the simulation executive.
void register_simulator_checks(Auditor& auditor, const sim::Simulator& sim);

// Policy-agnostic admission-controller checks (any rpc::AdmissionController):
//   * invariants    — the controller's own audit_invariants() sweep
//   * gauge-bounds  — every gauge's value sits inside its documented
//                     [lo, hi] (rpc::Gauge), and is finite unless a bound
//                     is explicitly kGaugeUnbounded
void register_admission_checks(Auditor& auditor, std::string component,
                               const rpc::AdmissionController& controller,
                               const sim::Simulator& sim);

// Stream-ordering and congestion-window invariants for every flow of a
// host's transport stack.
void register_transport_checks(Auditor& auditor, std::string component,
                               const transport::HostStack& stack);

}  // namespace aeq::audit
