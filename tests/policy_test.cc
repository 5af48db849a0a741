// Admission-policy framework tests (src/policy/, DESIGN.md §13).
//
// Covers, in order:
//   * the registry (builtin names, unknown-kind abort),
//   * the admission spec reaching every host's controller,
//   * the AdmissionDecision drop contract (dropped => no completion
//     feedback, at the stack level and through the rejection adapter),
//   * per-policy unit behavior (windowed base mechanics, the one SLO
//     verdict on every path, ticket pool, bandit, SWP pacing, rejection
//     adapter),
//   * the determinism property: every registered policy produces identical
//     metrics and schedule digests for a fixed seed across repeated runs,
//     both scheduler backends, and shard counts 1/2/4, and
//   * gauge-bounds: every policy's gauges sit inside their documented
//     [lo, hi] after a real workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "policy/adapters.h"
#include "policy/bandit.h"
#include "policy/registry.h"
#include "policy/swp_pacing.h"
#include "policy/ticket_pool.h"
#include "policy/windowed.h"
#include "runner/experiment.h"
#include "sim/digest.h"
#include "workload/size_dist.h"

namespace aeq {
namespace {

rpc::SloConfig make_slo(std::size_t num_qos = 3) {
  if (num_qos == 2) {
    return rpc::SloConfig::make({2.0 * sim::kUsec, 0.0}, 99.0);
  }
  return rpc::SloConfig::make(
      {2.0 * sim::kUsec, 10.0 * sim::kUsec, 0.0}, 99.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(PolicyRegistry, BuiltinsRegisteredAndSorted) {
  const std::vector<std::string> names = policy::names();
  for (const char* kind :
       {policy::kAequitas, policy::kAlwaysAdmit, policy::kBandit,
        policy::kSwpPacing, policy::kTicketPool}) {
    EXPECT_TRUE(policy::is_registered(kind)) << kind;
    EXPECT_NE(std::find(names.begin(), names.end(), kind), names.end())
        << kind;
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_FALSE(policy::is_registered("no-such-policy"));
}

TEST(PolicyRegistryDeathTest, UnknownKindAbortsWithNameList) {
  policy::AdmissionSpec spec;
  spec.kind = "no-such-policy";
  policy::PolicyContext context;
  context.slo = make_slo();
  EXPECT_DEATH(policy::make_controller(spec, std::move(context)),
               "no-such-policy");
}

// ---------------------------------------------------------------------------
// The admission spec reaches every host
// ---------------------------------------------------------------------------

TEST(AdmissionSpec, AequitasKnobsReachTheController) {
  runner::ExperimentConfig config;
  config.num_hosts = 2;
  config.num_qos = 3;
  config.slo = make_slo();
  config.admission.aequitas.alpha = 0.05;
  config.admission.aequitas.p_admit_floor = 0.2;
  runner::Experiment experiment(config);
  ASSERT_NE(experiment.aequitas(0), nullptr);
  // MD can never push p_admit below the configured floor.
  for (int i = 0; i < 500; ++i) {
    experiment.admission(0).on_completion(0.0, 0, 1, net::kQoSHigh,
                                          net::kQoSHigh, 1.0, 8);
  }
  EXPECT_DOUBLE_EQ(experiment.aequitas(0)->p_admit(1, net::kQoSHigh), 0.2);
}

TEST(AdmissionSpecAlias, DisabledAequitasBecomesAlwaysAdmit) {
  runner::ExperimentConfig config;
  config.num_hosts = 2;
  config.num_qos = 3;
  config.slo = make_slo();
  config.admission.kind = policy::kAlwaysAdmit;
  runner::Experiment experiment(config);
  EXPECT_EQ(experiment.aequitas(0), nullptr);
  EXPECT_EQ(experiment.config().admission.kind, policy::kAlwaysAdmit);
}

// ---------------------------------------------------------------------------
// The drop contract: dropped => no completion feedback
// ---------------------------------------------------------------------------

// Counts feedback per requested QoS; drops every SLO-class issue.
class DropAllSloClasses final : public rpc::AdmissionController {
 public:
  explicit DropAllSloClasses(rpc::SloConfig slo) : slo_(std::move(slo)) {}

  rpc::AdmissionDecision admit(sim::Time, net::HostId, net::HostId,
                               net::QoSLevel qos_requested,
                               std::uint64_t) override {
    if (slo_.has_slo(qos_requested)) {
      ++drops_;
      return {qos_requested, false, true, 0.0};
    }
    return {qos_requested, false, false, 1.0};
  }
  void on_completion(sim::Time, net::HostId, net::HostId,
                     net::QoSLevel qos_requested, net::QoSLevel, sim::Time,
                     std::uint64_t) override {
    ++feedback_[qos_requested];
  }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t feedback(net::QoSLevel qos) const {
    const auto found = feedback_.find(qos);
    return found == feedback_.end() ? 0 : found->second;
  }

 private:
  rpc::SloConfig slo_;
  std::uint64_t drops_ = 0;
  std::map<net::QoSLevel, std::uint64_t> feedback_;
};

TEST(DropContract, DroppedRpcsGenerateNoCompletionFeedback) {
  runner::ExperimentConfig config;
  config.num_hosts = 2;
  config.num_qos = 3;
  config.slo = make_slo();
  DropAllSloClasses* probe = nullptr;
  config.admission.factory = [&probe, slo = config.slo](
                                 sim::Simulator&, net::HostId host,
                                 sim::Rng) {
    auto controller = std::make_unique<DropAllSloClasses>(slo);
    if (host == 0) probe = controller.get();
    return controller;
  };
  runner::Experiment experiment(config);
  ASSERT_NE(probe, nullptr);

  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.2 * sim::gbps(100), sizes, 0.0},
                 {rpc::Priority::kBE, 0.2 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(1));
  experiment.run(0.0, 0.5 * sim::kMsec, 0.2 * sim::kMsec);

  // Every SLO-class issue was dropped; none of them may feed back. The
  // scavenger class was admitted and completes normally.
  EXPECT_GT(probe->drops(), 0u);
  EXPECT_EQ(probe->feedback(net::kQoSHigh), 0u);
  EXPECT_EQ(probe->feedback(net::kQoSMid), 0u);
  EXPECT_GT(probe->feedback(net::kQoSLow), 0u);
  EXPECT_EQ(experiment.metrics().completed(net::kQoSHigh), 0u);
}

TEST(DropContract, RejectionAdapterConvertsDowngradesOnly) {
  auto inner = std::make_unique<DropAllSloClasses>(make_slo());
  // Wrap a policy that *downgrades* nothing: drops pass through untouched.
  policy::RejectionAdapter adapter(std::move(inner));
  const auto dropped = adapter.admit(0.0, 0, 1, net::kQoSHigh, 4096);
  EXPECT_TRUE(dropped.dropped);
  EXPECT_FALSE(dropped.downgraded);
  EXPECT_EQ(dropped.qos_run, net::kQoSHigh);

  // And a downgrading policy: the adapter rewrites the decision to a drop
  // that keeps the requested QoS and the inner p_admit.
  policy::TicketPoolConfig config;
  config.initial_concurrency = 1;
  config.min_concurrency = 1;
  auto pool = std::make_unique<policy::TicketPoolController>(
      config, 3, make_slo());
  policy::RejectionAdapter drop_pool(std::move(pool));
  EXPECT_FALSE(drop_pool.admit(0.0, 0, 1, net::kQoSHigh, 4096).dropped);
  const auto rejected = drop_pool.admit(0.0, 0, 1, net::kQoSHigh, 4096);
  EXPECT_TRUE(rejected.dropped);
  EXPECT_FALSE(rejected.downgraded);
  EXPECT_EQ(rejected.qos_run, net::kQoSHigh);
  EXPECT_DOUBLE_EQ(rejected.p_admit, 0.0);
}

// ---------------------------------------------------------------------------
// Windowed base mechanics
// ---------------------------------------------------------------------------

class WindowProbe final : public policy::WindowedController {
 public:
  WindowProbe(std::size_t num_qos, rpc::SloConfig slo)
      : WindowedController(num_qos, std::move(slo)) {}

  // Per on_window() call: windows_closed() at the call, and the decisions
  // made in the window it closed.
  std::vector<std::uint64_t> closed_at;
  std::vector<std::uint64_t> decisions;
  // The slo_met verdict of every on_feedback() call, in call order.
  std::vector<bool> verdicts;

 protected:
  void on_window() override {
    closed_at.push_back(windows_closed());
    decisions.push_back(open_decisions_);
    open_decisions_ = 0;
  }

  rpc::AdmissionDecision decide(sim::Time, net::HostId, net::HostId,
                                net::QoSLevel qos_requested,
                                std::uint64_t) override {
    ++open_decisions_;
    return {qos_requested, false, false, 1.0};
  }

  void on_feedback(sim::Time, net::HostId, net::QoSLevel, net::QoSLevel,
                   sim::Time, std::uint64_t, bool slo_met) override {
    verdicts.push_back(slo_met);
  }

 private:
  std::uint64_t open_decisions_ = 0;
};

TEST(WindowedController, ClosesEmptyWindowsAcrossIdleGaps) {
  WindowProbe probe(3, make_slo());  // 100us windows
  probe.admit(0.0, 0, 1, net::kQoSHigh, 4096);
  // A long idle gap: the next call first closes every window in between,
  // so window-indexed adaptation sees simulated time, not call counts.
  probe.admit(1050 * sim::kUsec, 0, 1, net::kQoSHigh, 4096);
  ASSERT_EQ(probe.decisions.size(), 10u);
  for (std::size_t w = 0; w < 10; ++w) {
    EXPECT_EQ(probe.closed_at[w], w + 1);
    EXPECT_EQ(probe.decisions[w], w == 0 ? 1u : 0u);
  }
  EXPECT_EQ(probe.windows_closed(), 10u);
}

TEST(WindowedController, FeedbackCarriesTheRequestedClassSloVerdict) {
  const sim::Time width = policy::kDefaultPolicyWindow;
  WindowProbe probe(3, make_slo());
  // QoS_h's target is 2us/MTU, so an 8-MTU RPC has a 16us budget. The
  // verdict is against the requested class, wherever the RPC ran.
  probe.on_completion(10 * sim::kUsec, 0, 1, net::kQoSHigh, net::kQoSHigh,
                      10 * sim::kUsec, 8);  // on time
  probe.on_completion(20 * sim::kUsec, 0, 1, net::kQoSHigh, net::kQoSLow,
                      100 * sim::kUsec, 8);  // late, ran as scavenger
  probe.on_completion(30 * sim::kUsec, 0, 1, net::kQoSLow, net::kQoSLow,
                      1 * sim::kUsec, 8);  // scavenger: no SLO to meet
  EXPECT_EQ(probe.verdicts, (std::vector<bool>{true, false, false}));
  EXPECT_TRUE(probe.closed_at.empty());

  // The first call past three window ends delivers one on_window() per
  // elapsed window before its own feedback.
  probe.on_completion(3 * width, 0, 1, net::kQoSHigh, net::kQoSHigh,
                      1 * sim::kUsec, 8);
  EXPECT_EQ(probe.closed_at, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(probe.verdicts.size(), 4u);
  EXPECT_EQ(probe.windows_closed(), 3u);
}

// One SLO verdict (rpc::SloConfig::met) on every path: an RPC whose RNL is
// exactly its absolute target meets its SLO in the metrics sink, in the
// RpcComplete event and in the windowed policies' feedback.
TEST(WindowedController, RpcExactlyAtTargetMeetsItsSloOnEveryPath) {
  // Completes every message on the spot, `rnl` after its issue at 0.
  struct FixedRnl final : transport::MessageTransport {
    sim::Time rnl = 0.0;
    void send_message(const transport::SendRequest& request,
                      transport::CompletionHandler on_complete) override {
      transport::MessageCompletion done;
      done.rpc_id = request.rpc_id;
      done.dst = request.dst;
      done.qos = request.qos;
      done.bytes = request.bytes;
      done.completed = rnl;
      on_complete(done);
    }
  };
  struct Verdicts final : obs::Sink {
    std::vector<bool> slo_met;
    void on_rpc_complete(const obs::RpcComplete& event) override {
      slo_met.push_back(event.slo_met);
    }
  };
  const rpc::SloConfig slo = make_slo();
  sim::Simulator s;
  FixedRnl transport;
  transport.rnl = slo.absolute_target(net::kQoSHigh, 1);
  WindowProbe probe(3, slo);
  rpc::RpcMetrics metrics(3, slo, 2, /*rnl_per_mtu=*/false);
  rpc::RpcStack stack(s, 0, transport, probe, metrics, rpc::RpcStackConfig{});
  Verdicts events;
  obs::Recorder recorder;
  recorder.add_sink(&events);
  stack.set_observer(&recorder);

  stack.issue(1, rpc::Priority::kPC, net::kMtuBytes);  // one MTU on QoS_h
  EXPECT_EQ(metrics.slo_met(net::kQoSHigh), 1u);
  EXPECT_EQ(events.slo_met, std::vector<bool>{true});
  EXPECT_EQ(probe.verdicts, std::vector<bool>{true});
}

// ---------------------------------------------------------------------------
// Ticket pool
// ---------------------------------------------------------------------------

TEST(TicketPool, RejectsWhenThePoolIsEmptyAndReleasesOnCompletion) {
  policy::TicketPoolConfig config;
  config.initial_concurrency = 2;
  config.min_concurrency = 1;
  policy::TicketPoolController pool(config, 3, make_slo());
  EXPECT_FALSE(pool.admit(0.0, 0, 1, net::kQoSHigh, 4096).downgraded);
  EXPECT_FALSE(pool.admit(0.0, 0, 1, net::kQoSMid, 4096).downgraded);
  // Pool exhausted: the third SLO-class issue is rejected to the scavenger.
  const auto rejected = pool.admit(0.0, 0, 1, net::kQoSHigh, 4096);
  EXPECT_TRUE(rejected.downgraded);
  EXPECT_EQ(rejected.qos_run, net::kQoSLow);
  EXPECT_DOUBLE_EQ(rejected.p_admit, 0.0);
  EXPECT_EQ(pool.tickets_in_flight(), 2);

  // Scavenger-requested traffic bypasses the pool.
  EXPECT_FALSE(pool.admit(0.0, 0, 1, net::kQoSLow, 4096).downgraded);
  EXPECT_EQ(pool.tickets_in_flight(), 2);

  // A ticketed completion frees a slot; the rejected RPC (which ran as
  // scavenger) and native scavenger completions release nothing.
  pool.on_completion(1 * sim::kUsec, 0, 1, net::kQoSHigh, net::kQoSHigh,
                     1 * sim::kUsec, 8);
  EXPECT_EQ(pool.tickets_in_flight(), 1);
  pool.on_completion(1 * sim::kUsec, 0, 1, net::kQoSHigh, net::kQoSLow,
                     1 * sim::kUsec, 8);
  EXPECT_EQ(pool.tickets_in_flight(), 1);
  EXPECT_FALSE(pool.admit(2 * sim::kUsec, 0, 1, net::kQoSHigh, 4096)
                   .downgraded);
}

TEST(TicketPool, ProbesUpWhenGoodputKeepsImproving) {
  policy::TicketPoolConfig config;
  config.initial_concurrency = 8;
  policy::TicketPoolController pool(config, 3, make_slo());
  const double initial = pool.concurrency_limit();
  // Feed windows of ever-increasing ticketed goodput: each probe-up is
  // adopted and the limit climbs monotonically.
  sim::Time now = 0.0;
  int per_window = 4;
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < per_window; ++i) {
      pool.admit(now, 0, 1, net::kQoSHigh, 4096);
      pool.on_completion(now, 0, 1, net::kQoSHigh, net::kQoSHigh,
                         1 * sim::kUsec, 1);
    }
    per_window += 2;
    now += policy::kDefaultPolicyWindow;
  }
  pool.admit(now, 0, 1, net::kQoSHigh, 4096);  // close the last window
  EXPECT_GT(pool.concurrency_limit(), initial);
  pool.audit_invariants(now);
}

// ---------------------------------------------------------------------------
// Bandit
// ---------------------------------------------------------------------------

TEST(Bandit, EpsilonDecaysToItsFloorAndActionStaysInRange) {
  policy::BanditConfig config;
  policy::BanditController bandit(config, 3, make_slo(), sim::Rng(7));
  EXPECT_DOUBLE_EQ(bandit.epsilon(), config.epsilon0);
  sim::Time now = 0.0;
  for (int w = 0; w < 400; ++w) {
    bandit.admit(now, 0, 1, net::kQoSHigh, 4096);
    bandit.on_completion(now, 0, 1, net::kQoSHigh, net::kQoSHigh,
                         1 * sim::kUsec, 1);
    now += policy::kDefaultPolicyWindow;
  }
  EXPECT_DOUBLE_EQ(bandit.epsilon(), config.epsilon_min);
  bool found = false;
  for (const double action : config.actions) {
    if (action == bandit.current_p_admit()) found = true;
  }
  EXPECT_TRUE(found);
  bandit.audit_invariants(now);
}

TEST(Bandit, AppliesItsActionAsTheAdmitProbability) {
  policy::BanditConfig config;
  config.actions = {0.0};  // a single all-reject action
  config.epsilon0 = 0.0;
  config.epsilon_min = 0.0;
  policy::BanditController bandit(config, 3, make_slo(), sim::Rng(7));
  for (int i = 0; i < 200; ++i) {
    const auto decision = bandit.admit(0.0, 0, 1, net::kQoSHigh, 4096);
    ASSERT_TRUE(decision.downgraded);
    ASSERT_EQ(decision.qos_run, net::kQoSLow);
  }
  // The scavenger class is never gated, whatever the action.
  EXPECT_FALSE(bandit.admit(0.0, 0, 1, net::kQoSLow, 4096).downgraded);
}

double gauge_value(const rpc::AdmissionController& controller,
                   const char* name) {
  for (const rpc::Gauge& gauge : controller.gauges()) {
    if (std::string(gauge.name) == name) return gauge.value;
  }
  ADD_FAILURE() << "no gauge " << name;
  return 0.0;
}

TEST(Bandit, RewardIsWorstSloComplianceOverTheWindow) {
  policy::BanditConfig config;
  config.actions = {1.0};
  config.epsilon0 = 0.0;
  config.epsilon_min = 0.0;
  policy::BanditController bandit(config, 3, make_slo(), sim::Rng(7));
  // Window 0: 16 KiB admitted on QoS_h and 64 KiB on the scavenger class,
  // so the SLO byte share is 0.2 (mix band low).
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(bandit.admit(0.0, 0, 1, net::kQoSHigh, 4096).downgraded);
  }
  bandit.admit(0.0, 0, 1, net::kQoSLow, 64 * 1024);
  // 8-MTU RPCs against a 16us budget: three on time, one late, so QoS_h
  // compliance is 0.75 and the mean normalized RNL (1.375us/MTU) sits
  // under 0.8x the 2us/MTU target (RNL band under).
  for (int i = 0; i < 3; ++i) {
    bandit.on_completion(10 * sim::kUsec, 0, 1, net::kQoSHigh,
                         net::kQoSHigh, 8 * sim::kUsec, 8);
  }
  bandit.on_completion(10 * sim::kUsec, 0, 1, net::kQoSHigh, net::kQoSHigh,
                       20 * sim::kUsec, 8);
  bandit.admit(policy::kDefaultPolicyWindow, 0, 1, net::kQoSLow, 4096);
  // Nothing was rejected, so the reward is the compliance itself.
  EXPECT_EQ(gauge_value(bandit, "state"), 0.0);
  EXPECT_DOUBLE_EQ(gauge_value(bandit, "q_current"),
                   1.0 + 0.2 * (0.75 - 1.0));
}

TEST(Bandit, RewardChargesTheRejectedShareOfDecisions) {
  policy::BanditConfig config;
  config.actions = {0.0};
  config.epsilon0 = 0.0;
  config.epsilon_min = 0.0;
  policy::BanditController bandit(config, 3, make_slo(), sim::Rng(7));
  // Three QoS_h requests, all rejected, and one ungated scavenger request:
  // 3 of 4 decisions rejected, no completions (compliance 1).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bandit.admit(0.0, 0, 1, net::kQoSHigh, 8 * 4096).downgraded);
  }
  bandit.admit(0.0, 0, 1, net::kQoSLow, 8 * 4096);
  bandit.admit(policy::kDefaultPolicyWindow, 0, 1, net::kQoSLow, 4096);
  EXPECT_EQ(gauge_value(bandit, "state"), 0.0);
  EXPECT_DOUBLE_EQ(gauge_value(bandit, "q_current"),
                   1.0 + 0.2 * ((1.0 - 0.5 * 0.75) - 1.0));
}

TEST(BanditDeathTest, RejectsMalformedActionSets) {
  policy::BanditConfig config;
  config.actions = {};
  EXPECT_DEATH(policy::BanditController(config, 3, make_slo(), sim::Rng(1)),
               "action");
}

// ---------------------------------------------------------------------------
// SWP pacing
// ---------------------------------------------------------------------------

TEST(SwpPacing, CollapsesAdmittedTrafficToOneClassAndSpillsOverBudget) {
  policy::SwpPacingConfig config;
  config.initial_rate_fraction = 0.5;
  policy::SwpPacingController swp(config, 3, make_slo(), sim::gbps(100),
                                  /*drop_rejects=*/false);
  // In budget: every class runs on the single paced class (QoS_h), even a
  // scavenger request — SWP has no priorities.
  const auto high = swp.admit(0.0, 0, 1, net::kQoSHigh, 4096);
  EXPECT_EQ(high.qos_run, net::kQoSHigh);
  EXPECT_FALSE(high.downgraded);
  const auto low = swp.admit(0.0, 0, 1, net::kQoSLow, 4096);
  EXPECT_EQ(low.qos_run, net::kQoSHigh);

  // Exhaust the token bucket at t=0 (capacity = two windows at the pacing
  // rate): over-budget issues spill to the scavenger class as downgrades.
  bool spilled = false;
  for (int i = 0; i < 100000 && !spilled; ++i) {
    const auto decision = swp.admit(0.0, 0, 1, net::kQoSHigh, 64 * 1024);
    if (decision.downgraded) {
      EXPECT_EQ(decision.qos_run, net::kQoSLow);
      spilled = true;
    }
  }
  EXPECT_TRUE(spilled);
  swp.audit_invariants(0.0);
}

TEST(SwpPacing, DropVariantDropsInsteadOfSpilling) {
  policy::SwpPacingConfig config;
  config.initial_rate_fraction = 0.1;
  policy::SwpPacingController swp(config, 3, make_slo(), sim::gbps(100),
                                  /*drop_rejects=*/true);
  bool dropped = false;
  for (int i = 0; i < 100000 && !dropped; ++i) {
    const auto decision = swp.admit(0.0, 0, 1, net::kQoSHigh, 64 * 1024);
    EXPECT_FALSE(decision.downgraded);
    dropped = decision.dropped;
  }
  EXPECT_TRUE(dropped);
}

TEST(SwpPacing, SlowsDownUnderSustainedSloViolations) {
  policy::SwpPacingConfig config;
  config.initial_rate_fraction = 0.9;
  policy::SwpPacingController swp(config, 3, make_slo(), sim::gbps(100),
                                  false);
  sim::Time now = 0.0;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 8; ++i) {
      swp.admit(now, 0, 1, net::kQoSHigh, 4096);
      // Way over the 2us/MTU target: every window is violating.
      swp.on_completion(now, 0, 1, net::kQoSHigh, net::kQoSHigh,
                        1 * sim::kMsec, 1);
    }
    now += policy::kDefaultPolicyWindow;
  }
  swp.admit(now, 0, 1, net::kQoSHigh, 4096);
  EXPECT_LT(swp.rate_fraction(), config.initial_rate_fraction);
  EXPECT_GE(swp.rate_fraction(), 0.05);  // the pacing floor
  swp.audit_invariants(now);
}

// ---------------------------------------------------------------------------
// Determinism and gauge-bounds properties over a real workload
// ---------------------------------------------------------------------------

struct PolicyRun {
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::uint64_t downgraded = 0;
  std::uint64_t bytes = 0;
};

PolicyRun run_policy_workload(const std::string& kind, std::size_t shards,
                              sim::SchedulerBackend backend,
                              std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.scheduler_backend = backend;
  config.num_hosts = 8;
  config.num_qos = 3;
  config.admission.kind = kind;
  config.slo = make_slo();
  config.shards = shards;
  config.audit = true;
  config.schedule_digest = true;
  config.seed = seed;

  runner::Experiment experiment(config);
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(16 * sim::kKiB));
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    workload::GeneratorConfig gen;
    gen.classes = {
        {rpc::Priority::kPC, 0.5 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kNC, 0.4 * sim::gbps(100), sizes, 0.0},
        {rpc::Priority::kBE, 0.3 * sim::gbps(100), sizes, 0.0}};
    experiment.add_generator(static_cast<net::HostId>(h), gen);
  }
  experiment.run(0.2 * sim::kMsec, 0.8 * sim::kMsec, 0.5 * sim::kMsec);

  // While the run is hot, assert every host's gauges respect their
  // documented bounds (the audit's gauge-bounds check, run unconditionally
  // here so it also covers AEQ_AUDIT=OFF builds).
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    for (const rpc::Gauge& gauge :
         experiment.admission(static_cast<net::HostId>(h)).gauges()) {
      EXPECT_GE(gauge.value, gauge.lo) << kind << " gauge " << gauge.name;
      EXPECT_LE(gauge.value, gauge.hi) << kind << " gauge " << gauge.name;
    }
  }

  PolicyRun result;
  result.digest = experiment.schedule_digest().canonical();
  const auto& metrics = experiment.metrics();
  result.completed = metrics.total_completed();
  for (net::QoSLevel q = 0; q < 3; ++q) {
    result.downgraded += metrics.downgraded(q);
    result.bytes += metrics.bytes_completed(q);
  }
  return result;
}

class PolicyDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyDeterminismTest, SameSeedSameMetricsAndDigest) {
  const PolicyRun a = run_policy_workload(
      GetParam(), 1, sim::SchedulerBackend::kCalendar, 42);
  const PolicyRun b = run_policy_workload(
      GetParam(), 1, sim::SchedulerBackend::kCalendar, 42);
  ASSERT_GT(a.completed, 100u) << "workload too light to mean anything";
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.downgraded, b.downgraded);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST_P(PolicyDeterminismTest, BackendsAgree) {
  const PolicyRun heap =
      run_policy_workload(GetParam(), 1, sim::SchedulerBackend::kHeap, 42);
  const PolicyRun cal = run_policy_workload(
      GetParam(), 1, sim::SchedulerBackend::kCalendar, 42);
  EXPECT_EQ(heap.digest, cal.digest);
  EXPECT_EQ(heap.completed, cal.completed);
  EXPECT_EQ(heap.downgraded, cal.downgraded);
  EXPECT_EQ(heap.bytes, cal.bytes);
}

TEST_P(PolicyDeterminismTest, ShardCountsOneTwoFourAgree) {
  const PolicyRun serial = run_policy_workload(
      GetParam(), 1, sim::SchedulerBackend::kCalendar, 42);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const PolicyRun sharded = run_policy_workload(
        GetParam(), shards, sim::SchedulerBackend::kCalendar, 42);
    EXPECT_EQ(serial.digest, sharded.digest) << shards << " shards";
    EXPECT_EQ(serial.completed, sharded.completed) << shards << " shards";
    EXPECT_EQ(serial.downgraded, sharded.downgraded) << shards << " shards";
    EXPECT_EQ(serial.bytes, sharded.bytes) << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDeterminismTest,
    ::testing::Values(policy::kAequitas, policy::kAlwaysAdmit,
                      policy::kBandit, policy::kSwpPacing,
                      policy::kTicketPool),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace aeq
