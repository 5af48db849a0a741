// Invariant-audit registry (the machine-checked safety net for the paper's
// accounting-sensitive claims).
//
// Aequitas' WFQ delay bounds (§4, Appendix B) are derived from virtual-time
// and conservation invariants of the queueing plane; a silent accounting bug
// skews a figure without failing a test. The audit layer makes those
// invariants executable: core components register named checks with an
// Auditor, the experiment harness evaluates the registry periodically during
// a run and once at the end, and any violation aborts loudly through the
// AEQ_CHECK_* macros (sim/assert.h), printing the operand values, the
// simulated time, and the name of the violated check.
//
// Two knobs gate the cost:
//   * runtime: ExperimentConfig::audit decides whether an experiment builds
//     and evaluates a registry at all (cold-path, poll-based checks);
//   * compile time: -DAEQ_AUDIT additionally enables per-event hot-path
//     hooks (AEQ_AUDIT_ONLY in sim/, net/, core/, transport/) and flips the
//     runtime default on (kBuildEnabled).
//
// See src/audit/checks.h for the invariant catalogue and DESIGN.md §8 for
// the mapping from each check to the paper property it guards.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/assert.h"

namespace aeq::audit {

// True when the library was compiled with -DAEQ_AUDIT (CMake option
// AEQ_AUDIT=ON): hot-path hooks are active and runtime auditing defaults on.
inline constexpr bool kBuildEnabled = AEQ_AUDIT_ENABLED != 0;

// End-of-run summary: which invariants were evaluated how often, per
// component. A run that aborts never produces one, so a report with nonzero
// evaluations is itself the "zero violations" statement for CI.
// Entries are sorted by (component, name), independent of check
// registration order (DESIGN.md §12).
struct Report {
  struct Entry {
    std::string component;
    std::string name;
    std::uint64_t evaluations = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total_evaluations = 0;

  std::size_t num_components() const;
};

// Registry of named invariant checks. A check is a closure that reads
// component state and asserts its invariants via AEQ_CHECK_*; a violation
// aborts the process (a corrupted run must not produce a figure). The
// Auditor only schedules, counts, and reports.
class Auditor {
 public:
  using CheckFn = std::function<void()>;

  // Registers `fn` as invariant `name` of `component`. The closure must
  // only read the audited component (checks run interleaved with the
  // simulation and must not perturb it).
  void add_check(std::string component, std::string name, CheckFn fn);

  // Evaluates every registered check once, in registration order.
  void run_all();

  std::size_t num_checks() const { return checks_.size(); }

  // Number of completed run_all() sweeps.
  std::uint64_t passes() const { return passes_; }

  Report report() const;

 private:
  struct Check {
    std::string component;
    std::string name;
    std::string qualified;  // "component/name", for failure reports
    CheckFn fn;
    std::uint64_t evaluations = 0;
  };

  std::vector<Check> checks_;
  std::uint64_t passes_ = 0;
};

}  // namespace aeq::audit
