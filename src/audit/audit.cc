#include "audit/audit.h"

#include <algorithm>
#include <utility>

#include "obs/prof/profiler.h"

namespace aeq::audit {

void Auditor::add_check(std::string component, std::string name,
                        CheckFn fn) {
  AEQ_ASSERT_MSG(fn != nullptr, "audit check needs a body");
  Check check;
  check.qualified = component + "/" + name;
  check.component = std::move(component);
  check.name = std::move(name);
  check.fn = std::move(fn);
  checks_.push_back(std::move(check));
}

void Auditor::run_all() {
  const obs::prof::ProfRegion prof(obs::prof::Region::kAudit);
  for (Check& check : checks_) {
    // Expose the check's name to AEQ_CHECK_* failure reports; the string
    // outlives the call (owned by checks_, stable across push_backs because
    // run_all never registers).
    detail::g_audit_check = check.qualified.c_str();
    check.fn();
    ++check.evaluations;
  }
  detail::g_audit_check = nullptr;
  ++passes_;
}

Report Auditor::report() const {
  Report report;
  report.entries.reserve(checks_.size());
  for (const Check& check : checks_) {
    report.entries.push_back(
        Report::Entry{check.component, check.name, check.evaluations});
    report.total_evaluations += check.evaluations;
  }
  // Deterministic report order by contract: sorted by (component, name),
  // independent of registration order, so serialized reports diff cleanly
  // across code motion that re-orders component construction. stable_sort
  // keeps duplicate registrations in registration order.
  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const Report::Entry& a, const Report::Entry& b) {
                     if (a.component != b.component)
                       return a.component < b.component;
                     return a.name < b.name;
                   });
  return report;
}

std::size_t Report::num_components() const {
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const Entry& entry : entries) names.push_back(entry.component);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names.size();
}

}  // namespace aeq::audit
