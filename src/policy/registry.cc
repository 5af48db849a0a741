#include "policy/registry.h"

#include <functional>
#include <map>
#include <utility>

#include "core/aequitas.h"
#include "policy/adapters.h"
#include "policy/bandit.h"
#include "policy/swp_pacing.h"
#include "policy/ticket_pool.h"
#include "sim/assert.h"

namespace aeq::policy {

namespace {

using Registry =
    std::map<std::string,
             std::function<std::unique_ptr<rpc::AdmissionController>(
                 const AdmissionSpec&, const PolicyContext&)>>;

std::unique_ptr<rpc::AdmissionController> wrap_rejections(
    std::unique_ptr<rpc::AdmissionController> inner, bool drop_rejects) {
  if (!drop_rejects) return inner;
  return std::make_unique<RejectionAdapter>(std::move(inner));
}

Registry builtin_registry() {
  Registry registry;
  registry[kAequitas] = [](const AdmissionSpec& spec,
                           const PolicyContext& context) {
    core::AequitasConfig config;
    config.alpha = spec.aequitas.alpha;
    config.beta_per_mtu = spec.aequitas.beta_per_mtu;
    config.p_admit_floor = spec.aequitas.p_admit_floor;
    config.slo = context.slo;
    return wrap_rejections(std::make_unique<core::AequitasController>(
                               config, context.rng),
                           spec.drop_rejects);
  };
  registry[kAlwaysAdmit] = [](const AdmissionSpec&, const PolicyContext&) {
    return std::make_unique<rpc::AlwaysAdmit>();
  };
  registry[kTicketPool] = [](const AdmissionSpec& spec,
                             const PolicyContext& context) {
    return wrap_rejections(
        std::make_unique<TicketPoolController>(TicketPoolConfig{},
                                               context.num_qos, context.slo),
        spec.drop_rejects);
  };
  registry[kBandit] = [](const AdmissionSpec& spec,
                         const PolicyContext& context) {
    return wrap_rejections(
        std::make_unique<BanditController>(BanditConfig{}, context.num_qos,
                                           context.slo, context.rng),
        spec.drop_rejects);
  };
  registry[kSwpPacing] = [](const AdmissionSpec& spec,
                            const PolicyContext& context) {
    // SWP rejects by dropping (or unpaced scavenger spillover) natively;
    // drop_rejects selects between the two inside the policy.
    return std::make_unique<SwpPacingController>(
        SwpPacingConfig{}, context.num_qos, context.slo, context.link_rate,
        spec.drop_rejects);
  };
  return registry;
}

const Registry& registry() {
  static const Registry instance = builtin_registry();
  return instance;
}

}  // namespace

bool is_registered(const std::string& kind) {
  return registry().count(kind) != 0;
}

std::vector<std::string> names() {
  std::vector<std::string> result;
  result.reserve(registry().size());
  for (const auto& [kind, factory] : registry()) {
    result.push_back(kind);
  }
  return result;  // std::map: already sorted
}

std::unique_ptr<rpc::AdmissionController> make_controller(
    const AdmissionSpec& spec, PolicyContext context) {
  const auto it = registry().find(spec.kind);
  if (it == registry().end()) {
    std::string message = "unknown admission policy kind \"" + spec.kind +
                          "\"; registered kinds:";
    for (const std::string& kind : names()) message += " " + kind;
    AEQ_ASSERT_MSG(false, message.c_str());
  }
  return it->second(spec, context);
}

}  // namespace aeq::policy
