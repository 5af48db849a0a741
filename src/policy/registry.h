// The admission-policy registry: a fixed table mapping each built-in
// policy kind to its controller constructor. The experiment harness
// resolves ExperimentConfig::admission (an AdmissionSpec) through
// make_controller() once per host; benches and tests enumerate names() to
// sweep every built-in policy. Caller-built controllers go through
// AdmissionSpec::factory instead. The table is immutable, so concurrent
// experiment construction (SweepRunner workers) reads it safely.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "policy/spec.h"
#include "rpc/admission.h"
#include "rpc/slo.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace aeq::policy {

// Everything a factory may consult when building one host's controller.
// `rng` is the host's private stream, pre-forked by the experiment seeder;
// factories that need randomness must draw only from it.
struct PolicyContext {
  net::HostId host = 0;
  std::size_t num_qos = 3;
  rpc::SloConfig slo;
  sim::Rate link_rate = 0.0;
  sim::Rng rng{0};
};

bool is_registered(const std::string& kind);

// Built-in kinds in sorted order (stable for sweeps and --controller=all).
std::vector<std::string> names();

// Builds one host's controller for `spec`. Unknown kinds abort with the
// registered name list; spec.factory, when set, is NOT consulted here
// (the experiment resolves the escape hatch before reaching the registry).
// Policies whose rejections are downgrades honor spec.drop_rejects by
// wrapping themselves in RejectionAdapter.
std::unique_ptr<rpc::AdmissionController> make_controller(
    const AdmissionSpec& spec, PolicyContext context);

}  // namespace aeq::policy
