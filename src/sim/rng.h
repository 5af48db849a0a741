// Deterministic random number generation for simulations.
//
// Every stochastic component takes an explicit Rng (seeded by the experiment
// config) so that runs are reproducible and components can be reseeded
// independently. No global RNG state (C++ Core Guidelines I.2/I.3).
#pragma once

#include <cstdint>
#include <random>

#include "sim/assert.h"

namespace aeq::sim {

// SplitMix64 finalizer (Steele, Lea & Flood / Stafford mix13): bijective on
// uint64, so distinct inputs always yield distinct outputs. Pure integer
// arithmetic — the value is identical on every platform and compiler.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;  // golden-ratio increment
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Derives the seed for sweep point `index` from a base seed: element
// `index` of the SplitMix64 stream whose state walks from `base` in
// golden-ratio steps. Distinct (base, index) pairs map to distinct seeds
// for any fixed base (the finalizer is a bijection over the stepped
// state), so parallel sweep points never share an RNG stream, and the
// derivation involves no floating point — same value everywhere, forever.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  return splitmix64(base + index * 0x9E3779B97F4A7C15ull);
}

// A thin, deterministic wrapper around std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    AEQ_DCHECK(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, n).
  std::uint64_t index(std::uint64_t n) {
    AEQ_DCHECK(n > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

  // Exponentially distributed value with the given mean.
  double exponential(double mean) {
    AEQ_DCHECK(mean > 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Derives a new independent generator; useful for giving each component
  // its own stream.
  Rng fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace aeq::sim
