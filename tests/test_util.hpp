// Shared helpers for the hiperbot test suite: small canned parameter
// spaces and objectives used across module tests.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd_tier.hpp"
#include "space/parameter_space.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb::testutil {

/// Every SIMD tier this binary can actually run: scalar always; vector
/// tiers when compiled in AND supported by the CPU.
inline std::vector<SimdTier> runnable_simd_tiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  for (const SimdTier t :
       {SimdTier::kAvx2, SimdTier::kAvx512, SimdTier::kNeon}) {
    if (simd_tier_available(t)) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

/// Restores HPB_SIMD (and the cached tier decision) no matter how a test
/// exits, so override tests cannot leak into the rest of the binary.
class SimdEnvGuard {
 public:
  SimdEnvGuard() {
    if (const char* old = std::getenv("HPB_SIMD")) {
      saved_ = old;
    }
  }
  ~SimdEnvGuard() {
    if (saved_.has_value()) {
      ::setenv("HPB_SIMD", saved_->c_str(), 1);
    } else {
      ::unsetenv("HPB_SIMD");
    }
    refresh_simd_tier();
  }
  SimdEnvGuard(const SimdEnvGuard&) = delete;
  SimdEnvGuard& operator=(const SimdEnvGuard&) = delete;

  void set(const std::string& value) {
    ::setenv("HPB_SIMD", value.c_str(), 1);
    refresh_simd_tier();
  }
  /// Force `tier` through its HPB_SIMD value ("off" for scalar).
  void force(SimdTier tier) {
    set(tier == SimdTier::kScalar ? "off" : std::string(simd_tier_name(tier)));
  }

 private:
  std::optional<std::string> saved_;
};

/// 3-parameter all-discrete space: A (4 levels), B (3 numeric levels),
/// C (integer 0..4) — 60 configurations, no constraints.
inline space::SpacePtr small_discrete_space() {
  auto s = std::make_shared<space::ParameterSpace>();
  s->add(space::Parameter::categorical("A", {"a0", "a1", "a2", "a3"}));
  s->add(space::Parameter::categorical_numeric("B", {1, 2, 4}));
  s->add(space::Parameter::integer("C", 0, 4));
  return s;
}

/// Mixed space: one categorical (3 levels) + one continuous in [0, 10].
inline space::SpacePtr mixed_space() {
  auto s = std::make_shared<space::ParameterSpace>();
  s->add(space::Parameter::categorical("cat", {"x", "y", "z"}));
  s->add(space::Parameter::continuous("t", 0.0, 10.0));
  return s;
}

/// Deterministic separable objective on small_discrete_space():
/// f = (A-1)² + (B-2)² + (C-3)² + 1; unique optimum at levels (1, 2, 3)
/// with value 1.
inline double separable_value(const space::Configuration& c) {
  const double a = static_cast<double>(c.level(0)) - 1.0;
  const double b = static_cast<double>(c.level(1)) - 2.0;
  const double d = static_cast<double>(c.level(2)) - 3.0;
  return a * a + b * b + d * d + 1.0;
}

/// The separable objective as a frozen dataset.
inline tabular::TabularObjective separable_dataset() {
  return tabular::TabularObjective::from_function(
      "separable", small_discrete_space(), separable_value);
}

/// What random_conditional_space registered, so a test can re-derive
/// validity without going through ParameterSpace.
struct RandomSpaceSpec {
  std::vector<std::size_t> levels;  // level l of every parameter is 2^l
  /// Per parameter: SIZE_MAX when unconditional, else the parent index.
  std::vector<std::size_t> parent;
  /// Per parameter: activating parent levels (empty when unconditional).
  std::vector<std::vector<std::size_t>> active_levels;
  /// (divisor, dividend) pairs, in registration order.
  std::vector<std::pair<std::size_t, std::size_t>> divisibility;
};

/// A seeded random all-discrete space: 3-6 power-of-two numeric parameters,
/// roughly half of the later ones conditional on a *proper* subset of an
/// earlier parent's values, plus up to two divisibility constraints. Level 0
/// always carries the value 1, so the all-sentinel configuration satisfies
/// every divisibility constraint and the valid set is never empty. Shared by
/// the space property suite and the SIMD dispatch-parity suite; `spec`, when
/// given, receives the registered structure.
inline space::SpacePtr random_conditional_space(
    std::uint64_t seed, RandomSpaceSpec* spec = nullptr) {
  Rng rng(seed);
  auto s = std::make_shared<space::ParameterSpace>();
  RandomSpaceSpec local;
  RandomSpaceSpec& out = spec != nullptr ? *spec : local;
  out = RandomSpaceSpec{};
  const std::size_t n = 3 + rng.index(4);
  std::vector<std::size_t> levels(n);
  for (std::size_t i = 0; i < n; ++i) {
    levels[i] = 2 + rng.index(4);
    std::vector<double> values;
    for (std::size_t l = 0; l < levels[i]; ++l) {
      values.push_back(static_cast<double>(1ULL << l));
    }
    space::Parameter p =
        space::Parameter::categorical_numeric("p" + std::to_string(i), values);
    const bool conditional = i > 0 && rng.index(2) == 0;
    out.levels.push_back(levels[i]);
    out.parent.push_back(SIZE_MAX);
    out.active_levels.emplace_back();
    if (conditional) {
      const std::size_t parent = rng.index(i);
      // A proper subset of the parent's levels (add_conditional rejects
      // always-active children by design).
      std::vector<std::size_t> order(levels[parent]);
      for (std::size_t l = 0; l < order.size(); ++l) {
        order[l] = l;
      }
      for (std::size_t l = order.size(); l > 1; --l) {
        std::swap(order[l - 1], order[rng.index(l)]);
      }
      const std::size_t count = 1 + rng.index(levels[parent] - 1);
      std::vector<double> active;
      for (std::size_t l = 0; l < count; ++l) {
        active.push_back(static_cast<double>(1ULL << order[l]));
        out.active_levels.back().push_back(order[l]);
      }
      out.parent.back() = parent;
      s->add_conditional(std::move(p), "p" + std::to_string(parent), active);
    } else {
      s->add(std::move(p));
    }
  }
  const std::size_t num_constraints = rng.index(3);
  for (std::size_t t = 0; t < num_constraints; ++t) {
    const std::size_t a = rng.index(n);
    const std::size_t b = rng.index(n);
    if (a != b) {
      s->add_divisibility("p" + std::to_string(a), "p" + std::to_string(b));
      out.divisibility.emplace_back(a, b);
    }
  }
  return s;
}

}  // namespace hpb::testutil
