// ParameterSpace: an ordered collection of Parameters plus optional
// constraint predicates, with enumeration (finite spaces), uniform sampling,
// ordinal <-> configuration mapping, and pretty-printing.
//
// Spaces may be *conditional* (tree-structured): add_conditional() registers
// a parameter that is active only under given values of an earlier discrete
// parent. Inactive parameters always hold a canonical sentinel (level 0 for
// discrete, lo() for continuous), so two configurations that agree on every
// active parameter are bitwise-equal — Configuration equality, ordinals,
// journaling, and CSV round-trips need no special casing. satisfies()
// rejects non-canonical configurations, which keeps enumerate(), sampling,
// and streamed candidate generation consistent without touching callers.
//
// Conditionals and divisibility rules are compiled onto level indices as
// they are registered (space/level_rules.hpp): satisfies(), enumerate() and
// streamed generation all check the same compiled rules, and only opaque
// add_constraint() predicates need a Configuration. Streamed generation
// first tests each ordinal against prefix_filter(), the rules over the
// leading parameters compiled once per space into a bitset; its AVX-512
// path reads the same rules from rule_tables(), compiled beside it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "space/configuration.hpp"
#include "space/level_rules.hpp"
#include "space/parameter.hpp"

namespace hpb::space {

class ParameterSpace;

/// Predicate deciding whether a configuration is valid (e.g. "ranks × omp
/// must not exceed the node's core count"). Invalid configurations are
/// excluded from enumeration and rejected by sampling.
using Constraint = std::function<bool(const ParameterSpace&,
                                      const Configuration&)>;

class ParameterSpace {
 public:
  /// Largest unconstrained cross product enumerate() will walk; larger
  /// spaces throw SpaceTooLargeError and must use streamed generation.
  static constexpr std::uint64_t kMaxEnumerate = 1ULL << 26;

  ParameterSpace& add(Parameter p);
  ParameterSpace& add_constraint(Constraint c, std::string description = "");

  /// Add a parameter that is active only when the (earlier, discrete)
  /// parent parameter takes one of `active_values` (matched against the
  /// parent's level_value()s). When inactive the parameter holds its
  /// canonical sentinel. Parents may themselves be conditional; a child is
  /// active only if its whole ancestor chain is.
  ParameterSpace& add_conditional(Parameter p, const std::string& parent,
                                  const std::vector<double>& active_values);

  /// Label-matched overload for categorical parents.
  ParameterSpace& add_conditional(Parameter p, const std::string& parent,
                                  const std::vector<std::string>& active_labels);

  /// Register the constraint "value(divisor) divides value(dividend)"
  /// between two discrete numeric parameters. Vacuously true whenever
  /// either side is inactive, so it composes with add_conditional().
  /// Compiled to a level-pair accept table, not an opaque predicate.
  ParameterSpace& add_divisibility(const std::string& divisor,
                                   const std::string& dividend);

  [[nodiscard]] std::size_t num_params() const noexcept {
    return params_.size();
  }
  [[nodiscard]] const Parameter& param(std::size_t i) const {
    HPB_REQUIRE(i < params_.size(), "param: index out of range");
    return params_[i];
  }
  /// Index of the parameter with the given name; throws if absent.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  /// True when every parameter is discrete, so the space can be enumerated.
  [[nodiscard]] bool is_finite() const noexcept;

  /// Product of level counts over all (discrete) parameters, ignoring
  /// constraints. Finite spaces only. Throws SpaceTooLargeError if the
  /// product does not fit in 64 bits (instead of silently wrapping).
  [[nodiscard]] std::uint64_t cross_product_size() const;

  /// Overflow-safe check whether the unconstrained cross product exceeds
  /// `limit`. Never throws on huge spaces — use this to route between the
  /// eager and streaming paths.
  [[nodiscard]] bool cross_product_exceeds(std::uint64_t limit) const;

  /// Mixed-radix ordinal of a configuration (finite spaces only). Ordinals
  /// index the unconstrained cross product; they are stable identifiers.
  [[nodiscard]] std::uint64_t ordinal_of(const Configuration& c) const;

  /// Inverse of ordinal_of.
  [[nodiscard]] Configuration configuration_at(std::uint64_t ordinal) const;

  /// The configuration holding levels[0 .. num_params()) (finite spaces).
  [[nodiscard]] Configuration configuration_from_levels(
      const std::uint32_t* levels) const;

  /// satisfies(configuration_at(ordinal)), computed on levels: the compiled
  /// rules decode `ordinal` into `levels` (num_params() slots) lazily and
  /// stop at the first failed rule; a Configuration is built only when
  /// opaque predicates are registered and every compiled rule passed. On
  /// true, `levels` holds the configuration's levels. Finite spaces whose
  /// cross product fits in 64 bits; `ordinal` below it.
  [[nodiscard]] bool accepts_ordinal(std::uint64_t ordinal,
                                     std::uint32_t* levels) const {
    return level_rules_.accepts(ordinal, levels) && accepts_predicates(levels);
  }

  /// True when opaque add_constraint() predicates are registered.
  [[nodiscard]] bool has_predicates() const noexcept {
    return !constraints_.empty();
  }

  /// The opaque predicates on the configuration holding
  /// levels[0 .. num_params()): true when none are registered, and a
  /// Configuration is built only when some are.
  [[nodiscard]] bool accepts_predicates(const std::uint32_t* levels) const {
    return constraints_.empty() ||
           satisfies_predicates(configuration_from_levels(levels));
  }

  /// The compiled rules over the space's leading parameters as one bit per
  /// combination of their levels (PrefixFilter in space/level_rules.hpp):
  /// passes(ordinal) is false only where accepts_ordinal() is false too.
  /// Compiled on the first call after the last add_*, once per space, and
  /// safe to call from several threads at once; inactive when no compiled
  /// rule lies in the prefix.
  [[nodiscard]] const PrefixFilter& prefix_filter() const {
    return level_rules_.prefix_filter();
  }

  /// The compiled rules laid out for lane-parallel evaluation (RuleTables
  /// in space/level_rules.hpp), cached beside prefix_filter() under the
  /// same rules: compiled once, on first use, and thread-safe.
  [[nodiscard]] const RuleTables& rule_tables() const {
    return level_rules_.rule_tables();
  }

  /// True when the space has at least one conditional parameter.
  [[nodiscard]] bool has_conditionals() const noexcept {
    return has_conditionals_;
  }

  /// True when parameter i was registered via add_conditional().
  [[nodiscard]] bool is_conditional(std::size_t i) const;

  /// Parent index of a conditional parameter (throws for unconditional).
  [[nodiscard]] std::size_t parent_of(std::size_t i) const;

  /// True when parameter i is active in c: unconditional, or its whole
  /// ancestor chain is active and each parent holds an activating value.
  [[nodiscard]] bool is_active(const Configuration& c, std::size_t i) const;

  /// Canonical value an *inactive* parameter must hold: level 0 for
  /// discrete parameters, lo() for continuous ones.
  [[nodiscard]] double sentinel_value(std::size_t i) const;

  /// True when every inactive parameter holds its sentinel. Always true
  /// for spaces without conditionals.
  [[nodiscard]] bool is_canonical(const Configuration& c) const;

  /// Force every inactive parameter to its sentinel (in index order, so a
  /// deactivated subtree collapses deterministically).
  [[nodiscard]] Configuration canonicalize(Configuration c) const;

  /// True when the configuration belongs to the space and is valid: one
  /// value per parameter, every discrete value an in-range integer level,
  /// canonical, and accepted by every constraint. Continuous values are not
  /// range-checked.
  [[nodiscard]] bool satisfies(const Configuration& c) const;

  /// All valid configurations of a finite space, in ordinal order. Throws
  /// SpaceTooLargeError when the cross product exceeds kMaxEnumerate.
  [[nodiscard]] std::vector<Configuration> enumerate() const;

  /// One uniformly random valid configuration (rejection sampling over the
  /// constraints; throws after too many rejections).
  [[nodiscard]] Configuration sample_uniform(Rng& rng) const;

  /// Number of one-hot encoded features: Σ levels for discrete parameters
  /// plus one standardized slot per continuous parameter.
  [[nodiscard]] std::size_t encoded_size() const noexcept;

  /// One-hot encode a configuration (continuous values scaled to [0,1]).
  /// Appends to `out`, which must have room (or use the returning overload).
  void encode(const Configuration& c, std::vector<double>& out) const;
  [[nodiscard]] std::vector<double> encode(const Configuration& c) const;

  /// Human-readable rendering, e.g. "Nesting=DGZ, OMP=8, ...".
  [[nodiscard]] std::string to_string(const Configuration& c) const;

  [[nodiscard]] const std::vector<std::string>& constraint_descriptions()
      const noexcept {
    return constraint_descriptions_;
  }

 private:
  ParameterSpace& add_conditional_levels(Parameter p, const std::string& parent,
                                         std::vector<char> active_at,
                                         std::size_t num_active);

  /// The opaque add_constraint() predicates, in registration order.
  [[nodiscard]] bool satisfies_predicates(const Configuration& c) const;

  std::vector<Parameter> params_;
  LevelRules level_rules_;  // parallel to params_
  bool has_conditionals_ = false;
  std::vector<Constraint> constraints_;  // opaque predicates only
  std::vector<std::string> constraint_descriptions_;  // every constraint
};

using SpacePtr = std::shared_ptr<const ParameterSpace>;

}  // namespace hpb::space
