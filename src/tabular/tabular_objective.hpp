// TabularObjective: a fully enumerated finite parameter space with one
// pre-computed objective value per valid configuration.
//
// This mirrors the paper's evaluation protocol: the Kripke/HYPRE/LULESH/
// OpenAtom "datasets" are tables of (configuration, measured value) pairs,
// and every tuning method draws its observations from the same table. The
// configurations are one shared, immutable candidate pool: every tuner
// built over the dataset (eval::make_named_tuner) holds that pool instead
// of a copy, and copies of the dataset share it too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "space/candidate_pool.hpp"
#include "space/parameter_space.hpp"
#include "tabular/objective.hpp"

namespace hpb::tabular {

class TabularObjective final : public Objective {
 public:
  /// Build from an already-enumerated list of configurations and values.
  TabularObjective(std::string name, space::SpacePtr space,
                   std::vector<space::Configuration> configs,
                   std::vector<double> values);

  /// Build by enumerating the (finite) space and evaluating fn at each
  /// valid configuration.
  static TabularObjective from_function(
      std::string name, space::SpacePtr space,
      const std::function<double(const space::Configuration&)>& fn);

  // Objective interface -----------------------------------------------------
  [[nodiscard]] const space::ParameterSpace& space() const override {
    return *space_;
  }
  [[nodiscard]] double evaluate(const space::Configuration& c) override {
    return value_of(c);
  }
  [[nodiscard]] std::string name() const override { return name_; }

  // Dataset access ----------------------------------------------------------
  [[nodiscard]] space::SpacePtr space_ptr() const noexcept { return space_; }
  [[nodiscard]] std::size_t size() const noexcept { return pool_->size(); }
  [[nodiscard]] const space::Configuration& config(std::size_t i) const {
    HPB_REQUIRE(i < size(), "config: index out of range");
    return pool_->configs()[i];
  }
  [[nodiscard]] double value(std::size_t i) const {
    HPB_REQUIRE(i < values_.size(), "value: index out of range");
    return values_[i];
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<const space::Configuration> configs() const noexcept {
    return pool_->configs();
  }
  /// The configurations as the shared candidate pool every tuner over this
  /// dataset sweeps (its column mirror is built on the first sweep).
  [[nodiscard]] const std::shared_ptr<const space::CandidatePool>& pool()
      const noexcept {
    return pool_;
  }

  /// Dense index of a configuration; throws if the configuration is not in
  /// the table (i.e. violates a constraint or has an out-of-range level).
  [[nodiscard]] std::size_t index_of(const space::Configuration& c) const;

  /// Dense index if present.
  [[nodiscard]] std::optional<std::size_t> find(
      const space::Configuration& c) const;

  /// Objective value for a configuration (lookup, never re-computed).
  [[nodiscard]] double value_of(const space::Configuration& c) const {
    return values_[index_of(c)];
  }

  // Dataset statistics (used by the evaluation metrics of §IV-B) -----------
  [[nodiscard]] double best_value() const noexcept { return best_value_; }
  [[nodiscard]] std::size_t best_index() const noexcept { return best_index_; }
  [[nodiscard]] const space::Configuration& best_config() const {
    return pool_->configs()[best_index_];
  }
  [[nodiscard]] double worst_value() const noexcept { return worst_value_; }

  /// Value of the best ℓ-percentile configuration (y_ℓ in eq. 11);
  /// ell in (0, 100].
  [[nodiscard]] double percentile_value(double ell) const;

  /// Number of configurations with f(x) <= y (set cardinalities in
  /// eq. 11–12).
  [[nodiscard]] std::size_t count_leq(double y) const;

  /// Write the dataset as CSV (one row per configuration) to `path`.
  void write_csv(const std::string& path) const;

 private:
  std::string name_;
  space::SpacePtr space_;
  std::shared_ptr<const space::CandidatePool> pool_;
  std::vector<double> values_;
  std::unordered_map<std::uint64_t, std::size_t> by_ordinal_;
  double best_value_ = 0.0;
  double worst_value_ = 0.0;
  std::size_t best_index_ = 0;
};

}  // namespace hpb::tabular
