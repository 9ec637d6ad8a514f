#include "tabular/tabular_objective.hpp"

#include <algorithm>
#include <fstream>

#include "stats/quantile.hpp"

namespace hpb::tabular {

TabularObjective::TabularObjective(std::string name, space::SpacePtr space,
                                   std::vector<space::Configuration> configs,
                                   std::vector<double> values)
    : name_(std::move(name)),
      space_(std::move(space)),
      values_(std::move(values)) {
  HPB_REQUIRE(space_ != nullptr, "TabularObjective: null space");
  HPB_REQUIRE(space_->is_finite(), "TabularObjective: space must be finite");
  HPB_REQUIRE(configs.size() == values_.size(),
              "TabularObjective: configs/values size mismatch");
  HPB_REQUIRE(!configs.empty(), "TabularObjective: empty dataset");
  pool_ = std::make_shared<const space::CandidatePool>(
      space_, std::make_shared<const std::vector<space::Configuration>>(
                  std::move(configs)));
  const std::vector<space::Configuration>& list = pool_->configs();
  by_ordinal_.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto [it, inserted] =
        by_ordinal_.emplace(space_->ordinal_of(list[i]), i);
    HPB_REQUIRE(inserted, "TabularObjective: duplicate configuration");
  }
  best_index_ = static_cast<std::size_t>(
      std::min_element(values_.begin(), values_.end()) - values_.begin());
  best_value_ = values_[best_index_];
  worst_value_ = *std::max_element(values_.begin(), values_.end());
}

TabularObjective TabularObjective::from_function(
    std::string name, space::SpacePtr space,
    const std::function<double(const space::Configuration&)>& fn) {
  HPB_REQUIRE(space != nullptr, "from_function: null space");
  std::vector<space::Configuration> configs = space->enumerate();
  HPB_REQUIRE(!configs.empty(), "from_function: constraints reject all");
  std::vector<double> values;
  values.reserve(configs.size());
  for (const auto& c : configs) {
    values.push_back(fn(c));
  }
  return TabularObjective(std::move(name), std::move(space),
                          std::move(configs), std::move(values));
}

std::size_t TabularObjective::index_of(const space::Configuration& c) const {
  const auto found = find(c);
  HPB_REQUIRE(found.has_value(),
              "index_of: configuration not in dataset (constraint violation?)");
  return *found;
}

std::optional<std::size_t> TabularObjective::find(
    const space::Configuration& c) const {
  const auto it = by_ordinal_.find(space_->ordinal_of(c));
  if (it == by_ordinal_.end()) {
    return std::nullopt;
  }
  return it->second;
}

double TabularObjective::percentile_value(double ell) const {
  HPB_REQUIRE(ell > 0.0 && ell <= 100.0,
              "percentile_value: ell must be in (0, 100]");
  return stats::quantile(values_, ell / 100.0);
}

std::size_t TabularObjective::count_leq(double y) const {
  return static_cast<std::size_t>(std::count_if(
      values_.begin(), values_.end(), [y](double v) { return v <= y; }));
}

void TabularObjective::write_csv(const std::string& path) const {
  std::ofstream out(path);
  HPB_REQUIRE(out.good(), "write_csv: cannot open '" + path + "'");
  for (std::size_t p = 0; p < space_->num_params(); ++p) {
    out << space_->param(p).name() << ',';
  }
  out << "objective\n";
  for (std::size_t i = 0; i < size(); ++i) {
    const auto& c = config(i);
    for (std::size_t p = 0; p < space_->num_params(); ++p) {
      if (space_->param(p).is_discrete()) {
        out << space_->param(p).level_label(c.level(p));
      } else {
        out << c[p];
      }
      out << ',';
    }
    out << values_[i] << '\n';
  }
}

}  // namespace hpb::tabular
