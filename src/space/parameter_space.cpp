#include "space/parameter_space.hpp"

#include <cmath>
#include <limits>
#include <sstream>

namespace hpb::space {

ParameterSpace& ParameterSpace::add(Parameter p) {
  for (const auto& existing : params_) {
    HPB_REQUIRE(existing.name() != p.name(),
                "add: duplicate parameter name '" + p.name() + "'");
  }
  level_rules_.add_parameter(p.is_discrete() ? p.num_levels() : 0);
  params_.push_back(std::move(p));
  return *this;
}

ParameterSpace& ParameterSpace::add_conditional_levels(
    Parameter p, const std::string& parent, std::vector<char> active_at,
    std::size_t num_active) {
  const std::size_t parent_index = index_of(parent);
  HPB_REQUIRE(params_[parent_index].is_discrete(),
              "add_conditional: parent '" + parent + "' must be discrete");
  HPB_REQUIRE(num_active > 0,
              "add_conditional: no activating level of '" + parent +
                  "' for parameter '" + p.name() + "'");
  HPB_REQUIRE(num_active < params_[parent_index].num_levels(),
              "add_conditional: parameter '" + p.name() +
                  "' would be active under every value of '" + parent + "'");
  add(std::move(p));
  level_rules_.add_conditional(params_.size() - 1, parent_index, active_at);
  has_conditionals_ = true;
  return *this;
}

ParameterSpace& ParameterSpace::add_conditional(
    Parameter p, const std::string& parent,
    const std::vector<double>& active_values) {
  const std::size_t parent_index = index_of(parent);
  const Parameter& pp = params_[parent_index];
  HPB_REQUIRE(pp.is_discrete(),
              "add_conditional: parent '" + parent + "' must be discrete");
  std::vector<char> active_at(pp.num_levels(), 0);
  std::size_t num_active = 0;
  for (const double v : active_values) {
    bool found = false;
    for (std::size_t l = 0; l < pp.num_levels(); ++l) {
      if (pp.level_value(l) == v) {
        if (active_at[l] == 0) {
          active_at[l] = 1;
          ++num_active;
        }
        found = true;
      }
    }
    HPB_REQUIRE(found, "add_conditional: '" + parent +
                           "' has no level with value " + std::to_string(v));
  }
  return add_conditional_levels(std::move(p), parent, std::move(active_at),
                                num_active);
}

ParameterSpace& ParameterSpace::add_conditional(
    Parameter p, const std::string& parent,
    const std::vector<std::string>& active_labels) {
  const std::size_t parent_index = index_of(parent);
  const Parameter& pp = params_[parent_index];
  HPB_REQUIRE(pp.is_discrete(),
              "add_conditional: parent '" + parent + "' must be discrete");
  std::vector<char> active_at(pp.num_levels(), 0);
  std::size_t num_active = 0;
  for (const std::string& label : active_labels) {
    bool found = false;
    for (std::size_t l = 0; l < pp.num_levels(); ++l) {
      if (pp.level_label(l) == label) {
        if (active_at[l] == 0) {
          active_at[l] = 1;
          ++num_active;
        }
        found = true;
      }
    }
    HPB_REQUIRE(found, "add_conditional: '" + parent +
                           "' has no level labeled '" + label + "'");
  }
  return add_conditional_levels(std::move(p), parent, std::move(active_at),
                                num_active);
}

ParameterSpace& ParameterSpace::add_divisibility(const std::string& divisor,
                                                 const std::string& dividend) {
  const std::size_t a = index_of(divisor);
  const std::size_t b = index_of(dividend);
  HPB_REQUIRE(a != b, "add_divisibility: parameter divides itself");
  HPB_REQUIRE(params_[a].is_discrete() && params_[b].is_discrete(),
              "add_divisibility: both parameters must be discrete");
  // accept[la * levels(b) + lb]: level la's value divides level lb's.
  const Parameter& pa = params_[a];
  const Parameter& pb = params_[b];
  std::vector<char> accept(pa.num_levels() * pb.num_levels(), 0);
  for (std::size_t la = 0; la < pa.num_levels(); ++la) {
    const double da = pa.level_value(la);
    for (std::size_t lb = 0; lb < pb.num_levels(); ++lb) {
      accept[la * pb.num_levels() + lb] =
          da != 0.0 && std::fmod(pb.level_value(lb), da) == 0.0 ? 1 : 0;
    }
  }
  level_rules_.add_divisibility(a, b, std::move(accept));
  constraint_descriptions_.push_back(divisor + " divides " + dividend);
  return *this;
}

ParameterSpace& ParameterSpace::add_constraint(Constraint c,
                                               std::string description) {
  HPB_REQUIRE(static_cast<bool>(c), "add_constraint: empty predicate");
  constraints_.push_back(std::move(c));
  constraint_descriptions_.push_back(std::move(description));
  return *this;
}

std::size_t ParameterSpace::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].name() == name) {
      return i;
    }
  }
  HPB_REQUIRE(false, "index_of: no parameter named '" + name + "'");
  return 0;  // unreachable
}

bool ParameterSpace::is_finite() const noexcept {
  for (const auto& p : params_) {
    if (!p.is_discrete()) {
      return false;
    }
  }
  return !params_.empty();
}

std::uint64_t ParameterSpace::cross_product_size() const {
  HPB_REQUIRE(is_finite(), "cross_product_size: space must be finite");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 1;
  for (const auto& p : params_) {
    const auto levels = static_cast<std::uint64_t>(p.num_levels());
    if (total > kMax / levels) {
      throw SpaceTooLargeError(
          "cross_product_size: unconstrained cross product exceeds 2^64; "
          "ordinals cannot index this space",
          kMax, kMax);
    }
    total *= levels;
  }
  return total;
}

bool ParameterSpace::cross_product_exceeds(std::uint64_t limit) const {
  HPB_REQUIRE(is_finite(), "cross_product_exceeds: space must be finite");
  std::uint64_t total = 1;
  for (const auto& p : params_) {
    const auto levels = static_cast<std::uint64_t>(p.num_levels());
    if (total > limit / levels) {
      return true;
    }
    total *= levels;
  }
  return total > limit;
}

std::uint64_t ParameterSpace::ordinal_of(const Configuration& c) const {
  HPB_REQUIRE(is_finite(), "ordinal_of: space must be finite");
  HPB_REQUIRE(c.size() == params_.size(), "ordinal_of: size mismatch");
  std::uint64_t ordinal = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::size_t level = c.level(i);
    HPB_REQUIRE(level < params_[i].num_levels(),
                "ordinal_of: level out of range");
    ordinal = ordinal * params_[i].num_levels() + level;
  }
  return ordinal;
}

Configuration ParameterSpace::configuration_at(std::uint64_t ordinal) const {
  HPB_REQUIRE(is_finite(), "configuration_at: space must be finite");
  std::vector<double> values(params_.size(), 0.0);
  for (std::size_t ii = params_.size(); ii-- > 0;) {
    const auto radix = static_cast<std::uint64_t>(params_[ii].num_levels());
    values[ii] = static_cast<double>(ordinal % radix);
    ordinal /= radix;
  }
  HPB_REQUIRE(ordinal == 0, "configuration_at: ordinal out of range");
  return Configuration(std::move(values));
}

Configuration ParameterSpace::configuration_from_levels(
    const std::uint32_t* levels) const {
  return Configuration(std::vector<double>(levels, levels + params_.size()));
}

bool ParameterSpace::is_conditional(std::size_t i) const {
  HPB_REQUIRE(i < params_.size(), "is_conditional: index out of range");
  return level_rules_.parent(i) != LevelRules::kNoParent;
}

std::size_t ParameterSpace::parent_of(std::size_t i) const {
  HPB_REQUIRE(is_conditional(i),
              "parent_of: '" + params_[i].name() + "' is unconditional");
  return level_rules_.parent(i);
}

bool ParameterSpace::is_active(const Configuration& c, std::size_t i) const {
  HPB_REQUIRE(i < params_.size(), "is_active: index out of range");
  // Walk the ancestor chain (parents always precede children, so this
  // terminates in at most num_params steps).
  for (std::size_t parent = level_rules_.parent(i);
       parent != LevelRules::kNoParent; parent = level_rules_.parent(i)) {
    if (!level_rules_.activated_by(i, c.level(parent))) {
      return false;
    }
    i = parent;
  }
  return true;
}

double ParameterSpace::sentinel_value(std::size_t i) const {
  HPB_REQUIRE(i < params_.size(), "sentinel_value: index out of range");
  return params_[i].is_discrete() ? 0.0 : params_[i].lo();
}

bool ParameterSpace::is_canonical(const Configuration& c) const {
  if (!has_conditionals_) {
    return true;
  }
  HPB_REQUIRE(c.size() == params_.size(), "is_canonical: size mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (is_conditional(i) && !is_active(c, i) && c[i] != sentinel_value(i)) {
      return false;
    }
  }
  return true;
}

Configuration ParameterSpace::canonicalize(Configuration c) const {
  HPB_REQUIRE(c.size() == params_.size(), "canonicalize: size mismatch");
  if (!has_conditionals_) {
    return c;
  }
  // Index order: a parent forced to its sentinel deactivates its children
  // before they are visited, so the whole subtree collapses in one pass.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (is_conditional(i) && !is_active(c, i)) {
      c[i] = sentinel_value(i);
    }
  }
  return c;
}

bool ParameterSpace::satisfies(const Configuration& c) const {
  if (c.size() != params_.size()) {
    return false;
  }
  LevelBuffer buffer(params_.size());
  std::uint32_t* levels = buffer.data();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Parameter& p = params_[i];
    const double v = c[i];
    if (p.is_discrete()) {
      // NaN fails the range test too.
      if (!(v >= 0.0 && v < static_cast<double>(p.num_levels())) ||
          v != std::floor(v)) {
        return false;
      }
      levels[i] = static_cast<std::uint32_t>(v);
    } else {
      // Continuous parameters only meet the rules through the sentinel
      // rule: pseudo-level 0 iff the value is the sentinel lo().
      levels[i] = v == p.lo() ? 0 : 1;
    }
  }
  return level_rules_.accepts_levels(levels) && satisfies_predicates(c);
}

bool ParameterSpace::satisfies_predicates(const Configuration& c) const {
  for (const auto& constraint : constraints_) {
    if (!constraint(*this, c)) {
      return false;
    }
  }
  return true;
}

std::vector<Configuration> ParameterSpace::enumerate() const {
  HPB_REQUIRE(is_finite(), "enumerate: space must be finite");
  if (cross_product_exceeds(kMaxEnumerate)) {
    constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
    const bool overflows = cross_product_exceeds(kU64Max);
    const std::uint64_t size = overflows ? kU64Max : cross_product_size();
    std::ostringstream os;
    os << "enumerate: unconstrained cross product (";
    if (overflows) {
      os << "over 2^64";
    } else {
      os << size;
    }
    os << " configurations) exceeds the " << kMaxEnumerate
       << "-point enumeration limit; use space::CandidateStream to sweep "
          "this space without materializing it";
    throw SpaceTooLargeError(os.str(), size, kMaxEnumerate);
  }
  const std::uint64_t total = cross_product_size();
  std::vector<Configuration> configs;
  configs.reserve(static_cast<std::size_t>(total));
  LevelBuffer buffer(params_.size());
  std::uint32_t* levels = buffer.data();
  for (std::uint64_t ord = 0; ord < total; ++ord) {
    if (!level_rules_.accepts(ord, levels)) {
      continue;
    }
    Configuration c = configuration_from_levels(levels);
    if (satisfies_predicates(c)) {
      configs.push_back(std::move(c));
    }
  }
  return configs;
}

Configuration ParameterSpace::sample_uniform(Rng& rng) const {
  HPB_REQUIRE(!params_.empty(), "sample_uniform: empty space");
  constexpr int kMaxRejections = 100000;
  for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
    std::vector<double> values(params_.size(), 0.0);
    Configuration c(std::move(values));
    // Draw in index order so a parameter's activity is decided by the time
    // it is visited; inactive parameters take their sentinel directly, so
    // every draw is canonical by construction. Flat spaces consume the RNG
    // exactly as before (every parameter is unconditionally active).
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const auto& p = params_[i];
      if (has_conditionals_ && !is_active(c, i)) {
        c[i] = sentinel_value(i);
      } else if (p.is_discrete()) {
        c[i] = static_cast<double>(rng.index(p.num_levels()));
      } else {
        c[i] = rng.uniform(p.lo(), p.hi());
      }
    }
    if (satisfies(c)) {
      return c;
    }
  }
  HPB_REQUIRE(false, "sample_uniform: constraints reject too many samples");
  return Configuration{};  // unreachable
}

std::size_t ParameterSpace::encoded_size() const noexcept {
  std::size_t total = 0;
  for (const auto& p : params_) {
    total += p.is_discrete() ? p.num_levels() : 1;
  }
  return total;
}

void ParameterSpace::encode(const Configuration& c,
                            std::vector<double>& out) const {
  HPB_REQUIRE(c.size() == params_.size(), "encode: size mismatch");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const auto& p = params_[i];
    if (p.is_discrete()) {
      const std::size_t level = c.level(i);
      HPB_REQUIRE(level < p.num_levels(), "encode: level out of range");
      for (std::size_t l = 0; l < p.num_levels(); ++l) {
        out.push_back(l == level ? 1.0 : 0.0);
      }
    } else {
      out.push_back((c[i] - p.lo()) / (p.hi() - p.lo()));
    }
  }
}

std::vector<double> ParameterSpace::encode(const Configuration& c) const {
  std::vector<double> out;
  out.reserve(encoded_size());
  encode(c, out);
  return out;
}

std::string ParameterSpace::to_string(const Configuration& c) const {
  HPB_REQUIRE(c.size() == params_.size(), "to_string: size mismatch");
  std::ostringstream os;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i != 0) {
      os << ", ";
    }
    os << params_[i].name() << '=';
    if (params_[i].is_discrete()) {
      os << params_[i].level_label(c.level(i));
    } else {
      os << c[i];
    }
  }
  return os.str();
}

}  // namespace hpb::space
