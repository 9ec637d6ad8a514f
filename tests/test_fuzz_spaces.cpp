// Randomized robustness sweep: generate many random parameter spaces
// (random parameter counts, kinds, level counts, and constraints) and
// check the structural invariants every layer relies on — ordinal
// round-trips, constrained enumeration, graph consistency, density
// normalization, and end-to-end tunability.
#include <gtest/gtest.h>

#include <set>

#include "baselines/config_graph.hpp"
#include "core/density.hpp"
#include "core/hiperbot.hpp"
#include "core/loop.hpp"
#include "space/parameter_space.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb {
namespace {

using space::Configuration;
using space::Parameter;
using space::ParameterSpace;

/// Random all-discrete space with 2–5 parameters of 2–6 levels each, and
/// with probability 1/2 a modulus constraint that knocks out part of the
/// cross product (but provably never all of it: the all-zero configuration
/// always satisfies level-sum % k == 0).
space::SpacePtr random_space(Rng& rng) {
  auto s = std::make_shared<ParameterSpace>();
  const std::size_t n_params = 2 + rng.index(4);
  for (std::size_t p = 0; p < n_params; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    switch (rng.index(3)) {
      case 0: {
        std::vector<std::string> labels;
        for (std::size_t l = 0; l < 2 + rng.index(5); ++l) {
          labels.push_back(name + "_v" + std::to_string(l));
        }
        s->add(Parameter::categorical(name, labels));
        break;
      }
      case 1: {
        std::vector<double> values;
        for (std::size_t l = 0; l < 2 + rng.index(5); ++l) {
          values.push_back(static_cast<double>(1u << l));
        }
        s->add(Parameter::categorical_numeric(name, values));
        break;
      }
      default:
        s->add(Parameter::integer(name, 0,
                                  static_cast<std::int64_t>(1 + rng.index(5))));
        break;
    }
  }
  if (rng.bernoulli(0.5)) {
    const std::size_t k = 2 + rng.index(2);
    s->add_constraint(
        [k](const ParameterSpace& sp, const Configuration& c) {
          std::size_t total = 0;
          for (std::size_t p = 0; p < sp.num_params(); ++p) {
            total += c.level(p);
          }
          return total % k != 1;
        },
        "level-sum % k != 1");
  }
  return s;
}

class FuzzSpaces : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSpaces, StructuralInvariantsHold) {
  Rng rng(GetParam());
  const auto sp = random_space(rng);
  const auto configs = sp->enumerate();
  ASSERT_FALSE(configs.empty());
  ASSERT_LE(configs.size(), sp->cross_product_size());

  // Ordinals are unique, increasing, and round-trip.
  std::set<std::uint64_t> ordinals;
  for (const auto& c : configs) {
    const auto ord = sp->ordinal_of(c);
    EXPECT_TRUE(ordinals.insert(ord).second);
    EXPECT_EQ(sp->configuration_at(ord), c);
    EXPECT_TRUE(sp->satisfies(c));
  }

  // Encoding width is consistent and one-hot blocks sum to one per
  // discrete parameter.
  const auto enc = sp->encode(configs.front());
  EXPECT_EQ(enc.size(), sp->encoded_size());
  double total = 0.0;
  for (double v : enc) {
    total += v;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(sp->num_params()));

  // Uniform sampling stays inside the valid set.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(sp->satisfies(sp->sample_uniform(rng)));
  }
}

TEST_P(FuzzSpaces, GraphNeighborsAreSymmetricAndValid) {
  Rng rng(GetParam() + 1000);
  const auto sp = random_space(rng);
  const auto configs = sp->enumerate();
  if (configs.size() > 2000) {
    GTEST_SKIP() << "space too large for the fuzz graph check";
  }
  const baselines::ConfigGraph graph(*sp, configs);
  ASSERT_EQ(graph.num_nodes(), configs.size());
  for (std::size_t i = 0; i < graph.num_nodes(); ++i) {
    for (std::uint32_t j : graph.neighbors(i)) {
      ASSERT_LT(j, graph.num_nodes());
      // Symmetry: i must appear in j's neighbor list.
      const auto back = graph.neighbors(j);
      EXPECT_NE(std::find(back.begin(), back.end(),
                          static_cast<std::uint32_t>(i)),
                back.end());
    }
  }
}

TEST_P(FuzzSpaces, DensitiesNormalizeAndTunerRuns) {
  Rng rng(GetParam() + 2000);
  const auto sp = random_space(rng);

  // Random observations → factorized density with normalized marginals.
  std::vector<Configuration> obs;
  for (int i = 0; i < 12; ++i) {
    obs.push_back(sp->sample_uniform(rng));
  }
  const core::FactorizedDensity density(sp, obs);
  for (std::size_t p = 0; p < sp->num_params(); ++p) {
    const auto probs = density.marginal_probabilities(p);
    double total = 0.0;
    for (double v : probs) {
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }

  // A short end-to-end tuning run on a hash objective never crashes and
  // never proposes an invalid configuration.
  auto ds = tabular::TabularObjective::from_function(
      "fuzz", sp, [&](const Configuration& c) {
        return 1.0 + hash_to_unit(splitmix64(sp->ordinal_of(c)));
      });
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, GetParam());
  const std::size_t budget = std::min<std::size_t>(25, ds.size());
  const auto result = core::run_tuning(tuner, ds, budget);
  EXPECT_EQ(result.history.size(), budget);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSpaces,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace hpb
