// Unit and property tests for Parameter, Configuration, and ParameterSpace:
// ordinal round-trips, constrained enumeration, uniform sampling, and
// one-hot encoding.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "space/parameter_space.hpp"
#include "test_util.hpp"

namespace hpb::space {
namespace {

TEST(Parameter, CategoricalLabelsAndDefaults) {
  const auto p = Parameter::categorical("layout", {"DGZ", "DZG"});
  EXPECT_EQ(p.name(), "layout");
  EXPECT_EQ(p.kind(), ParamKind::kCategorical);
  EXPECT_TRUE(p.is_discrete());
  EXPECT_EQ(p.num_levels(), 2u);
  EXPECT_EQ(p.level_label(0), "DGZ");
  EXPECT_DOUBLE_EQ(p.level_value(1), 1.0);  // numeric defaults to index
}

TEST(Parameter, CategoricalNumericCarriesValues) {
  const auto p = Parameter::categorical_numeric("omp", {1, 2, 4, 8});
  EXPECT_EQ(p.num_levels(), 4u);
  EXPECT_DOUBLE_EQ(p.level_value(2), 4.0);
  EXPECT_EQ(p.level_label(3), "8");
}

TEST(Parameter, IntegerRange) {
  const auto p = Parameter::integer("n", -2, 3);
  EXPECT_EQ(p.num_levels(), 6u);
  EXPECT_DOUBLE_EQ(p.level_value(0), -2.0);
  EXPECT_DOUBLE_EQ(p.level_value(5), 3.0);
  EXPECT_EQ(p.level_label(2), "0");
}

TEST(Parameter, ContinuousBounds) {
  const auto p = Parameter::continuous("x", 0.5, 2.5);
  EXPECT_FALSE(p.is_discrete());
  EXPECT_DOUBLE_EQ(p.lo(), 0.5);
  EXPECT_DOUBLE_EQ(p.hi(), 2.5);
  EXPECT_THROW((void)p.num_levels(), Error);
  EXPECT_THROW((void)p.level_value(0), Error);
}

TEST(Parameter, RejectsDegenerateDefinitions) {
  EXPECT_THROW((void)Parameter::categorical("e", {}), Error);
  EXPECT_THROW((void)Parameter::integer("i", 3, 2), Error);
  EXPECT_THROW((void)Parameter::continuous("c", 1.0, 1.0), Error);
}

TEST(ParameterSpace, RejectsDuplicateNames) {
  ParameterSpace s;
  s.add(Parameter::integer("a", 0, 1));
  EXPECT_THROW(s.add(Parameter::integer("a", 0, 3)), Error);
}

TEST(ParameterSpace, IndexOf) {
  const auto s = testutil::small_discrete_space();
  EXPECT_EQ(s->index_of("A"), 0u);
  EXPECT_EQ(s->index_of("C"), 2u);
  EXPECT_THROW((void)s->index_of("missing"), Error);
}

TEST(ParameterSpace, CrossProductSize) {
  const auto s = testutil::small_discrete_space();
  EXPECT_TRUE(s->is_finite());
  EXPECT_EQ(s->cross_product_size(), 4u * 3u * 5u);
}

TEST(ParameterSpace, MixedSpaceIsNotFinite) {
  const auto s = testutil::mixed_space();
  EXPECT_FALSE(s->is_finite());
  EXPECT_THROW((void)s->cross_product_size(), Error);
}

TEST(ParameterSpace, OrdinalRoundTripCoversWholeSpace) {
  const auto s = testutil::small_discrete_space();
  std::set<std::uint64_t> seen;
  for (std::uint64_t ord = 0; ord < s->cross_product_size(); ++ord) {
    const Configuration c = s->configuration_at(ord);
    EXPECT_EQ(s->ordinal_of(c), ord);
    seen.insert(ord);
  }
  EXPECT_EQ(seen.size(), s->cross_product_size());
  EXPECT_THROW((void)s->configuration_at(s->cross_product_size()), Error);
}

TEST(ParameterSpace, EnumerateWithoutConstraintsMatchesCrossProduct) {
  const auto s = testutil::small_discrete_space();
  const auto configs = s->enumerate();
  EXPECT_EQ(configs.size(), s->cross_product_size());
  // Ordinal order.
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_LT(s->ordinal_of(configs[i - 1]), s->ordinal_of(configs[i]));
  }
}

TEST(ParameterSpace, ConstraintFiltersEnumerationAndSampling) {
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::integer("a", 0, 4));
  s->add(Parameter::integer("b", 0, 4));
  s->add_constraint(
      [](const ParameterSpace&, const Configuration& c) {
        return c.level(0) + c.level(1) <= 4;
      },
      "a + b <= 4");
  const auto configs = s->enumerate();
  EXPECT_EQ(configs.size(), 15u);  // triangular number
  for (const auto& c : configs) {
    EXPECT_TRUE(s->satisfies(c));
  }
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(s->satisfies(s->sample_uniform(rng)));
  }
  EXPECT_EQ(s->constraint_descriptions().size(), 1u);
}

TEST(ParameterSpace, SatisfiesRejectsConfigurationsOutsideTheSpace) {
  // Flat and unconstrained: every in-space configuration is valid, so any
  // rejection below is the membership check alone.
  ParameterSpace s;
  s.add(Parameter::categorical("a", {"w", "x", "y", "z"}));
  s.add(Parameter::integer("b", 0, 2));
  EXPECT_TRUE(s.satisfies(Configuration({3, 2})));
  EXPECT_FALSE(s.satisfies(Configuration({9, 0})));    // level out of range
  EXPECT_FALSE(s.satisfies(Configuration({4, 0})));    // one past the end
  EXPECT_FALSE(s.satisfies(Configuration({2.5, 0})));  // not an integer
  EXPECT_FALSE(s.satisfies(Configuration({-1, 0})));   // negative
  EXPECT_FALSE(s.satisfies(Configuration({std::nan(""), 0})));
  EXPECT_FALSE(s.satisfies(Configuration({1})));        // too few values
  EXPECT_FALSE(s.satisfies(Configuration({1, 1, 0})));  // too many values
  EXPECT_FALSE(s.satisfies(Configuration{}));

  // Continuous values are not range-checked; a conditional continuous
  // parameter must still hold its sentinel lo() while inactive.
  ParameterSpace m;
  m.add(Parameter::categorical("mode", {"off", "on"}));
  m.add_conditional(Parameter::continuous("t", 1.0, 2.0), "mode",
                    std::vector<std::string>{"on"});
  EXPECT_TRUE(m.satisfies(Configuration({1, 1.5})));
  EXPECT_TRUE(m.satisfies(Configuration({1, 7.0})));
  EXPECT_TRUE(m.satisfies(Configuration({0, 1.0})));
  EXPECT_FALSE(m.satisfies(Configuration({0, 1.5})));
  EXPECT_FALSE(m.satisfies(Configuration({2, 1.0})));
}

TEST(ParameterSpace, ImpossibleConstraintThrowsOnSampling) {
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::integer("a", 0, 1));
  s->add_constraint(
      [](const ParameterSpace&, const Configuration&) { return false; }, "");
  Rng rng(1);
  EXPECT_THROW((void)s->sample_uniform(rng), Error);
  EXPECT_TRUE(s->enumerate().empty());
}

TEST(ParameterSpace, UniformSamplingTouchesAllLevels) {
  const auto s = testutil::small_discrete_space();
  Rng rng(2);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(s->ordinal_of(s->sample_uniform(rng)));
  }
  EXPECT_EQ(seen.size(), s->cross_product_size());  // 60 cells, 2000 draws
}

TEST(ParameterSpace, ContinuousSamplingStaysInBounds) {
  const auto s = testutil::mixed_space();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Configuration c = s->sample_uniform(rng);
    EXPECT_GE(c[1], 0.0);
    EXPECT_LT(c[1], 10.0);
    EXPECT_LT(c.level(0), 3u);
  }
}

TEST(ParameterSpace, OneHotEncoding) {
  const auto s = testutil::small_discrete_space();
  EXPECT_EQ(s->encoded_size(), 4u + 3u + 5u);
  Configuration c(std::vector<double>{2, 0, 4});
  const auto enc = s->encode(c);
  ASSERT_EQ(enc.size(), 12u);
  // A: level 2 of 4.
  EXPECT_DOUBLE_EQ(enc[2], 1.0);
  EXPECT_DOUBLE_EQ(enc[0] + enc[1] + enc[3], 0.0);
  // B: level 0 of 3.
  EXPECT_DOUBLE_EQ(enc[4], 1.0);
  // C: level 4 of 5.
  EXPECT_DOUBLE_EQ(enc[11], 1.0);
}

TEST(ParameterSpace, MixedEncodingScalesContinuous) {
  const auto s = testutil::mixed_space();
  EXPECT_EQ(s->encoded_size(), 3u + 1u);
  Configuration c(std::vector<double>{1, 2.5});
  const auto enc = s->encode(c);
  ASSERT_EQ(enc.size(), 4u);
  EXPECT_DOUBLE_EQ(enc[1], 1.0);
  EXPECT_DOUBLE_EQ(enc[3], 0.25);
}

TEST(ParameterSpace, ToStringNamesLevels) {
  const auto s = testutil::small_discrete_space();
  Configuration c(std::vector<double>{1, 2, 0});
  EXPECT_EQ(s->to_string(c), "A=a1, B=4, C=0");
}

TEST(Configuration, EqualityAndLevels) {
  Configuration a(std::vector<double>{1, 2});
  Configuration b(std::vector<double>{1, 2});
  Configuration c(std::vector<double>{1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a.set_level(1, 7);
  EXPECT_EQ(a.level(1), 7u);
}

}  // namespace
}  // namespace hpb::space
