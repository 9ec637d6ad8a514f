// Tests for the gradient-boosted-trees learner and the BRT tuner.
#include "baselines/boosted_trees.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "test_util.hpp"

namespace hpb::baselines {
namespace {

using space::Configuration;

/// y = 3·x0 − 2·x1 + x0·x1 on random binary features.
void make_xor_ish(std::size_t n, linalg::Matrix& x, std::vector<double>& y,
                  Rng& rng) {
  x = linalg::Matrix(n, 4);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      x(i, j) = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + 4.0 * x(i, 0) * x(i, 1);
  }
}

TEST(BoostedTrees, FitsAdditiveAndInteractionStructure) {
  Rng rng(1);
  linalg::Matrix x;
  std::vector<double> y;
  make_xor_ish(256, x, y, rng);
  GbtConfig config;
  config.rounds = 80;
  config.max_depth = 2;
  BoostedTrees model(config);
  model.fit(x, y, 42);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(model.num_trees(), 80u);
  EXPECT_LT(model.evaluate_mse(x, y), 0.01);
}

TEST(BoostedTrees, DepthOneCannotCaptureTheInteraction) {
  Rng rng(2);
  linalg::Matrix x;
  std::vector<double> y;
  make_xor_ish(256, x, y, rng);
  GbtConfig stumps;
  stumps.rounds = 80;
  stumps.max_depth = 1;
  BoostedTrees stump_model(stumps);
  stump_model.fit(x, y, 42);
  GbtConfig deep = stumps;
  deep.max_depth = 3;
  BoostedTrees deep_model(deep);
  deep_model.fit(x, y, 42);
  EXPECT_GT(stump_model.evaluate_mse(x, y),
            4.0 * deep_model.evaluate_mse(x, y));
}

TEST(BoostedTrees, FeatureImportanceIdentifiesActiveFeatures) {
  Rng rng(3);
  linalg::Matrix x;
  std::vector<double> y;
  make_xor_ish(256, x, y, rng);
  BoostedTrees model;
  model.fit(x, y, 42);
  const auto importance = model.feature_importance();
  ASSERT_EQ(importance.size(), 4u);
  double total = 0.0;
  for (double v : importance) {
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Features 0 and 1 drive the target; 2 and 3 are noise.
  EXPECT_GT(importance[0] + importance[1],
            20.0 * (importance[2] + importance[3]));
}

TEST(BoostedTrees, DeterministicGivenSeed) {
  Rng rng(4);
  linalg::Matrix x;
  std::vector<double> y;
  make_xor_ish(128, x, y, rng);
  GbtConfig config;
  config.subsample = 0.7;
  BoostedTrees a(config), b(config);
  a.fit(x, y, 99);
  b.fit(x, y, 99);
  for (std::size_t r = 0; r < x.rows(); r += 13) {
    EXPECT_DOUBLE_EQ(a.predict(x.row(r)), b.predict(x.row(r)));
  }
}

TEST(BoostedTrees, ConstantTargetGivesConstantPrediction) {
  linalg::Matrix x(8, 2);
  std::vector<double> y(8, 5.0);
  Rng rng(5);
  for (double& v : x.flat()) {
    v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  }
  BoostedTrees model;
  model.fit(x, y, 1);
  EXPECT_NEAR(model.predict(x.row(0)), 5.0, 1e-9);
}

TEST(BoostedTrees, Validation) {
  GbtConfig bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW(BoostedTrees{bad}, Error);
  BoostedTrees model;
  std::vector<double> f = {0.0, 1.0};
  EXPECT_THROW((void)model.predict(f), Error);  // unfitted
  linalg::Matrix x(3, 2);
  std::vector<double> wrong(2);
  EXPECT_THROW(model.fit(x, wrong, 1), Error);
}

TEST(BrtTuner, NoDuplicatesAndConverges) {
  auto ds = testutil::separable_dataset();
  BrtTunerConfig config;
  config.initial_samples = 10;
  config.epsilon = 0.0;
  BrtTuner tuner(ds.space_ptr(), config, 6);
  std::set<std::uint64_t> seen;
  double best = 1e9;
  for (int t = 0; t < 30; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    const double y = ds.value_of(c);
    best = std::min(best, y);
    tuner.observe(c, y);
  }
  EXPECT_LE(best, 2.0);
}

TEST(BrtTuner, EpsilonOneIsPureExploration) {
  auto ds = testutil::separable_dataset();
  BrtTunerConfig config;
  config.epsilon = 1.0;
  BrtTuner tuner(ds.space_ptr(), config, 7);
  // With epsilon = 1 every suggestion is uniform: still distinct and valid.
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 40; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }
}

}  // namespace
}  // namespace hpb::baselines
