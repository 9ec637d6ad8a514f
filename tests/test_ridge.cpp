// Tests for the linear-model baselines: RidgeTuner and ExhaustiveTuner.
#include "baselines/ridge_tuner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/hiperbot.hpp"
#include "core/engine.hpp"
#include "surface/surface.hpp"
#include "test_util.hpp"

namespace hpb::baselines {
namespace {

using space::Configuration;

TEST(RidgeTuner, NoDuplicatesAndConvergesOnAdditiveObjective) {
  // The separable objective is additive in the one-hot features, so a
  // linear model represents it exactly.
  auto ds = testutil::separable_dataset();
  RidgeConfig config;
  config.initial_samples = 12;
  config.epsilon = 0.0;
  RidgeTuner tuner(ds.space_ptr(), config, 1);
  std::set<std::uint64_t> seen;
  double best = 1e9;
  for (int t = 0; t < 20; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    best = std::min(best, ds.value_of(c));
    tuner.observe(c, ds.value_of(c));
  }
  EXPECT_DOUBLE_EQ(best, 1.0);  // exact optimum: linear model nails additive f
}

TEST(RidgeTuner, PredictionMatchesAdditiveStructure) {
  auto ds = testutil::separable_dataset();
  RidgeConfig config;
  config.initial_samples = 30;
  config.regularization = 1e-6;
  RidgeTuner tuner(ds.space_ptr(), config, 2);
  for (int t = 0; t < 40; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  (void)tuner.suggest();  // force a refit
  ASSERT_TRUE(tuner.is_fitted());
  // With 40 of 60 rows and near-zero ridge, predictions are near-exact.
  for (std::size_t i = 0; i < ds.size(); i += 7) {
    EXPECT_NEAR(tuner.predict(ds.config(i)), ds.value(i), 0.05);
  }
}

TEST(RidgeTuner, StrugglesWithInteractions) {
  // A purely multiplicative interaction surface defeats the linear model:
  // boosted trees reach a better objective at equal budget. (This is the
  // motivating gap between [18]-style linear models and the paper's
  // nonlinear surrogate.)
  auto sp = testutil::small_discrete_space();
  const auto surf = surface::SurfaceBuilder(sp, 99)
                        .random_interaction("A", "C", 1.0)
                        .random_interaction("B", "C", 0.8)
                        .noise(0.01)
                        .build();
  auto ds = surface::calibrate_to_range("inter", surf, 1.0, 20.0);
  double ridge_total = 0.0, hpb_total = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    RidgeConfig rc;
    rc.initial_samples = 10;
    rc.epsilon = 0.0;
    RidgeTuner ridge(ds.space_ptr(), rc, 50 + rep);
    ridge_total += core::TuningEngine().run(ridge, ds, 18).best_value;
    core::HiPerBOtConfig hc;
    hc.initial_samples = 10;
    core::HiPerBOt hpb_tuner(ds.space_ptr(), hc, 50 + rep);
    hpb_total += core::TuningEngine().run(hpb_tuner, ds, 18).best_value;
  }
  EXPECT_LE(hpb_total, ridge_total * 1.05);
}

TEST(RidgeTuner, Validation) {
  auto ds = testutil::separable_dataset();
  RidgeConfig bad;
  bad.regularization = 0.0;
  EXPECT_THROW(RidgeTuner(ds.space_ptr(), bad, 1), Error);
  RidgeTuner tuner(ds.space_ptr(), {}, 1);
  EXPECT_THROW((void)tuner.predict(ds.config(0)), Error);  // unfitted
}

TEST(ExhaustiveTuner, EnumeratesPoolInOrderThenThrows) {
  auto ds = testutil::separable_dataset();
  ExhaustiveTuner tuner(ds.space_ptr());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Configuration c = tuner.suggest();
    EXPECT_EQ(ds.index_of(c), i);
    tuner.observe(c, ds.value(i));
  }
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(ExhaustiveTuner, FullBudgetFindsTheExactBest) {
  auto ds = testutil::separable_dataset();
  ExhaustiveTuner tuner(ds.space_ptr());
  const auto result = core::TuningEngine().run(tuner, ds, ds.size());
  EXPECT_DOUBLE_EQ(result.best_value, ds.best_value());
}

}  // namespace
}  // namespace hpb::baselines
