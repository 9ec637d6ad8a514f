// Tests for the local-search baselines: simulated annealing and hill
// climbing with restarts.
#include "baselines/local_search.hpp"

#include <gtest/gtest.h>

#include <set>

#include "baselines/random_search.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"

namespace hpb::baselines {
namespace {

using space::Configuration;

TEST(SimulatedAnnealing, NoDuplicateEvaluations) {
  auto ds = testutil::separable_dataset();
  SimulatedAnnealing tuner(ds.space_ptr(), {}, 1);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 50; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second) << t;
    tuner.observe(c, ds.value_of(c));
  }
}

TEST(SimulatedAnnealing, TemperatureCoolsMonotonically) {
  auto ds = testutil::separable_dataset();
  AnnealingConfig config;
  config.initial_samples = 5;
  SimulatedAnnealing tuner(ds.space_ptr(), config, 2);
  double prev = 0.0;
  for (int t = 0; t < 30; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
    if (t >= 5) {
      EXPECT_LE(tuner.temperature(), prev);
    }
    prev = tuner.temperature();
  }
  EXPECT_GT(prev, 0.0);
}

TEST(SimulatedAnnealing, ConvergesOnSeparableObjective) {
  auto ds = testutil::separable_dataset();
  SimulatedAnnealing tuner(ds.space_ptr(), {}, 3);
  const auto result = core::TuningEngine().run(tuner, ds, 40);
  EXPECT_LE(result.best_value, 2.0);
}

TEST(SimulatedAnnealing, SuggestTwiceWithoutObserveThrows) {
  auto ds = testutil::separable_dataset();
  SimulatedAnnealing tuner(ds.space_ptr(), {}, 4);
  (void)tuner.suggest();
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(SimulatedAnnealing, Validation) {
  auto mixed = testutil::mixed_space();
  EXPECT_THROW(SimulatedAnnealing(mixed, {}, 1), Error);
  auto ds = testutil::separable_dataset();
  AnnealingConfig bad;
  bad.cooling_rate = 1.0;
  EXPECT_THROW(SimulatedAnnealing(ds.space_ptr(), bad, 1), Error);
}

TEST(HillClimbing, NoDuplicateEvaluations) {
  auto ds = testutil::separable_dataset();
  HillClimbing tuner(ds.space_ptr(), {}, 5);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 60; ++t) {  // the whole space
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second) << t;
    tuner.observe(c, ds.value_of(c));
  }
}

TEST(HillClimbing, ClimbsToTheUniqueOptimum) {
  // The separable objective has no bad local optima under Hamming-1 moves
  // (it is coordinate-wise convex), so greedy climbing must reach 1.0.
  auto ds = testutil::separable_dataset();
  HillClimbing tuner(ds.space_ptr(), {}, 6);
  const auto result = core::TuningEngine().run(tuner, ds, 45);
  EXPECT_DOUBLE_EQ(result.best_value, 1.0);
}

TEST(HillClimbing, RestartsWhenNeighborhoodExhausted) {
  auto ds = testutil::separable_dataset();
  HillClimbing tuner(ds.space_ptr(), {}, 7);
  (void)core::TuningEngine().run(tuner, ds, 58);
  EXPECT_GE(tuner.restarts(), 1u);
}

TEST(HillClimbing, BeatsRandomOnSmoothObjective) {
  auto ds = testutil::separable_dataset();
  double hc_total = 0.0, rnd_total = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    HillClimbing hc(ds.space_ptr(), {}, 100 + rep);
    hc_total += core::TuningEngine().run(hc, ds, 20).best_value;
    RandomSearch rnd(ds.space_ptr(), 200 + rep);
    rnd_total += core::TuningEngine().run(rnd, ds, 20).best_value;
  }
  EXPECT_LE(hc_total, rnd_total);
}

TEST(HillClimbing, Validation) {
  auto mixed = testutil::mixed_space();
  EXPECT_THROW(HillClimbing(mixed, {}, 1), Error);
}

}  // namespace
}  // namespace hpb::baselines
