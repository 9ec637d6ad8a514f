// Tests for the tuner baselines: RandomSearch, GEIST, and the GP-EI tuner.
#include <gtest/gtest.h>

#include <set>

#include "baselines/geist.hpp"
#include "baselines/gp_tuner.hpp"
#include "baselines/random_search.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"

namespace hpb::baselines {
namespace {

using space::Configuration;

// ------------------------------------------------------------ RandomSearch
TEST(RandomSearch, NoDuplicatesOnFiniteSpace) {
  auto ds = testutil::separable_dataset();
  RandomSearch tuner(ds.space_ptr(), 1);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 60; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }
}

TEST(RandomSearch, PoolExhaustionThrows) {
  auto ds = testutil::separable_dataset();
  auto pool = std::make_shared<const std::vector<Configuration>>(
      std::vector<Configuration>{ds.config(0), ds.config(1)});
  RandomSearch tuner(ds.space_ptr(), 1, pool);
  for (int t = 0; t < 2; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, 1.0);
  }
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(RandomSearch, ContinuousSpaceSampling) {
  auto sp = testutil::mixed_space();
  RandomSearch tuner(sp, 2);
  for (int t = 0; t < 50; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(sp->satisfies(c));
    tuner.observe(c, 0.0);
  }
}

// -------------------------------------------------------------------- GEIST
GeistConfig small_geist() {
  GeistConfig cfg;
  cfg.initial_samples = 8;
  cfg.quantile = 0.25;
  cfg.batch_size = 4;
  return cfg;
}

TEST(Geist, NoDuplicateSuggestions) {
  auto ds = testutil::separable_dataset();
  Geist tuner(ds.space_ptr(), small_geist(), 3);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 60; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second) << t;
    tuner.observe(c, ds.value_of(c));
  }
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(Geist, ConvergesOnSmoothObjective) {
  auto ds = testutil::separable_dataset();
  Geist tuner(ds.space_ptr(), small_geist(), 4);
  const core::TuneResult r = core::TuningEngine().run(tuner, ds, 30);
  EXPECT_LE(r.best_value, 2.0);
}

TEST(Geist, BeatsRandomOnAverage) {
  auto ds = testutil::separable_dataset();
  double geist_total = 0.0, rnd_total = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    Geist g(ds.space_ptr(), small_geist(), 10 + rep);
    geist_total += core::TuningEngine().run(g, ds, 24).best_value;
    RandomSearch r(ds.space_ptr(), 50 + rep);
    rnd_total += core::TuningEngine().run(r, ds, 24).best_value;
  }
  EXPECT_LE(geist_total, rnd_total);
}

TEST(Geist, BeliefsExposedAfterPropagation) {
  auto ds = testutil::separable_dataset();
  auto cfg = small_geist();
  Geist tuner(ds.space_ptr(), cfg, 5);
  EXPECT_TRUE(tuner.beliefs().empty());
  (void)core::TuningEngine().run(tuner, ds, cfg.initial_samples + 1);
  ASSERT_EQ(tuner.beliefs().size(), ds.size());
  for (double b : tuner.beliefs()) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(Geist, ObserveRejectsConfigOutsidePool) {
  auto ds = testutil::separable_dataset();
  auto pool = std::make_shared<const std::vector<Configuration>>(
      std::vector<Configuration>{ds.config(0), ds.config(1), ds.config(2)});
  auto graph = std::make_shared<const ConfigGraph>(ds.space(), *pool);
  Geist tuner(ds.space_ptr(), small_geist(), 1, pool, graph);
  EXPECT_THROW(tuner.observe(ds.config(10), 1.0), Error);
}

TEST(Geist, SharedGraphMatchesInternallyBuilt) {
  auto ds = testutil::separable_dataset();
  auto pool = std::make_shared<const std::vector<Configuration>>(
      ds.configs().begin(), ds.configs().end());
  auto graph = std::make_shared<const ConfigGraph>(ds.space(), *pool);
  Geist a(ds.space_ptr(), small_geist(), 7, pool, graph);
  Geist b(ds.space_ptr(), small_geist(), 7);
  for (int t = 0; t < 20; ++t) {
    const Configuration ca = a.suggest();
    const Configuration cb = b.suggest();
    EXPECT_EQ(ds.space().ordinal_of(ca), ds.space().ordinal_of(cb));
    a.observe(ca, ds.value_of(ca));
    b.observe(cb, ds.value_of(cb));
  }
}

TEST(Geist, ValidatesConfig) {
  auto ds = testutil::separable_dataset();
  GeistConfig bad;
  bad.initial_samples = 1;
  EXPECT_THROW(Geist(ds.space_ptr(), bad, 1), Error);
  bad = {};
  bad.batch_size = 0;
  EXPECT_THROW(Geist(ds.space_ptr(), bad, 1), Error);
}

TEST(Geist, BatchedSuggestionsUseBeliefsFromTheirRound) {
  // GEIST refreshes labels once per batch: the queued suggestions of a
  // round all derive from the same propagation, and a new propagation
  // happens only after the queue drains.
  auto ds = testutil::separable_dataset();
  GeistConfig cfg = small_geist();
  cfg.batch_size = 5;
  Geist tuner(ds.space_ptr(), cfg, 11);
  // Drain the random phase.
  for (std::size_t t = 0; t < cfg.initial_samples; ++t) {
    const auto c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  // First model round triggers one propagation; beliefs stay constant
  // while the batch drains even though observations arrive.
  const auto first = tuner.suggest();
  tuner.observe(first, ds.value_of(first));
  const std::vector<double> beliefs_snapshot = tuner.beliefs();
  for (int t = 0; t < 4; ++t) {  // remaining queued suggestions
    const auto c = tuner.suggest();
    EXPECT_EQ(tuner.beliefs(), beliefs_snapshot);
    tuner.observe(c, ds.value_of(c));
  }
  // Next suggestion starts a new round with refreshed beliefs.
  (void)tuner.suggest();
  EXPECT_NE(tuner.beliefs(), beliefs_snapshot);
}

// ------------------------------------------------------------------- GP-EI
GpConfig small_gp() {
  GpConfig cfg;
  cfg.initial_samples = 8;
  cfg.candidate_subsample = 0;  // exact argmax on the tiny space
  return cfg;
}

TEST(GpTuner, PosteriorInterpolatesObservations) {
  auto ds = testutil::separable_dataset();
  GpTuner tuner(ds.space_ptr(), small_gp(), 1);
  for (int t = 0; t < 10; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  // Posterior at an observed point: mean close to the observation, tiny
  // variance.
  const Configuration probe = ds.config(5);
  tuner.observe(probe, ds.value_of(probe));
  const auto post = tuner.posterior(probe);
  EXPECT_NEAR(post.mean, ds.value_of(probe),
              0.05 * (1.0 + std::abs(ds.value_of(probe))));
  EXPECT_LT(post.variance, 0.1);
}

TEST(GpTuner, NoDuplicateSuggestions) {
  auto ds = testutil::separable_dataset();
  GpTuner tuner(ds.space_ptr(), small_gp(), 2);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 40; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }
}

TEST(GpTuner, FindsOptimumOnSmallSpace) {
  auto ds = testutil::separable_dataset();
  GpTuner tuner(ds.space_ptr(), small_gp(), 3);
  const core::TuneResult r = core::TuningEngine().run(tuner, ds, 30);
  EXPECT_LE(r.best_value, 2.0);
}

TEST(GpTuner, HistoryCapKeepsIncumbent) {
  auto ds = testutil::separable_dataset();
  auto cfg = small_gp();
  cfg.max_history = 12;
  GpTuner tuner(ds.space_ptr(), cfg, 4);
  const core::TuneResult r = core::TuningEngine().run(tuner, ds, 40);
  // Still converges despite the cap.
  EXPECT_LE(r.best_value, 2.0);
}

TEST(GpTuner, ValidatesConfig) {
  auto ds = testutil::separable_dataset();
  GpConfig bad;
  bad.length_scale = 0.0;
  EXPECT_THROW(GpTuner(ds.space_ptr(), bad, 1), Error);
  bad = {};
  bad.noise_variance = 0.0;
  EXPECT_THROW(GpTuner(ds.space_ptr(), bad, 1), Error);
}

}  // namespace
}  // namespace hpb::baselines
