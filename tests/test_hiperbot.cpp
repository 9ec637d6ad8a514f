// Tests for the HiPerBOt tuner: suggestion invariants, the two selection
// strategies, convergence behaviour, and transfer-learning wiring.
#include "core/hiperbot.hpp"

#include <gtest/gtest.h>

#include <set>

#include "baselines/random_search.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"

namespace hpb::core {
namespace {

using space::Configuration;

HiPerBOtConfig small_config(SelectionStrategy strategy) {
  HiPerBOtConfig cfg;
  cfg.initial_samples = 8;
  cfg.quantile = 0.25;
  cfg.strategy = strategy;
  cfg.proposal_candidates = 32;
  return cfg;
}

TEST(HiPerBOt, NeverSuggestsDuplicatesOnFiniteSpace) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 1);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 60; ++t) {  // the whole space
    const Configuration c = tuner.suggest();
    const auto ordinal = ds.space().ordinal_of(c);
    EXPECT_TRUE(seen.insert(ordinal).second) << "duplicate at t=" << t;
    tuner.observe(c, ds.value_of(c));
  }
  // Pool exhausted now.
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(HiPerBOt, InitialPhaseIsRandomThenModelBased) {
  auto ds = testutil::separable_dataset();
  auto cfg = small_config(SelectionStrategy::kRanking);
  cfg.initial_samples = 5;
  HiPerBOt tuner(ds.space_ptr(), cfg, 2);
  for (int t = 0; t < 5; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  EXPECT_EQ(tuner.history().size(), 5u);
  // After the initial phase a surrogate can be fit.
  EXPECT_NO_THROW((void)tuner.fit_surrogate());
}

TEST(HiPerBOt, FindsSeparableOptimumQuickly) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 3);
  const TuneResult r = TuningEngine().run(tuner, ds, 25);
  EXPECT_DOUBLE_EQ(r.best_value, 1.0);  // optimum found within 25/60 evals
}

TEST(HiPerBOt, ProposalStrategyWorksOnFiniteSpace) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kProposal),
                 4);
  const TuneResult r = TuningEngine().run(tuner, ds, 40);
  EXPECT_LE(r.best_value, 2.0);
  // No duplicates even under Proposal (finite space tracks ordinals).
  std::set<std::uint64_t> seen;
  for (const auto& obs : r.history) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(obs.config)).second);
  }
}

TEST(HiPerBOt, ProposalHandlesContinuousSpaces) {
  auto sp = testutil::mixed_space();
  auto cfg = small_config(SelectionStrategy::kProposal);
  HiPerBOt tuner(sp, cfg, 5);
  // Objective: minimize |t - 7| with categorical penalty.
  for (int t = 0; t < 50; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_LT(c.level(0), 3u);
    EXPECT_GE(c[1], 0.0);
    EXPECT_LE(c[1], 10.0);
    tuner.observe(c, std::abs(c[1] - 7.0) + (c.level(0) == 2 ? 0.0 : 1.0));
  }
  EXPECT_LT(tuner.history().best_value(), 0.8);
}

TEST(HiPerBOt, RankingRequiresFinitePool) {
  auto sp = testutil::mixed_space();
  EXPECT_THROW(
      HiPerBOt(sp, small_config(SelectionStrategy::kRanking), 1),
      Error);
}

TEST(HiPerBOt, ValidatesConfig) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig cfg;
  cfg.initial_samples = 1;
  EXPECT_THROW(HiPerBOt(ds.space_ptr(), cfg, 1), Error);
  cfg = {};
  cfg.quantile = 1.5;
  EXPECT_THROW(HiPerBOt(ds.space_ptr(), cfg, 1), Error);
}

TEST(HiPerBOt, DeterministicForFixedSeed) {
  auto ds = testutil::separable_dataset();
  auto run = [&](std::uint64_t seed) {
    HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking),
                   seed);
    std::vector<std::uint64_t> ordinals;
    for (int t = 0; t < 20; ++t) {
      const Configuration c = tuner.suggest();
      ordinals.push_back(ds.space().ordinal_of(c));
      tuner.observe(c, ds.value_of(c));
    }
    return ordinals;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(HiPerBOt, ObserveValidatesConfigurationSize) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 1);
  EXPECT_THROW(tuner.observe(Configuration({0.0}), 1.0), Error);
}

TEST(HiPerBOt, BeatsRandomOnAverage) {
  auto ds = testutil::separable_dataset();
  double hpb_total = 0.0, rnd_total = 0.0;
  constexpr int kReps = 10;
  constexpr std::size_t kBudget = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking),
                   100 + rep);
    hpb_total += TuningEngine().run(tuner, ds, kBudget).best_value;
    baselines::RandomSearch random(ds.space_ptr(), 200 + rep);
    rnd_total += TuningEngine().run(random, ds, kBudget).best_value;
  }
  EXPECT_LE(hpb_total, rnd_total);
}

TEST(HiPerBOt, TransferPriorAcceleratesColdStart) {
  // Target objective equals the source (perfectly transferable). With a
  // strong prior, the very first model-based suggestion should land in the
  // good region.
  auto source = testutil::separable_dataset();
  auto target = testutil::separable_dataset();
  const TransferPrior prior = make_transfer_prior(
      source.space_ptr(), source.configs(), source.values(), 0.2);

  double with_prior = 0.0, without_prior = 0.0;
  constexpr int kReps = 8;
  for (int rep = 0; rep < kReps; ++rep) {
    auto cfg = small_config(SelectionStrategy::kRanking);
    cfg.initial_samples = 4;
    cfg.transfer_weight = 10.0;
    HiPerBOt with(target.space_ptr(), cfg, 300 + rep);
    with.set_transfer_prior(make_transfer_prior(
        source.space_ptr(), source.configs(), source.values(), 0.2));
    with_prior += TuningEngine().run(with, target, 8).best_value;

    HiPerBOt without(target.space_ptr(), cfg, 300 + rep);
    without_prior += TuningEngine().run(without, target, 8).best_value;
  }
  EXPECT_LT(with_prior, without_prior);
}

TEST(HiPerBOt, ParameterImportanceFromHistory) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 7);
  (void)TuningEngine().run(tuner, ds, 40);
  const auto importance = tuner.parameter_importance();
  ASSERT_EQ(importance.size(), 3u);
  for (double v : importance) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(TuningLoop, TrajectoryIsMonotoneNonIncreasing) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 8);
  const TuneResult r = TuningEngine().run(tuner, ds, 30);
  ASSERT_EQ(r.best_so_far.size(), 30u);
  ASSERT_EQ(r.history.size(), 30u);
  for (std::size_t t = 1; t < r.best_so_far.size(); ++t) {
    EXPECT_LE(r.best_so_far[t], r.best_so_far[t - 1]);
  }
  EXPECT_DOUBLE_EQ(r.best_so_far.back(), r.best_value);
  EXPECT_DOUBLE_EQ(ds.value_of(r.best_config), r.best_value);
}

TEST(TuningLoop, ZeroBudgetThrows) {
  auto ds = testutil::separable_dataset();
  HiPerBOt tuner(ds.space_ptr(), small_config(SelectionStrategy::kRanking), 9);
  EXPECT_THROW((void)TuningEngine().run(tuner, ds, 0), Error);
}

}  // namespace
}  // namespace hpb::core
