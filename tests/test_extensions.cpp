// Tests for the tuning-loop extensions: Latin hypercube initial designs,
// stopping criteria, objective adapters, and batch suggestion.
#include <gtest/gtest.h>

#include <set>

#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "core/stopping.hpp"
#include "space/sampling.hpp"
#include "tabular/adapters.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using space::Configuration;

// ------------------------------------------------------------- LHS designs
TEST(LatinHypercube, DiscreteLevelsCoveredEvenly) {
  const auto sp = testutil::small_discrete_space();
  Rng rng(1);
  // n = 12 = 4 × 3: parameter A (4 levels) must appear exactly 3× per
  // level, B (3 levels) exactly 4× per level.
  const auto design = space::latin_hypercube(*sp, 12, rng);
  ASSERT_EQ(design.size(), 12u);
  std::vector<int> count_a(4, 0), count_b(3, 0);
  for (const auto& c : design) {
    ++count_a[c.level(0)];
    ++count_b[c.level(1)];
  }
  for (int n : count_a) {
    EXPECT_EQ(n, 3);
  }
  for (int n : count_b) {
    EXPECT_EQ(n, 4);
  }
}

TEST(LatinHypercube, ContinuousStrataEachContainOneSample) {
  const auto sp = testutil::mixed_space();  // t in [0, 10]
  Rng rng(2);
  constexpr std::size_t kN = 20;
  const auto design = space::latin_hypercube(*sp, kN, rng);
  std::vector<int> strata(kN, 0);
  for (const auto& c : design) {
    const auto s = static_cast<std::size_t>(c[1] / (10.0 / kN));
    ++strata[std::min(s, kN - 1)];
  }
  for (int n : strata) {
    EXPECT_EQ(n, 1);
  }
}

TEST(LatinHypercube, ConstrainedRowsAreReplacedByValidSamples) {
  auto sp = std::make_shared<space::ParameterSpace>();
  sp->add(space::Parameter::integer("a", 0, 3));
  sp->add(space::Parameter::integer("b", 0, 3));
  sp->add_constraint(
      [](const space::ParameterSpace&, const Configuration& c) {
        return c.level(0) != c.level(1);
      },
      "");
  Rng rng(3);
  const auto design = space::latin_hypercube(*sp, 16, rng);
  ASSERT_EQ(design.size(), 16u);
  for (const auto& c : design) {
    EXPECT_TRUE(sp->satisfies(c));
  }
}

TEST(LatinHypercube, Validation) {
  const auto sp = testutil::small_discrete_space();
  Rng rng(4);
  EXPECT_THROW((void)space::latin_hypercube(*sp, 0, rng), Error);
}

TEST(HiPerBOtLhs, InitialPhaseUsesTheDesign) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 12;
  config.initial_design = core::InitialDesign::kLatinHypercube;
  core::HiPerBOt tuner(ds.space_ptr(), config, 5);
  std::vector<int> count_a(4, 0);
  for (int t = 0; t < 12; ++t) {
    const Configuration c = tuner.suggest();
    ++count_a[c.level(0)];
    tuner.observe(c, ds.value_of(c));
  }
  // 12 initial samples over 4 A-levels: exact stratification unless a
  // duplicate forced a uniform replacement — allow one deviation.
  int deviations = 0;
  for (int n : count_a) {
    deviations += std::abs(n - 3);
  }
  EXPECT_LE(deviations, 2);
}

// --------------------------------------------------------------- stopping
TEST(Stopping, BudgetExhaustion) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, 6);
  core::StopConfig stop;
  stop.max_evaluations = 15;
  const auto out = core::TuningEngine().run_until(tuner, ds, stop);
  EXPECT_EQ(out.reason, core::StopReason::kBudgetExhausted);
  EXPECT_EQ(out.result.history.size(), 15u);
}

TEST(Stopping, StagnationFiresAfterPatience) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, 7);
  core::StopConfig stop;
  stop.max_evaluations = 60;
  stop.stagnation_patience = 8;
  const auto out = core::TuningEngine().run_until(tuner, ds, stop);
  EXPECT_EQ(out.reason, core::StopReason::kStagnation);
  EXPECT_LT(out.result.history.size(), 60u);
  // The last `patience` evaluations brought no improvement.
  const auto& traj = out.result.best_so_far;
  EXPECT_DOUBLE_EQ(traj.back(), traj[traj.size() - 8]);
}

TEST(Stopping, TargetReachedStopsImmediately) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, 8);
  core::StopConfig stop;
  stop.max_evaluations = 60;
  stop.target_value = 1.0;  // the dataset optimum
  const auto out = core::TuningEngine().run_until(tuner, ds, stop);
  EXPECT_EQ(out.reason, core::StopReason::kTargetReached);
  EXPECT_DOUBLE_EQ(out.result.best_value, 1.0);
  EXPECT_DOUBLE_EQ(out.result.history.back().y, 1.0);
}

TEST(Stopping, Validation) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOt tuner(ds.space_ptr(), {}, 9);
  core::StopConfig stop;
  stop.max_evaluations = 0;
  EXPECT_THROW((void)core::TuningEngine().run_until(tuner, ds, stop), Error);
}

// ---------------------------------------------------------------- adapters
TEST(Adapters, MaximizeNegatesAndTunersFindTheMaximum) {
  auto ds = testutil::separable_dataset();
  tabular::MaximizeAdapter maximize(ds);
  // The separable objective's maximum is at the levels farthest from
  // (1,2,3): A=3, B=0, C=0 with value 4+4+9+1 = 18.
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  core::HiPerBOt tuner(ds.space_ptr(), config, 10);
  const auto result = core::TuningEngine().run(tuner, maximize, 40);
  EXPECT_DOUBLE_EQ(-result.best_value, 18.0);
}

TEST(Adapters, CountingCountsExactly) {
  auto ds = testutil::separable_dataset();
  tabular::CountingObjective counting(ds);
  core::HiPerBOt tuner(ds.space_ptr(), {}, 11);
  (void)core::TuningEngine().run(tuner, counting, 25);
  EXPECT_EQ(counting.count(), 25u);
}

TEST(Adapters, NoisyPerturbsMultiplicatively) {
  auto ds = testutil::separable_dataset();
  tabular::NoisyObjective noisy(ds, 0.05, 12);
  const auto& c = ds.config(7);
  const double truth = ds.value(7);
  double max_rel = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double y = noisy.evaluate(c);
    max_rel = std::max(max_rel, std::abs(y - truth) / truth);
  }
  EXPECT_GT(max_rel, 0.01);  // noise is actually applied
  EXPECT_LT(max_rel, 0.30);  // ... at roughly the requested magnitude
  EXPECT_THROW(tabular::NoisyObjective(ds, -0.1, 1), Error);
}

TEST(Adapters, TunerStillWorksUnderNoise) {
  auto ds = testutil::separable_dataset();
  tabular::NoisyObjective noisy(ds, 0.05, 13);
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  core::HiPerBOt tuner(ds.space_ptr(), config, 13);
  const auto result = core::TuningEngine().run(tuner, noisy, 40);
  // The *true* value of the selected config is near-optimal even though
  // observations were noisy.
  EXPECT_LE(ds.value_of(result.best_config), 3.0);
}

// -------------------------------------------------------- batch suggestion
TEST(BatchSuggest, DistinctAndScoredInInitialAndModelPhase) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  core::HiPerBOt tuner(ds.space_ptr(), config, 14);

  // Initial phase batch.
  auto batch = tuner.suggest_batch(8);
  ASSERT_EQ(batch.size(), 8u);
  std::set<std::uint64_t> seen;
  for (const auto& c : batch) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }

  // Model phase: a serial suggestion is outstanding (pending) until
  // observed, so a subsequent batch must not repeat it — it starts at the
  // surrogate's *second*-best pick.
  const Configuration top = tuner.suggest();
  EXPECT_TRUE(seen.insert(ds.space().ordinal_of(top)).second);
  auto model_batch = tuner.suggest_batch(5);
  ASSERT_EQ(model_batch.size(), 5u);
  for (const auto& c : model_batch) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
  }
  // Observing the outstanding suggestion releases its pending slot without
  // disturbing the batch bookkeeping.
  tuner.observe(top, ds.value_of(top));
}

TEST(BatchSuggest, CapsAtRemainingPool) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  core::HiPerBOt tuner(ds.space_ptr(), config, 15);
  for (int t = 0; t < 55; ++t) {
    const auto c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  const auto batch = tuner.suggest_batch(20);  // only 5 configs remain
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_THROW((void)tuner.suggest_batch(0), Error);
}

TEST(BatchSuggest, ProposalStrategyProducesValidBatch) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  config.strategy = core::SelectionStrategy::kProposal;
  core::HiPerBOt tuner(ds.space_ptr(), config, 16);
  for (int t = 0; t < 10; ++t) {
    const auto c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  const auto batch = tuner.suggest_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  std::set<std::uint64_t> seen;
  for (const auto& c : batch) {
    EXPECT_TRUE(ds.space().satisfies(c));
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
  }
}

}  // namespace
}  // namespace hpb
