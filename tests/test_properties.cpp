// Cross-cutting property tests, parameterized over all five application
// datasets and over surrogate configurations:
//   * affine invariance of the TPE surrogate's selection sequence,
//   * recall monotonicity in the sample budget,
//   * validity/distinctness of suggestions under swept hyperparameters,
//   * history CSV round trips through warm start.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "apps/registry.hpp"
#include "core/hiperbot.hpp"
#include "core/history_io.hpp"
#include "core/importance.hpp"
#include "core/loop.hpp"
#include "eval/metrics.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using space::Configuration;

// --------------------------------------------------- per-dataset properties
class DatasetProperties : public ::testing::TestWithParam<std::string> {
 protected:
  tabular::TabularObjective dataset() const {
    return apps::dataset_by_name(GetParam()).make();
  }
};

TEST_P(DatasetProperties, TunerSuggestionsAreValidAndDistinct) {
  auto ds = dataset();
  core::HiPerBOt tuner(ds.space_ptr(), {}, 1);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 60; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(ds.find(c).has_value());
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }
}

TEST_P(DatasetProperties, RecallIsMonotoneInBudget) {
  auto ds = dataset();
  core::HiPerBOt tuner(ds.space_ptr(), {}, 2);
  const auto result = core::run_tuning(tuner, ds, 120);
  double prev = 0.0;
  for (std::size_t n = 20; n <= 120; n += 20) {
    const double r = eval::recall_percentile(ds, result.history, n, 5.0);
    EXPECT_GE(r, prev) << "n=" << n;
    prev = r;
  }
}

TEST_P(DatasetProperties, BestSoFarTrajectoryNonIncreasing) {
  auto ds = dataset();
  core::HiPerBOt tuner(ds.space_ptr(), {}, 3);
  const auto result = core::run_tuning(tuner, ds, 80);
  for (std::size_t t = 1; t < result.best_so_far.size(); ++t) {
    EXPECT_LE(result.best_so_far[t], result.best_so_far[t - 1]);
  }
  EXPECT_GE(result.best_value, ds.best_value());
}

TEST_P(DatasetProperties, AffineObjectiveInvariance) {
  // The surrogate depends on y only through the quantile split, so the
  // suggestion sequence is invariant under positive affine transforms of
  // the objective (y -> a*y + b with a > 0).
  auto ds = dataset();
  auto run_sequence = [&](double a, double b) {
    core::HiPerBOt tuner(ds.space_ptr(), {}, 4);
    std::vector<std::uint64_t> ordinals;
    for (int t = 0; t < 50; ++t) {
      const Configuration c = tuner.suggest();
      ordinals.push_back(ds.space().ordinal_of(c));
      tuner.observe(c, a * ds.value_of(c) + b);
    }
    return ordinals;
  };
  const auto identity = run_sequence(1.0, 0.0);
  const auto scaled = run_sequence(1000.0, -5.0);
  EXPECT_EQ(identity, scaled);
}

TEST_P(DatasetProperties, ImportanceScoresWithinJsBounds) {
  auto ds = dataset();
  const auto entries = core::dataset_importance(ds, 0.2);
  EXPECT_EQ(entries.size(), ds.space().num_params());
  for (const auto& e : entries) {
    EXPECT_GE(e.js_divergence, 0.0) << e.parameter;
    EXPECT_LE(e.js_divergence, std::log(2.0)) << e.parameter;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, DatasetProperties,
                         ::testing::Values("kripke", "kripke_energy", "hypre",
                                           "lulesh", "openAtom",
                                           "systolic_small"));

// -------------------------------------------- hyperparameter-sweep validity
struct SweepCase {
  std::size_t initial_samples;
  double quantile;
  core::SelectionStrategy strategy;
};

class ConfigSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConfigSweep, SuggestionsStayValidUnderAnyConfig) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = GetParam().initial_samples;
  config.quantile = GetParam().quantile;
  config.strategy = GetParam().strategy;
  core::HiPerBOt tuner(ds.space_ptr(), config, 7);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 40; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(ds.find(c).has_value());
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
    tuner.observe(c, ds.value_of(c));
  }
  // A sensible result regardless of hyperparameters.
  EXPECT_LE(tuner.history().best_value(), 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweep,
    ::testing::Values(
        SweepCase{2, 0.05, core::SelectionStrategy::kRanking},
        SweepCase{5, 0.2, core::SelectionStrategy::kRanking},
        SweepCase{20, 0.2, core::SelectionStrategy::kRanking},
        SweepCase{30, 0.5, core::SelectionStrategy::kRanking},
        SweepCase{5, 0.1, core::SelectionStrategy::kProposal},
        SweepCase{20, 0.35, core::SelectionStrategy::kProposal},
        SweepCase{10, 0.9, core::SelectionStrategy::kRanking}));

// -------------------------------------------------------------- history IO
TEST(HistoryIo, CsvRoundTripPreservesObservations) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOt source(ds.space_ptr(), {}, 8);
  const auto result = core::run_tuning(source, ds, 30);

  std::ostringstream out;
  core::write_history_csv(out, ds.space(), result.history);

  // Replay into a fresh tuner and compare histories observation by
  // observation.
  core::HiPerBOt replayed(ds.space_ptr(), {}, 9);
  std::istringstream in(out.str());
  const std::size_t n = core::warm_start_from_csv(in, ds.space(), replayed);
  ASSERT_EQ(n, 30u);
  ASSERT_EQ(replayed.history().size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(replayed.history()[i].config, result.history[i].config);
    EXPECT_DOUBLE_EQ(replayed.history()[i].y, result.history[i].y);
  }
}

TEST(HistoryIo, WarmStartedTunerSkipsReplayedConfigs) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOt first(ds.space_ptr(), {}, 10);
  const auto result = core::run_tuning(first, ds, 25);
  std::ostringstream out;
  core::write_history_csv(out, ds.space(), result.history);

  core::HiPerBOt second(ds.space_ptr(), {}, 11);
  std::istringstream in(out.str());
  (void)core::warm_start_from_csv(in, ds.space(), second);
  std::set<std::uint64_t> replayed;
  for (const auto& obs : result.history) {
    replayed.insert(ds.space().ordinal_of(obs.config));
  }
  for (int t = 0; t < 20; ++t) {
    const Configuration c = second.suggest();
    EXPECT_FALSE(replayed.contains(ds.space().ordinal_of(c)));
    second.observe(c, ds.value_of(c));
  }
}

TEST(HistoryIo, HandlesReorderedColumnsAndErrors) {
  auto ds = testutil::separable_dataset();  // params A, B, C
  core::HiPerBOt tuner(ds.space_ptr(), {}, 12);
  {
    // Columns reordered: C,A,B,objective.
    std::istringstream in("C,A,B,objective\n3,a1,4,1.0\n");
    EXPECT_EQ(core::warm_start_from_csv(in, ds.space(), tuner), 1u);
    const auto& obs = tuner.history()[0];
    EXPECT_EQ(obs.config.level(0), 1u);  // A = a1
    EXPECT_EQ(obs.config.level(1), 2u);  // B label "4" is level 2
    EXPECT_EQ(obs.config.level(2), 3u);  // C = 3
  }
  {
    std::istringstream bad_level("A,B,C,objective\nbogus,1,0,1.0\n");
    EXPECT_THROW((void)core::warm_start_from_csv(bad_level, ds.space(), tuner),
                 Error);
  }
  {
    std::istringstream bad_header("A,B,objective\na0,1,1.0\n");
    EXPECT_THROW(
        (void)core::warm_start_from_csv(bad_header, ds.space(), tuner),
        Error);
  }
  {
    std::istringstream bad_objective("A,B,C,objective\na0,1,0,soon\n");
    EXPECT_THROW(
        (void)core::warm_start_from_csv(bad_objective, ds.space(), tuner),
        Error);
  }
}

TEST(HistoryIo, WarmStartRejectsRowsOutsideTheConstrainedSpace) {
  // 2x2 integer space without (1,1). Accepting the (1,1) row used to count
  // it against the 3-configuration pool: after (0,0) and (0,1) the pool
  // looked exhausted, so suggest() threw and suggest_batch(1) came back
  // empty although (1,0) was never evaluated.
  auto space = std::make_shared<space::ParameterSpace>();
  space->add(space::Parameter::integer("a", 0, 1));
  space->add(space::Parameter::integer("b", 0, 1));
  space->add_constraint([](const space::ParameterSpace&,
                           const Configuration& c) {
    return !(c.level(0) == 1 && c.level(1) == 1);
  });
  core::HiPerBOtConfig config;
  config.initial_samples = 2;
  core::HiPerBOt tuner(space, config, 12);
  std::istringstream with_invalid("a,b,objective\n1,1,1.0\n0,0,2.0\n0,1,3.0\n");
  try {
    (void)core::warm_start_from_csv(with_invalid, *space, tuner);
    FAIL() << "the (1,1) row violates the constraint";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(tuner.history().size(), 0u);

  std::istringstream valid("a,b,objective\n0,0,2.0\n0,1,3.0\n");
  ASSERT_EQ(core::warm_start_from_csv(valid, *space, tuner), 2u);
  EXPECT_EQ(tuner.suggest(), Configuration({1.0, 0.0}));
}

TEST(HistoryIo, ContinuousParametersRoundTrip) {
  auto sp = testutil::mixed_space();
  core::HiPerBOtConfig config;
  config.strategy = core::SelectionStrategy::kProposal;
  config.initial_samples = 5;
  core::HiPerBOt source(sp, config, 13);
  for (int t = 0; t < 10; ++t) {
    const Configuration c = source.suggest();
    source.observe(c, c[1]);
  }
  std::ostringstream out;
  core::write_history_csv(out, *sp,
                          source.history().observations());
  core::HiPerBOt replayed(sp, config, 14);
  std::istringstream in(out.str());
  EXPECT_EQ(core::warm_start_from_csv(in, *sp, replayed), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(replayed.history()[i].config.level(0),
              source.history()[i].config.level(0));
    // The CSV writer emits shortest-round-trip decimals, so continuous
    // values survive the trip bitwise, not just approximately.
    EXPECT_EQ(replayed.history()[i].config[1], source.history()[i].config[1]);
  }
}

}  // namespace
}  // namespace hpb
