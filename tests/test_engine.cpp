// TuningEngine determinism and batching contract:
//   - batch_size == 1 reproduces the historical serial ask/tell loop
//     bitwise for every registered tuner (the paper's curves do not move);
//   - batched runs are deterministic for a fixed seed and never evaluate a
//     configuration twice;
//   - run_until drains the whole round a stopping condition fires in;
//   - HiPerBOt tracks outstanding batch members as pending (regression for
//     the overlapping-batches footgun);
//   - the HPB_REPS / HPB_BATCH environment knobs are parsed strictly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "core/journal.hpp"
#include "core/stopping.hpp"
#include "eval/experiment.hpp"
#include "eval/methods.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::Observation;
using core::TuneResult;
using core::TuningEngine;

constexpr std::size_t kBudget = 40;
constexpr std::uint64_t kSeed = 0xE7517E;

/// Verbatim copy of the pre-engine serial driver (the run_tuning loop the
/// engine replaced) — the reference the engine must reproduce at batch 1.
TuneResult legacy_run_tuning(core::Tuner& tuner, tabular::Objective& objective,
                             std::size_t budget) {
  TuneResult result;
  result.history.reserve(budget);
  result.best_so_far.reserve(budget);
  for (std::size_t t = 0; t < budget; ++t) {
    space::Configuration c = tuner.suggest();
    const double y = objective.evaluate(c);
    tuner.observe(c, y);
    if (result.history.empty() || y < result.best_value) {
      result.best_value = y;
      result.best_config = c;
    }
    result.history.push_back({std::move(c), y});
    result.best_so_far.push_back(result.best_value);
  }
  return result;
}

void expect_identical(const TuneResult& a, const TuneResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].config.values(), b.history[i].config.values())
        << "history diverges at evaluation " << i;
    EXPECT_EQ(a.history[i].y, b.history[i].y);
  }
  EXPECT_EQ(a.best_so_far, b.best_so_far);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.best_config.values(), b.best_config.values());
}

TEST(EngineSerialEquivalence, EveryTunerMatchesLegacyLoopAtBatchOne) {
  auto ds = testutil::separable_dataset();
  const TuningEngine engine({.batch_size = 1});
  for (const std::string& name : eval::tuner_names()) {
    SCOPED_TRACE(name);
    auto legacy_tuner = eval::make_named_tuner(name, ds, kSeed);
    auto engine_tuner = eval::make_named_tuner(name, ds, kSeed);
    const TuneResult expected = legacy_run_tuning(*legacy_tuner, ds, kBudget);
    const TuneResult actual = engine.run(*engine_tuner, ds, kBudget);
    expect_identical(expected, actual);
  }
}

TEST(EngineBatched, SameSeedSameHistoryAndNoDuplicates) {
  auto ds = testutil::separable_dataset();
  for (const std::size_t batch : {std::size_t{2}, std::size_t{4}}) {
    const TuningEngine engine({.batch_size = batch});
    for (const std::string& name : eval::tuner_names()) {
      SCOPED_TRACE(name + " batch " + std::to_string(batch));
      auto first = eval::make_named_tuner(name, ds, kSeed);
      auto second = eval::make_named_tuner(name, ds, kSeed);
      const TuneResult a = engine.run(*first, ds, kBudget);
      const TuneResult b = engine.run(*second, ds, kBudget);
      expect_identical(a, b);

      std::unordered_set<std::uint64_t> seen;
      for (const Observation& o : a.history) {
        EXPECT_TRUE(seen.insert(ds.space().ordinal_of(o.config)).second)
            << "duplicate configuration in batched history";
      }
    }
  }
}

TEST(EngineBatched, PoolAndSerialEvaluationAgree) {
  auto ds = testutil::separable_dataset();
  ThreadPool pool(4);
  const TuningEngine with_pool({.batch_size = 4, .pool = &pool});
  const TuningEngine without_pool({.batch_size = 4});
  auto a = eval::make_named_tuner("hiperbot", ds, kSeed);
  auto b = eval::make_named_tuner("hiperbot", ds, kSeed);
  expect_identical(with_pool.run(*a, ds, kBudget),
                   without_pool.run(*b, ds, kBudget));
}

TEST(EngineBatched, BudgetNotDivisibleByBatchStillExact) {
  auto ds = testutil::separable_dataset();
  const TuningEngine engine({.batch_size = 7});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const TuneResult r = engine.run(*tuner, ds, 23);
  EXPECT_EQ(r.history.size(), 23u);
  EXPECT_EQ(r.best_so_far.size(), 23u);
}

TEST(EngineBatched, RejectsZeroBatch) {
  EXPECT_THROW(TuningEngine({.batch_size = 0}), Error);
}

TEST(EngineRunUntil, TargetStopMidBatchDrainsWholeRound) {
  auto ds = testutil::separable_dataset();
  core::StopConfig stop;
  stop.max_evaluations = ds.size();
  stop.target_value = ds.best_value();  // the unique optimum (value 1)
  const TuningEngine engine({.batch_size = 4});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto stopped = engine.run_until(*tuner, ds, stop);
  EXPECT_EQ(stopped.reason, core::StopReason::kTargetReached);
  EXPECT_EQ(stopped.result.best_value, ds.best_value());
  // Every evaluation of the stopping round was paid for and is recorded:
  // the history is a whole number of full batches, the target value appears
  // in the final batch, and nothing before that batch beats the target.
  EXPECT_EQ(stopped.result.history.size() % 4, 0u);
  const std::size_t last_round = stopped.result.history.size() - 4;
  bool hit = false;
  for (std::size_t i = 0; i < stopped.result.history.size(); ++i) {
    if (stopped.result.history[i].y == ds.best_value()) {
      EXPECT_GE(i, last_round);
      hit = true;
    }
  }
  EXPECT_TRUE(hit);
}

TEST(HiPerBOtPending, OverlappingBatchesNeverRepeatOutstandingConfigs) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, kSeed);

  const auto first = tuner.suggest_batch(6);
  const auto second = tuner.suggest_batch(6);  // nothing observed yet
  std::unordered_set<std::uint64_t> seen;
  for (const auto& c : first) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
  }
  for (const auto& c : second) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second)
        << "second batch repeated an outstanding configuration";
  }
}

TEST(HiPerBOtPending, PartialObservationKeepsRestPending) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, kSeed);

  const auto batch = tuner.suggest_batch(6);
  // Observe only half the batch; the other half must stay excluded.
  for (std::size_t i = 0; i < 3; ++i) {
    tuner.observe(batch[i], ds.value_of(batch[i]));
  }
  std::unordered_set<std::uint64_t> excluded;
  for (const auto& c : batch) {
    excluded.insert(ds.space().ordinal_of(c));
  }
  const auto next = tuner.suggest_batch(6);
  for (const auto& c : next) {
    EXPECT_FALSE(excluded.contains(ds.space().ordinal_of(c)));
  }
}

TEST(HiPerBOtPending, ObservingReleasesPendingForReasoningNotRepeats) {
  // Once every batch member is observed, the tuner proceeds normally and a
  // full run never evaluates a configuration twice.
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  core::HiPerBOt tuner(ds.space_ptr(), config, kSeed);
  const TuningEngine engine({.batch_size = 6});
  const TuneResult r = engine.run(tuner, ds, ds.size());
  std::unordered_set<std::uint64_t> seen;
  for (const Observation& o : r.history) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(o.config)).second);
  }
  EXPECT_EQ(seen.size(), ds.size());
}

TEST(EngineJournal, JournalingDoesNotPerturbAnyTunerBitwise) {
  // A journaled run and a plain run are the same run: the journal is
  // write-only bookkeeping on the side of the loop.
  auto ds = testutil::separable_dataset();
  for (const std::string& name : eval::tuner_names()) {
    SCOPED_TRACE(name);
    auto plain_tuner = eval::make_named_tuner(name, ds, kSeed);
    const TuneResult plain =
        TuningEngine({.batch_size = 4}).run(*plain_tuner, ds, kBudget);

    const std::string path = ::testing::TempDir() + "engine_" + name + ".hpbj";
    core::JournalHeader header;
    header.method = name;
    header.dataset = ds.name();
    header.seed = kSeed;
    header.batch_size = 4;
    header.num_params = ds.space().num_params();
    header.max_evaluations = kBudget;
    auto journaled_tuner = eval::make_named_tuner(name, ds, kSeed);
    core::JournalWriter writer = core::JournalWriter::create(path, header);
    const TuneResult journaled =
        TuningEngine({.batch_size = 4, .journal = &writer})
            .run(*journaled_tuner, ds, kBudget);
    expect_identical(plain, journaled);
  }
}

TEST(EngineJournal, EveryTunerResumesBitwiseFromAMidRunJournal) {
  // Truncate each tuner's journal at a round boundary mid-run and resume:
  // a run given the replayed prefix must land on the identical final result.
  auto ds = testutil::separable_dataset();
  const TuningEngine engine({.batch_size = 4});
  for (const std::string& name : eval::tuner_names()) {
    SCOPED_TRACE(name);
    const std::string path = ::testing::TempDir() + "resume_" + name + ".hpbj";
    core::JournalHeader header;
    header.method = name;
    header.dataset = ds.name();
    header.seed = kSeed;
    header.batch_size = 4;
    header.num_params = ds.space().num_params();
    header.max_evaluations = kBudget;
    auto full_tuner = eval::make_named_tuner(name, ds, kSeed);
    core::JournalWriter writer = core::JournalWriter::create(path, header);
    const TuneResult full =
        TuningEngine({.batch_size = 4, .journal = &writer})
            .run(*full_tuner, ds, kBudget);

    core::JournalContents contents = core::read_journal(path);
    ASSERT_GT(contents.num_asks(), 2u);
    // Mid-run snapshot: the first half of the rounds, each read as an ask
    // and the observe of the whole round.
    contents.events.resize(contents.num_asks() / 2 * 2);
    auto resumed_tuner = eval::make_named_tuner(name, ds, kSeed);
    const core::ReplayResult replayed =
        core::replay_journal(*resumed_tuner, ds.space(), contents);
    ASSERT_FALSE(replayed.observations.empty());
    const TuneResult resumed =
        engine.run(*resumed_tuner, ds, kBudget, replayed);
    expect_identical(full, resumed);
  }
}

class EnvParsing : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("HPB_REPS");
    unsetenv("HPB_BATCH");
  }
};

TEST_F(EnvParsing, UnsetFallsBack) {
  unsetenv("HPB_REPS");
  unsetenv("HPB_BATCH");
  EXPECT_EQ(eval::reps_from_env(7), 7u);
  EXPECT_EQ(eval::batch_from_env(3), 3u);
}

TEST_F(EnvParsing, ParsesPlainAndPaddedIntegers) {
  setenv("HPB_REPS", "50", 1);
  EXPECT_EQ(eval::reps_from_env(7), 50u);
  setenv("HPB_BATCH", "  12  ", 1);
  EXPECT_EQ(eval::batch_from_env(1), 12u);
}

TEST_F(EnvParsing, RejectsGarbage) {
  for (const char* bad : {"", "  ", "abc", "12abc", "1.5", "-3", "0",
                          "99999999999999999999999999"}) {
    setenv("HPB_REPS", bad, 1);
    EXPECT_THROW((void)eval::reps_from_env(7), Error)
        << "HPB_REPS=\"" << bad << "\" should be rejected";
    setenv("HPB_BATCH", bad, 1);
    EXPECT_THROW((void)eval::batch_from_env(1), Error)
        << "HPB_BATCH=\"" << bad << "\" should be rejected";
  }
}

TEST_F(EnvParsing, SelectionExperimentHonorsBatchSize) {
  // A batched experiment runs end to end and batch 1 equals the legacy
  // curve driver (the statistics reduce in rep order either way).
  auto ds = testutil::separable_dataset();
  const auto methods = eval::make_standard_methods(ds);
  eval::SelectionExperimentConfig config;
  config.sample_sizes = {10, 25};
  config.reps = 3;
  config.batch_size = 4;
  const auto curve =
      eval::run_selection_experiment(ds, "HiPerBOt", methods.hiperbot, config);
  ASSERT_EQ(curve.best_value.size(), 2u);
  EXPECT_EQ(curve.best_value[0].count(), 3u);
}

}  // namespace
}  // namespace hpb
