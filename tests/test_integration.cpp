// Integration tests: the full §V / §VII pipelines at reduced scale —
// HiPerBOt vs GEIST vs Random on a real app dataset, transfer learning
// with priors vs cold start, and cross-seed stability of the conclusions.
#include <gtest/gtest.h>

#include <chrono>

#include "apps/kripke.hpp"
#include "apps/lulesh.hpp"
#include "apps/transfer.hpp"
#include "baselines/perfnet.hpp"
#include "baselines/random_search.hpp"
#include "core/engine.hpp"
#include "eval/experiment.hpp"
#include "eval/methods.hpp"
#include "eval/metrics.hpp"

namespace hpb {
namespace {

TEST(Integration, MethodOrderingOnKripkeMatchesPaper) {
  // The paper's central claim (Fig. 2): HiPerBOt >= GEIST >> Random in
  // recall at a fixed budget, and HiPerBOt reaches the exhaustive best
  // within ~96 samples.
  auto dataset = apps::make_kripke_exec();
  const auto methods = eval::make_standard_methods(dataset);
  eval::SelectionExperimentConfig config;
  config.sample_sizes = {96, 192};
  config.reps = 5;
  config.recall_percentile = 5.0;
  config.seed = 0x17E6;

  const auto random =
      eval::run_selection_experiment(dataset, "Random", methods.random, config);
  const auto geist =
      eval::run_selection_experiment(dataset, "GEIST", methods.geist, config);
  const auto hiperbot = eval::run_selection_experiment(
      dataset, "HiPerBOt", methods.hiperbot, config);

  // Recall ordering at the largest budget.
  EXPECT_GT(hiperbot.recall[1].mean(), geist.recall[1].mean());
  EXPECT_GT(geist.recall[1].mean(), 2.0 * random.recall[1].mean());
  // HiPerBOt best-config at 96 samples is at or very near the optimum.
  EXPECT_LT(hiperbot.best_value[0].mean(), 1.02 * dataset.best_value());
  // Random is still far away at the same budget.
  EXPECT_GT(random.best_value[0].mean(), 1.02 * dataset.best_value());
}

TEST(Integration, TransferPriorBeatsColdStartOnKripke) {
  apps::TransferPair pair = apps::make_kripke_transfer(0.9);
  const auto pool = std::make_shared<const std::vector<space::Configuration>>(
      pair.target.configs().begin(), pair.target.configs().end());
  constexpr std::size_t kBudget = 120;

  double recall_with = 0.0, recall_without = 0.0;
  constexpr int kReps = 3;
  Rng seeder(0x17E7);
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = seeder.next_u64();
    core::HiPerBOtConfig config;
    config.transfer_weight = 2.0;

    core::HiPerBOt with(pair.target.space_ptr(), config, seed, pool);
    with.set_transfer_prior(core::make_transfer_prior(
        pair.source.space_ptr(), pair.source.configs(), pair.source.values(),
        config.quantile));
    const auto r_with = core::TuningEngine().run(with, pair.target, kBudget);
    recall_with +=
        eval::recall_tolerance(pair.target, r_with.history, kBudget, 0.15);

    core::HiPerBOt without(pair.target.space_ptr(), config, seed, pool);
    const auto r_without =
        core::TuningEngine().run(without, pair.target, kBudget);
    recall_without += eval::recall_tolerance(pair.target, r_without.history,
                                             kBudget, 0.15);
  }
  EXPECT_GT(recall_with, recall_without);
  EXPECT_GT(recall_with / kReps, 0.5);  // prior finds most good configs
}

TEST(Integration, PerfNetIsCompetitiveButBeatenOnHypreTransfer) {
  // Fig. 8b's shape: both methods recall well at tight tolerances; HiPerBOt
  // stays at least as high as PerfNet across thresholds.
  apps::TransferPair pair = apps::make_hypre_transfer(0.9);
  const std::size_t budget = pair.target.size() / 100 + 100;

  baselines::PerfNet net({}, 0x17E8);
  net.train(pair.source, pair.target, budget);
  const double perfnet_recall =
      eval::recall_tolerance_indices(pair.target, net.selection(), 0.05);
  EXPECT_GT(perfnet_recall, 0.4);  // the deep baseline genuinely works

  const auto pool = std::make_shared<const std::vector<space::Configuration>>(
      pair.target.configs().begin(), pair.target.configs().end());
  core::HiPerBOtConfig config;
  config.transfer_weight = 2.0;
  core::HiPerBOt tuner(pair.target.space_ptr(), config, 0x17E9, pool);
  tuner.set_transfer_prior(core::make_transfer_prior(
      pair.source.space_ptr(), pair.source.configs(), pair.source.values(),
      config.quantile));
  const auto result = core::TuningEngine().run(tuner, pair.target, budget);
  const double hiperbot_recall =
      eval::recall_tolerance(pair.target, result.history, budget, 0.05);
  EXPECT_GE(hiperbot_recall, perfnet_recall);
}

TEST(Integration, ConclusionsStableAcrossSeeds) {
  // The Fig. 5 LULESH claim — HiPerBOt finds >= 2x the good configurations
  // of random selection — must hold for every seed, not on average only.
  auto dataset = apps::make_lulesh();
  const auto pool = std::make_shared<const std::vector<space::Configuration>>(
      dataset.configs().begin(), dataset.configs().end());
  constexpr std::size_t kBudget = 250;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::HiPerBOt hpb_tuner(dataset.space_ptr(), {}, seed, pool);
    const auto hpb_result =
        core::TuningEngine().run(hpb_tuner, dataset, kBudget);
    const double hpb_recall =
        eval::recall_percentile(dataset, hpb_result.history, kBudget, 5.0);

    baselines::RandomSearch random(dataset.space_ptr(), seed + 100, pool);
    const auto rnd_result = core::TuningEngine().run(random, dataset, kBudget);
    const double rnd_recall =
        eval::recall_percentile(dataset, rnd_result.history, kBudget, 5.0);

    EXPECT_GT(hpb_recall, 2.0 * rnd_recall) << "seed " << seed;
  }
}

TEST(Integration, TunerOverheadIsSmall) {
  // §VII: "HiPerBOt for LULESH took around 600 ms to select the best
  // configuration". A full 150-evaluation session on the simulated dataset
  // must finish in single-digit seconds even on a slow machine.
  auto dataset = apps::make_lulesh();
  const auto start = std::chrono::steady_clock::now();
  core::HiPerBOt tuner(dataset.space_ptr(), {}, 9);
  (void)core::TuningEngine().run(tuner, dataset, 150);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 10.0);
}

}  // namespace
}  // namespace hpb
