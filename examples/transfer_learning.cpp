// Transfer learning (§III-E, §VII): tune a "64-node" Kripke target using
// densities learned from a fully-observed "16-node" source study as
// priors, and compare against tuning the target cold.
//
// Build & run:  ./build/examples/transfer_learning
#include <iostream>

#include "apps/transfer.hpp"
#include "core/hiperbot.hpp"
#include "core/engine.hpp"
#include "eval/metrics.hpp"

int main() {
  // ρ = 0.9: the small-scale study is representative but not identical.
  hpb::apps::TransferPair pair = hpb::apps::make_kripke_transfer(0.9);
  std::cout << "source (16 nodes): " << pair.source.size()
            << " configs, fully observed, best " << pair.source.best_value()
            << " s\n"
            << "target (64 nodes): " << pair.target.size()
            << " configs, best " << pair.target.best_value() << " s\n\n";

  constexpr std::size_t kBudget = 150;  // expensive 64-node runs we can afford
  const auto pool =
      std::make_shared<const std::vector<hpb::space::Configuration>>(
          pair.target.configs().begin(), pair.target.configs().end());

  auto run = [&](bool with_prior) {
    hpb::core::HiPerBOtConfig config;
    config.transfer_weight = 2.0;  // w of eq. 9-10
    hpb::core::HiPerBOt tuner(pair.target.space_ptr(), config, 7, pool);
    if (with_prior) {
      // The prior: good/bad densities estimated from ALL source runs.
      tuner.set_transfer_prior(hpb::core::make_transfer_prior(
          pair.source.space_ptr(), pair.source.configs(),
          pair.source.values(), config.quantile));
    }
    const auto result =
        hpb::core::TuningEngine().run(tuner, pair.target, kBudget);
    const double recall = hpb::eval::recall_tolerance(
        pair.target, result.history, kBudget, 0.10);
    std::cout << (with_prior ? "with source prior:   " : "cold start:          ")
              << "best " << result.best_value << " s, recall(10% tol) "
              << recall << ", first hit of a good config at eval ";
    const double threshold = 1.10 * pair.target.best_value();
    std::size_t first_hit = kBudget;
    for (std::size_t t = 0; t < result.history.size(); ++t) {
      if (result.history[t].y <= threshold) {
        first_hit = t + 1;
        break;
      }
    }
    std::cout << first_hit << '\n';
  };

  std::cout << "tuning the target with " << kBudget << " evaluations ("
            << 100.0 * kBudget / static_cast<double>(pair.target.size())
            << "% of the space):\n";
  run(/*with_prior=*/false);
  run(/*with_prior=*/true);

  std::cout << "\nThe prior steers the very first model-based suggestions "
               "into the region the source study found promising, instead of "
               "re-discovering it from expensive target runs.\n";
  return 0;
}
