// Compare HiPerBOt against GEIST and random search on the simulated Kripke
// execution-time dataset — the paper's headline experiment (§V-A) as a
// single narrated run instead of a replicated benchmark.
//
// Build & run:  ./build/examples/tune_kripke_sim
#include <iomanip>
#include <iostream>

#include "apps/kripke.hpp"
#include "core/engine.hpp"
#include "eval/methods.hpp"
#include "eval/metrics.hpp"

int main() {
  auto dataset = hpb::apps::make_kripke_exec();
  std::cout << "Kripke execution-time dataset: " << dataset.size()
            << " configurations\n"
            << "exhaustive best: " << dataset.best_value() << " s  ("
            << dataset.space().to_string(dataset.best_config()) << ")\n"
            << "expert manual choice (paper): 15.2 s\n\n";

  const auto methods = hpb::eval::make_standard_methods(dataset);
  constexpr std::size_t kBudget = 96;  // the paper's headline sample count

  struct Row {
    const char* name;
    const hpb::eval::TunerFactory* factory;
  };
  const Row rows[] = {{"Random", &methods.random},
                      {"GEIST", &methods.geist},
                      {"HiPerBOt", &methods.hiperbot}};

  std::cout << "tuning with a budget of " << kBudget << " evaluations ("
            << std::fixed << std::setprecision(1)
            << 100.0 * kBudget / static_cast<double>(dataset.size())
            << "% of the space):\n\n";
  for (const auto& row : rows) {
    auto tuner = (*row.factory)(/*seed=*/2020);
    const auto result = hpb::core::TuningEngine().run(*tuner, dataset, kBudget);
    const double recall =
        hpb::eval::recall_percentile(dataset, result.history, kBudget, 5.0);
    std::cout << std::left << std::setw(10) << row.name
              << "  best found: " << std::setprecision(2) << result.best_value
              << " s   recall(top-5%): " << std::setprecision(3) << recall
              << "\n           best config: "
              << dataset.space().to_string(result.best_config) << "\n";
  }

  std::cout << "\nA run is 'successful' when it reaches the exhaustive best "
            << dataset.best_value() << " s — the paper reports HiPerBOt "
            << "doing so with 96 samples, half of what GEIST needs.\n";
  return 0;
}
