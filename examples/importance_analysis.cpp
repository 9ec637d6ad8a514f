// Parameter-importance analysis (§VI): rank LULESH's eleven compiler flags
// by the JS divergence between their good- and bad-configuration densities,
// first from a small tuning run (what a user would actually have), then
// from the full dataset (ground truth).
//
// Build & run:  ./build/examples/importance_analysis
#include <iomanip>
#include <iostream>

#include "apps/lulesh.hpp"
#include "core/hiperbot.hpp"
#include "core/importance.hpp"
#include "core/engine.hpp"

namespace {

void print_ranking(const std::vector<hpb::core::ImportanceEntry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::cout << "  " << std::left << std::setw(4) << (i + 1) << std::setw(12)
              << entries[i].parameter << std::fixed << std::setprecision(3)
              << entries[i].js_divergence << '\n';
  }
}

}  // namespace

int main() {
  auto dataset = hpb::apps::make_lulesh();
  std::cout << "LULESH compiler-flag dataset: " << dataset.size()
            << " configurations, " << dataset.space().num_params()
            << " flags\n"
            << "-O3 default: 6.02 s, best: " << dataset.best_value()
            << " s\n\n";

  // A short HiPerBOt run — 200 evaluations, under 4% of the space.
  hpb::core::HiPerBOtConfig config;
  hpb::core::HiPerBOt tuner(dataset.space_ptr(), config, 123);
  (void)hpb::core::TuningEngine().run(tuner, dataset, 200);

  std::vector<hpb::space::Configuration> configs;
  std::vector<double> values;
  for (const auto& obs : tuner.history().observations()) {
    configs.push_back(obs.config);
    values.push_back(obs.y);
  }
  std::cout << "ranking from the 200-sample tuning run:\n";
  print_ranking(hpb::core::parameter_importance(
      dataset.space_ptr(), configs, values, config.quantile));

  std::cout << "\nground-truth ranking from all " << dataset.size()
            << " configurations:\n";
  print_ranking(hpb::core::dataset_importance(dataset, config.quantile));

  std::cout << "\nFlags whose good/bad value distributions differ the most "
               "are the ones worth a user's attention; ~0.000 means the flag "
               "barely matters (compare Table I in the paper).\n";
  return 0;
}
