// Live tuning of a real kernel (not a frozen dataset): a 2-D Jacobi
// stencil whose cache blocking, unrolling, and thread count are tunable.
// Every evaluation actually runs the kernel and measures wall-clock time —
// the paper's primary use case, where each objective evaluation is an
// application run.
//
// Build & run:  ./build/examples/tune_stencil
#include <iomanip>
#include <iostream>

#include "apps/stencil.hpp"
#include "core/hiperbot.hpp"

int main() {
  hpb::apps::StencilWorkload workload;
  workload.grid = 384;
  workload.sweeps = 12;
  workload.repeats = 2;
  hpb::apps::StencilObjective objective(workload);

  std::cout << "live stencil tuning: " << workload.grid << "x"
            << workload.grid << " grid, " << workload.sweeps
            << " Jacobi sweeps per evaluation\n"
            << "space: " << objective.space().cross_product_size()
            << " configurations ("
            << objective.space().param(0).num_levels() << " tile_i x "
            << objective.space().param(1).num_levels() << " tile_j x "
            << objective.space().param(2).num_levels() << " unroll x "
            << objective.space().param(3).num_levels() << " threads)\n\n";

  hpb::core::HiPerBOtConfig config;
  config.initial_samples = 8;
  hpb::core::HiPerBOt tuner(objective.space_ptr(), config, 2024);

  constexpr std::size_t kBudget = 30;
  double first_phase_best = 0.0;
  for (std::size_t t = 0; t < kBudget; ++t) {
    const auto c = tuner.suggest();
    const double seconds = objective.evaluate(c);
    tuner.observe(c, seconds);
    if (t + 1 == config.initial_samples) {
      first_phase_best = tuner.history().best_value();
    }
    std::cout << "  eval " << std::setw(2) << (t + 1) << ": " << std::fixed
              << std::setprecision(4) << seconds << " s   "
              << objective.space().to_string(c) << '\n';
  }

  const auto& history = tuner.history();
  std::cout << "\nbest after random phase (" << config.initial_samples
            << " evals): " << first_phase_best << " s\n"
            << "best after tuning (" << kBudget
            << " evals):      " << history.best_value() << " s\n"
            << "best configuration: "
            << objective.space().to_string(history.best_config()) << '\n'
            << "result checksum (identical for every config): "
            << objective.last_checksum() << '\n';
  return 0;
}
