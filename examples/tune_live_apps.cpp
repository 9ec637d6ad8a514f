// Live tuning of the two miniature HPC applications — the paper's premise
// end-to-end, with the kernels actually running on this machine:
//
//   * MiniSweep: a Kripke-style SN transport sweep whose Nesting parameter
//     permutes the angular-flux memory layout (DGZ..ZGD) and loop order;
//   * MiniSolver: a HYPRE-style Poisson solver suite (Jacobi/GS/SOR/CG/
//     PCG/MG with relaxation weights).
//
// Build & run:  ./build/examples/tune_live_apps
#include <iomanip>
#include <iostream>

#include "apps/minisolver.hpp"
#include "apps/minisweep.hpp"
#include "core/hiperbot.hpp"

namespace {

void tune(hpb::tabular::Objective& objective, hpb::space::SpacePtr space,
          std::size_t budget) {
  hpb::core::HiPerBOtConfig config;
  config.initial_samples = 8;
  hpb::core::HiPerBOt tuner(space, config, 2026);
  double random_phase_best = 0.0;
  for (std::size_t t = 0; t < budget; ++t) {
    const auto c = tuner.suggest();
    tuner.observe(c, objective.evaluate(c));
    if (t + 1 == config.initial_samples) {
      random_phase_best = tuner.history().best_value();
    }
  }
  const auto& history = tuner.history();
  std::cout << std::fixed << std::setprecision(4)
            << "  best after " << config.initial_samples
            << " random evals: " << random_phase_best << " s\n"
            << "  best after " << budget
            << " tuned evals:  " << history.best_value() << " s\n"
            << "  best configuration: "
            << space->to_string(history.best_config()) << "\n\n";
}

}  // namespace

int main() {
  {
    hpb::apps::MiniSweepWorkload workload;
    workload.zones = 32;
    workload.groups = 16;
    workload.directions = 8;
    workload.sweeps = 2;
    workload.repeats = 2;
    hpb::apps::MiniSweepObjective sweep(workload);
    std::cout << "MiniSweep (Kripke-style SN transport): " << workload.zones
              << "x" << workload.zones << " zones, " << workload.groups
              << " groups, " << workload.directions << " directions, "
              << sweep.space().cross_product_size()
              << " layout/blocking configurations\n";
    tune(sweep, sweep.space_ptr(), 24);
    std::cout << "  flux checksum (layout-independent): "
              << sweep.last_checksum() << "\n\n";
  }
  {
    hpb::apps::MiniSolverWorkload workload;
    workload.grid = 48;
    workload.tolerance = 1e-8;
    workload.max_iters = 3000;
    hpb::apps::MiniSolverObjective solver(workload);
    std::cout << "MiniSolver (HYPRE-style Poisson suite): " << workload.grid
              << "x" << workload.grid << " unknowns, "
              << solver.space().cross_product_size()
              << " solver/omega/sweeps configurations\n";
    tune(solver, solver.space_ptr(), 30);
    std::cout << "  final residual: " << std::scientific
              << solver.last_residual() << '\n';
  }
  return 0;
}
