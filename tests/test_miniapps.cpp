// Tests for the live mini-applications: the Kripke-style transport sweep
// (layout correctness across all six nestings) and the HYPRE-style solver
// suite (convergence, solution agreement, solver-quality ordering).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/minisolver.hpp"
#include "apps/minisweep.hpp"
#include "common/rng.hpp"
#include "core/hiperbot.hpp"
#include "core/engine.hpp"

namespace hpb::apps {
namespace {

using space::Configuration;

// ----------------------------------------------------------------- sweep
MiniSweepWorkload tiny_sweep() {
  MiniSweepWorkload w;
  w.zones = 12;
  w.groups = 4;
  w.directions = 4;
  w.sweeps = 2;
  w.repeats = 1;
  return w;
}

TEST(MiniSweep, SpaceMatchesKripkeStructure) {
  MiniSweepObjective obj(tiny_sweep());
  EXPECT_EQ(obj.space().num_params(), 4u);  // Nesting, Gset, Dset, Threads
  EXPECT_EQ(obj.space().param(0).name(), "Nesting");
  EXPECT_EQ(obj.space().param(0).num_levels(), 6u);
  EXPECT_TRUE(obj.space().is_finite());
}

TEST(MiniSweep, AllSixNestingsComputeIdenticalPhysics) {
  // The Nesting parameter changes memory layout and loop order only: the
  // scalar flux must agree across every layout/blocking combination.
  MiniSweepObjective obj(tiny_sweep());
  const auto configs = obj.space().enumerate();
  ASSERT_FALSE(configs.empty());
  (void)obj.evaluate(configs.front());
  const double reference = obj.last_checksum();
  EXPECT_GT(reference, 0.0);
  for (const auto& c : configs) {
    (void)obj.evaluate(c);
    EXPECT_NEAR(obj.last_checksum(), reference, 1e-9 * reference)
        << obj.space().to_string(c);
  }
}

TEST(MiniSweep, EvaluateReturnsPositiveTimeAndIsRepeatable) {
  MiniSweepObjective obj(tiny_sweep());
  Rng rng(1);
  const auto c = obj.space().sample_uniform(rng);
  EXPECT_GT(obj.evaluate(c), 0.0);
  const double first = obj.last_checksum();
  (void)obj.evaluate(c);
  EXPECT_DOUBLE_EQ(obj.last_checksum(), first);
}

TEST(MiniSweep, FluxIsPhysical) {
  // With positive sources, cross sections, and boundary fluxes, every
  // scalar-flux value is positive — checked via the checksum being at
  // least source/sigma_max per cell-group.
  MiniSweepObjective obj(tiny_sweep());
  const auto c = obj.space().configuration_at(0);
  (void)obj.evaluate(c);
  const double cells = 12.0 * 12.0 * 4.0;  // zones × groups
  EXPECT_GT(obj.last_checksum(), 0.1 * cells);
}

TEST(MiniSweep, RejectsDegenerateWorkloads) {
  MiniSweepWorkload w;
  w.zones = 2;
  EXPECT_THROW(MiniSweepObjective{w}, Error);
  w = {};
  w.sweeps = 0;
  EXPECT_THROW(MiniSweepObjective{w}, Error);
}

TEST(MiniSweep, TunableEndToEnd) {
  MiniSweepObjective obj(tiny_sweep());
  core::HiPerBOtConfig config;
  config.initial_samples = 6;
  core::HiPerBOt tuner(obj.space_ptr(), config, 3);
  const auto result = core::TuningEngine().run(tuner, obj, 18);
  EXPECT_EQ(result.history.size(), 18u);
  EXPECT_GT(result.best_value, 0.0);
}

// ---------------------------------------------------------------- solver
MiniSolverWorkload tiny_solver() {
  MiniSolverWorkload w;
  w.grid = 24;
  w.tolerance = 1e-8;
  w.max_iters = 6000;
  w.repeats = 1;
  return w;
}

TEST(MiniSolver, SpaceMatchesHypreStructure) {
  MiniSolverObjective obj(tiny_solver());
  EXPECT_EQ(obj.space().num_params(), 3u);
  EXPECT_EQ(obj.space().param(0).name(), "Solver");
  EXPECT_EQ(obj.space().param(0).num_levels(), 7u);
  EXPECT_EQ(obj.space().cross_product_size(), 7u * 6u * 3u);
}

TEST(MiniSolver, EveryConvergingSolverFindsTheSameSolution) {
  MiniSolverObjective obj(tiny_solver());
  double reference = 0.0;
  bool have_reference = false;
  std::size_t converged_count = 0;
  // Probe one sensible configuration per solver (ω = 1.2, 1 sweep).
  for (std::size_t solver = 0; solver < 7; ++solver) {
    Configuration c(std::vector<double>{static_cast<double>(solver), 2, 0});
    (void)obj.evaluate(c);
    if (!obj.last_converged()) {
      continue;
    }
    ++converged_count;
    EXPECT_LE(obj.last_residual(), 2e-8);
    if (!have_reference) {
      reference = obj.last_checksum();
      have_reference = true;
    } else {
      EXPECT_NEAR(obj.last_checksum(), reference,
                  1e-5 * std::abs(reference))
          << obj.space().to_string(c);
    }
  }
  EXPECT_GE(converged_count, 5u);  // at least CG variants + GS/SOR/MG
}

TEST(MiniSolver, PreconditioningBeatsPlainCg) {
  MiniSolverObjective obj(tiny_solver());
  Configuration cg(std::vector<double>{3, 2, 0});        // CG
  Configuration pcg_ssor(std::vector<double>{5, 2, 0});  // PCG-SSOR
  (void)obj.evaluate(cg);
  const std::size_t cg_iters = obj.last_iterations();
  ASSERT_TRUE(obj.last_converged());
  (void)obj.evaluate(pcg_ssor);
  ASSERT_TRUE(obj.last_converged());
  EXPECT_LT(obj.last_iterations(), cg_iters);
}

TEST(MiniSolver, SorBeatsJacobiInIterations) {
  MiniSolverObjective obj(tiny_solver());
  Configuration jacobi(std::vector<double>{0, 1, 0});  // Jacobi, ω=1
  Configuration sor(std::vector<double>{2, 4, 0});     // SOR, ω=1.6
  (void)obj.evaluate(jacobi);
  const std::size_t jacobi_iters = obj.last_iterations();
  (void)obj.evaluate(sor);
  ASSERT_TRUE(obj.last_converged());
  EXPECT_LT(obj.last_iterations(), jacobi_iters);
}

TEST(MiniSolver, MultigridConvergesInFewIterations) {
  MiniSolverObjective obj(tiny_solver());
  Configuration mg(std::vector<double>{6, 2, 0});  // MG, ω=1.2, 1 sweep
  (void)obj.evaluate(mg);
  EXPECT_TRUE(obj.last_converged());
  EXPECT_LT(obj.last_iterations(), 100u);
}

TEST(MiniSolver, RejectsDegenerateWorkloads) {
  MiniSolverWorkload w;
  w.grid = 7;  // odd
  EXPECT_THROW(MiniSolverObjective{w}, Error);
  w = {};
  w.tolerance = 0.0;
  EXPECT_THROW(MiniSolverObjective{w}, Error);
}

TEST(MiniSolver, TunableEndToEnd) {
  MiniSolverWorkload w = tiny_solver();
  w.max_iters = 1500;  // cap the worst configurations
  MiniSolverObjective obj(w);
  core::HiPerBOtConfig config;
  config.initial_samples = 8;
  core::HiPerBOt tuner(obj.space_ptr(), config, 4);
  const auto result = core::TuningEngine().run(tuner, obj, 24);
  EXPECT_GT(result.best_value, 0.0);
  // The tuner should end up on one of the fast families (CG/PCG/MG/SOR),
  // never plain Jacobi.
  EXPECT_NE(result.best_config.level(0), 0u);
}

}  // namespace
}  // namespace hpb::apps
