// Quickstart: tune a custom objective with HiPerBOt in ~40 lines.
//
// Defines a small mixed discrete/continuous objective (the toy setup of the
// paper's Fig. 1 plus a categorical "algorithm" switch), runs the Bayesian
// optimization loop, and prints the best configuration found.
//
// Build & run:  ./build/examples/quickstart
#include <cmath>
#include <iostream>

#include "core/hiperbot.hpp"
#include "core/engine.hpp"
#include "tabular/objective.hpp"

namespace {

// Any objective is a class with a parameter space and an evaluate() method.
// Here f(x, algo) = (x − 3)² scaled by a per-algorithm factor; the optimum
// is x = 3 with algo = "fast".
class ToyObjective final : public hpb::tabular::Objective {
 public:
  ToyObjective() {
    auto space = std::make_shared<hpb::space::ParameterSpace>();
    space->add(hpb::space::Parameter::continuous("x", 0.0, 5.0));
    space->add(
        hpb::space::Parameter::categorical("algo", {"slow", "fast", "naive"}));
    space_ = std::move(space);
  }

  const hpb::space::ParameterSpace& space() const override { return *space_; }
  hpb::space::SpacePtr space_ptr() const { return space_; }

  double evaluate(const hpb::space::Configuration& c) override {
    const double x = c[0];
    const double algo_factor = (c.level(1) == 1) ? 1.0 : 1.8;
    return algo_factor * ((x - 3.0) * (x - 3.0) + 0.5);
  }

  std::string name() const override { return "toy"; }

 private:
  hpb::space::SpacePtr space_;
};

}  // namespace

int main() {
  ToyObjective objective;

  // Continuous parameters require the Proposal selection strategy (§III-D):
  // candidates are sampled from the good-configuration density pg(x).
  hpb::core::HiPerBOtConfig config;
  config.initial_samples = 10;
  config.quantile = 0.2;
  config.strategy = hpb::core::SelectionStrategy::kProposal;
  config.proposal_candidates = 64;

  hpb::core::HiPerBOt tuner(objective.space_ptr(), config, /*seed=*/42);
  const hpb::core::TuneResult result =
      hpb::core::TuningEngine().run(tuner, objective, /*budget=*/60);

  std::cout << "evaluations: " << result.history.size() << '\n'
            << "best value:  " << result.best_value << "  (true optimum 0.5)\n"
            << "best config: "
            << objective.space().to_string(result.best_config) << '\n';

  std::cout << "\nbest-so-far trajectory (every 10 evaluations):\n";
  for (std::size_t t = 9; t < result.best_so_far.size(); t += 10) {
    std::cout << "  after " << (t + 1) << " evals: " << result.best_so_far[t]
              << '\n';
  }
  return 0;
}
