// Figure 1: the paper's toy walkthrough of the algorithm on a 1-D
// objective. Reproduces all four panels as text/CSV series:
//   (a) the objective and the initial random samples, split good/bad;
//   (b) the good/bad probability densities and the expected-improvement
//       surrogate (pg/pb ratio) on a grid;
//   (c) all samples after 1 further iteration;
//   (d) all samples after 10 further iterations — concentrating near the
//       minimum.
#include <cmath>
#include <fstream>
#include <iostream>

#include "core/hiperbot.hpp"
#include "figure_common.hpp"
#include "tabular/objective.hpp"

namespace {

/// The Fig. 1 style objective on [0, 5]: a smooth dip with a unique
/// minimum near x = 2 and values spanning roughly [-25, 125].
double toy_f(double x) {
  return 25.0 * (x - 2.0) * (x - 2.0) - 25.0 + 10.0 * std::sin(3.0 * x);
}

class ToyObjective final : public hpb::tabular::Objective {
 public:
  ToyObjective() {
    auto s = std::make_shared<hpb::space::ParameterSpace>();
    s->add(hpb::space::Parameter::continuous("x", 0.0, 5.0));
    space_ = std::move(s);
  }
  const hpb::space::ParameterSpace& space() const override { return *space_; }
  hpb::space::SpacePtr space_ptr() const { return space_; }
  double evaluate(const hpb::space::Configuration& c) override {
    return toy_f(c[0]);
  }
  std::string name() const override { return "toy1d"; }

 private:
  hpb::space::SpacePtr space_;
};

}  // namespace

int main() {
  using hpb::core::HiPerBOt;
  using hpb::core::HiPerBOtConfig;
  using hpb::core::SelectionStrategy;

  ToyObjective objective;
  HiPerBOtConfig config;
  config.initial_samples = 10;  // the paper's ten random training samples
  config.quantile = 0.2;        // bottom 20th percentile is "good"
  config.strategy = SelectionStrategy::kProposal;
  config.proposal_candidates = 128;
  HiPerBOt tuner(objective.space_ptr(), config, 2020);

  std::ofstream csv(hpb::benchfig::csv_path("fig1_toy"));
  csv << "panel,x,value\n";

  auto dump_samples = [&](const char* panel) {
    const auto& h = tuner.history();
    for (std::size_t i = 0; i < h.size(); ++i) {
      csv << panel << ',' << h[i].config[0] << ',' << h[i].y << '\n';
    }
  };
  auto step = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = tuner.suggest();
      tuner.observe(c, objective.evaluate(c));
    }
  };

  std::cout << "Figure 1: toy 1-D example (minimize f on [0,5], min near x=2)\n\n";

  // Panel (a): initial samples, good/bad coloring.
  step(config.initial_samples);
  dump_samples("a_initial");
  {
    const auto surrogate = tuner.fit_surrogate();
    std::cout << "(a) initial samples (threshold y(tau) = "
              << surrogate.threshold() << "):\n";
    for (const auto& obs : tuner.history().observations()) {
      std::cout << "    x=" << obs.config[0] << "  f=" << obs.y << "  ["
                << (obs.y < surrogate.threshold() ? "good" : "bad") << "]\n";
    }

    // Panel (b): densities and expected improvement on a grid.
    std::cout << "\n(b) surrogate on a grid (pg, pb, EI = log pg - log pb):\n";
    for (int i = 0; i <= 25; ++i) {
      const double x = 5.0 * i / 25.0;
      const hpb::space::Configuration c(std::vector<double>{x});
      const double pg = std::exp(surrogate.good().log_density(c));
      const double pb = std::exp(surrogate.bad().log_density(c));
      csv << "b_pg," << x << ',' << pg << '\n';
      csv << "b_pb," << x << ',' << pb << '\n';
      csv << "b_ei," << x << ',' << surrogate.acquisition(c) << '\n';
      if (i % 5 == 0) {
        std::cout << "    x=" << x << "  pg=" << pg << "  pb=" << pb
                  << "  EI=" << surrogate.acquisition(c) << '\n';
      }
    }
  }

  // Panel (c): after one more iteration.
  step(1);
  dump_samples("c_iter1");
  std::cout << "\n(c) newest sample after iteration 1: x="
            << tuner.history()[tuner.history().size() - 1].config[0] << '\n';

  // Panel (d): after ten total iterations.
  step(9);
  dump_samples("d_iter10");
  std::cout << "\n(d) after 10 iterations, samples near the minimum (x in "
               "[1.5, 2.5]):\n    ";
  std::size_t near = 0;
  const auto& h = tuner.history();
  for (std::size_t i = config.initial_samples; i < h.size(); ++i) {
    if (std::abs(h[i].config[0] - 2.0) <= 0.5) {
      ++near;
    }
  }
  std::cout << near << " of " << (h.size() - config.initial_samples)
            << " model-selected samples\n";
  std::cout << "best found: f=" << h.best_value()
            << " at x=" << h.best_config()[0] << "  (true min ~ -34.8)\n";
  std::cout << "\nwrote " << hpb::benchfig::csv_path("fig1_toy") << '\n';
  return 0;
}
