#include "eval/methods.hpp"

#include "baselines/boosted_trees.hpp"
#include "baselines/gp_tuner.hpp"
#include "baselines/local_search.hpp"
#include "baselines/random_search.hpp"
#include "baselines/ridge_tuner.hpp"

namespace hpb::eval {

StandardMethods make_standard_methods(
    const tabular::TabularObjective& dataset,
    const core::HiPerBOtConfig& hiperbot_config,
    const baselines::GeistConfig& geist_config) {
  StandardMethods methods;
  methods.pool = dataset.pool()->shared_configs();
  methods.graph = std::make_shared<const baselines::ConfigGraph>(
      dataset.space(), *methods.pool);

  const space::SpacePtr space = dataset.space_ptr();
  const auto shared = dataset.pool();
  const auto pool = methods.pool;
  const auto graph = methods.graph;

  methods.hiperbot = [space, shared, hiperbot_config](std::uint64_t seed) {
    return std::make_unique<core::HiPerBOt>(space, hiperbot_config, seed,
                                            shared);
  };
  methods.geist = [space, pool, graph, geist_config](std::uint64_t seed) {
    return std::make_unique<baselines::Geist>(space, geist_config, seed, pool,
                                              graph);
  };
  methods.random = [space, pool](std::uint64_t seed) {
    return std::make_unique<baselines::RandomSearch>(space, seed, pool);
  };
  return methods;
}

const std::vector<std::string>& tuner_names() {
  static const std::vector<std::string> names = {
      "hiperbot", "geist", "random",    "gp",        "anneal",
      "hillclimb", "brt",  "ridge",     "exhaustive"};
  return names;
}

std::unique_ptr<core::Tuner> make_named_tuner(
    const std::string& name, const tabular::TabularObjective& dataset,
    std::uint64_t seed) {
  const space::SpacePtr space = dataset.space_ptr();
  const auto& pool = dataset.pool()->shared_configs();
  if (name == "hiperbot") {
    return std::make_unique<core::HiPerBOt>(space, core::HiPerBOtConfig{},
                                            seed, dataset.pool());
  }
  if (name == "geist") {
    return std::make_unique<baselines::Geist>(space, baselines::GeistConfig{},
                                              seed, pool, nullptr);
  }
  if (name == "random") {
    return std::make_unique<baselines::RandomSearch>(space, seed, pool);
  }
  if (name == "gp") {
    return std::make_unique<baselines::GpTuner>(space, baselines::GpConfig{},
                                                seed, pool);
  }
  if (name == "anneal") {
    return std::make_unique<baselines::SimulatedAnnealing>(
        space, baselines::AnnealingConfig{}, seed);
  }
  if (name == "hillclimb") {
    return std::make_unique<baselines::HillClimbing>(
        space, baselines::HillClimbConfig{}, seed);
  }
  if (name == "brt") {
    return std::make_unique<baselines::BrtTuner>(
        space, baselines::BrtTunerConfig{}, seed, pool);
  }
  if (name == "ridge") {
    return std::make_unique<baselines::RidgeTuner>(
        space, baselines::RidgeConfig{}, seed, pool);
  }
  if (name == "exhaustive") {
    return std::make_unique<baselines::ExhaustiveTuner>(space, pool);
  }
  HPB_REQUIRE(false, "make_named_tuner: unknown tuner '" + name +
                         "' (expected one of hiperbot, geist, random, gp, "
                         "anneal, hillclimb, brt, ridge, exhaustive)");
  return nullptr;  // unreachable
}

}  // namespace hpb::eval
