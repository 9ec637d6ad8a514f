// Pre-wired tuner factories for the methods compared in §V (HiPerBOt,
// GEIST, Random), sharing the dataset's candidate pool (and its column
// mirror) and one GEIST graph across all replicated runs of a dataset.
#pragma once

#include <memory>

#include "baselines/config_graph.hpp"
#include "baselines/geist.hpp"
#include "core/hiperbot.hpp"
#include "eval/experiment.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb::eval {

struct StandardMethods {
  std::shared_ptr<const std::vector<space::Configuration>> pool;
  std::shared_ptr<const baselines::ConfigGraph> graph;
  TunerFactory hiperbot;
  TunerFactory geist;
  TunerFactory random;
};

/// Build the three §V methods for a dataset. The GEIST graph is built once
/// here (it is the expensive part) and shared by every replicated run.
[[nodiscard]] StandardMethods make_standard_methods(
    const tabular::TabularObjective& dataset,
    const core::HiPerBOtConfig& hiperbot_config = {},
    const baselines::GeistConfig& geist_config = {});

/// All tuner names accepted by make_named_tuner, in display order:
/// hiperbot, geist, random, gp, anneal, hillclimb, brt.
[[nodiscard]] const std::vector<std::string>& tuner_names();

/// Construct any implemented tuner by name (used by the CLI and the
/// daemon's session factory). Throws on an unknown name. Tuners that need
/// a candidate pool hold the dataset's shared one, never a copy; GEIST
/// builds its graph internally here, so construct once and reuse for
/// repeated runs when that matters.
[[nodiscard]] std::unique_ptr<core::Tuner> make_named_tuner(
    const std::string& name, const tabular::TabularObjective& dataset,
    std::uint64_t seed);

}  // namespace hpb::eval
