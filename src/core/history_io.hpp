// Persistence for observation histories: save a tuning session's
// (configuration, value) pairs as CSV and load them back to warm-start a
// later session (the CLI's --history-out / --warm-start flags). The format
// matches TabularObjective CSV: parameter columns (level labels), objective
// last.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "core/history.hpp"
#include "core/tuner.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Write a sequence of observations as CSV (header row from the space's
/// parameter names). Accepts History::observations() or TuneResult::history.
/// If any observation failed, a trailing "status" column records each row's
/// EvalStatus; failure-free histories keep the legacy layout.
/// The path overload replaces the file atomically (written to "<path>.tmp",
/// fsynced, then renamed) so readers never see a partial CSV.
void write_history_csv(const std::string& path,
                       const space::ParameterSpace& space,
                       std::span<const Observation> observations);
void write_history_csv(std::ostream& out, const space::ParameterSpace& space,
                       std::span<const Observation> observations);

/// Read a history CSV previously written by write_history_csv (or any CSV
/// whose parameter columns use the space's level labels / numeric values)
/// and replay each row into the tuner: successes via observe(), rows whose
/// optional trailing "status" column marks a failure via observe_failure().
/// The column after the parameters must be named "objective", and every
/// row's configuration must satisfy the space (its constraints included).
/// Returns the number of rows replayed (successes plus failures).
std::size_t warm_start_from_csv(const std::string& path,
                                const space::ParameterSpace& space,
                                Tuner& tuner);
std::size_t warm_start_from_csv(std::istream& in,
                                const space::ParameterSpace& space,
                                Tuner& tuner);

}  // namespace hpb::core
