// Termination conditions for the tuning loop (§III-C step 5): "determined
// either by the number of objective function evaluations that can be
// performed, or based on the quality of the samples obtained as the
// iteration progresses."
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/tuner.hpp"

namespace hpb::core {

/// The record of one tuning run.
struct TuneResult {
  /// All evaluated observations in evaluation order (the set H of eq. 11),
  /// including failed evaluations (status != kOk, y == NaN) — they spent
  /// budget and belong to the record.
  std::vector<Observation> history;
  /// best_so_far[t] = min objective value over the first t+1 evaluations
  /// (the "Best Performing Configuration" metric, §IV-B1). Entries before
  /// the first *successful* evaluation are +inf.
  std::vector<double> best_so_far;
  /// Best successful observation; best_value stays +inf (and best_config
  /// empty) when every evaluation failed. A failed configuration is never
  /// reported here.
  space::Configuration best_config;
  double best_value = std::numeric_limits<double>::infinity();
  /// Number of failed evaluations in `history`.
  std::size_t num_failed = 0;
};

struct StopConfig {
  /// Hard cap on evaluations (always enforced).
  std::size_t max_evaluations = 100;
  /// Stop after this many consecutive evaluations without a (relative)
  /// improvement of the best value; 0 disables stagnation detection.
  std::size_t stagnation_patience = 0;
  /// An improvement counts only if it shrinks the best value by at least
  /// this relative fraction (guards against epsilon-sized "improvements"
  /// resetting the patience forever).
  double min_relative_improvement = 1e-6;
  /// Stop as soon as the best value is <= target (-inf disables).
  double target_value = -std::numeric_limits<double>::infinity();
  /// Stop once the session has run this many wall-clock seconds, checked
  /// between rounds (an in-flight round always drains); 0 disables. The
  /// session still ends with a consistent journal and partial result.
  double max_wall_time_seconds = 0.0;
};

enum class StopReason {
  kBudgetExhausted,
  kStagnation,
  kTargetReached,
  /// StopConfig::max_wall_time_seconds elapsed. A completion, not a crash:
  /// the journal (if any) is finalized.
  kWallTime,
  /// The engine's stop flag was raised (SIGINT/SIGTERM). The journal is
  /// left unfinalized so the session can be resumed.
  kInterrupted,
};

/// Stable lower-snake-case label ("budget_exhausted", ...) used in reports
/// and journal end markers.
[[nodiscard]] const char* stop_reason_name(StopReason reason) noexcept;

struct StoppedTuneResult {
  TuneResult result;
  StopReason reason = StopReason::kBudgetExhausted;
};

}  // namespace hpb::core
