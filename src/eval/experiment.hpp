// Replicated configuration-selection experiments (§V protocol): run each
// method `reps` times with independent seeds and report mean ± std of the
// best-configuration and Recall metrics at a series of sample-size
// checkpoints — the data behind Figs. 2–6.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/tuner.hpp"
#include "stats/summary.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb::eval {

/// Factory producing a fresh tuner for one replicated run.
using TunerFactory =
    std::function<std::unique_ptr<core::Tuner>(std::uint64_t seed)>;

struct SelectionExperimentConfig {
  /// Sample-size checkpoints (the x-axis of Figs. 2–6); the tuning budget
  /// is the largest entry.
  std::vector<std::size_t> sample_sizes;
  /// Replications per method (the paper uses 50). Overridable via the
  /// HPB_REPS environment variable in the bench harnesses.
  std::size_t reps = 20;
  /// Recall percentile ℓ of eq. 11.
  double recall_percentile = 5.0;
  std::uint64_t seed = 0x5eedbeef;
  /// Optional worker pool: replicated runs execute concurrently (results
  /// are reduced in seed order, so curves are identical to a serial run).
  /// Requires a thread-safe objective — true for TabularObjective — and
  /// tuner factories whose products share only immutable state.
  ThreadPool* pool = nullptr;
  /// Suggest/observe batch size inside each replicated run (the engine's
  /// batch knob; HPB_BATCH in the bench harnesses). 1 reproduces the
  /// historical serial curves exactly; larger batches amortize surrogate
  /// fits and acquisition scans within a run. Evaluations inside a rep stay
  /// serial — reps are already parallelized across `pool` and a tabular
  /// lookup is too cheap to fan out twice.
  std::size_t batch_size = 1;
};

struct MethodCurve {
  std::string method;
  std::vector<std::size_t> sample_sizes;
  /// Per checkpoint: distribution over reps of the best value found.
  std::vector<stats::RunningStats> best_value;
  /// Per checkpoint: distribution over reps of R(ℓ).
  std::vector<stats::RunningStats> recall;
};

/// Run one method on one dataset.
[[nodiscard]] MethodCurve run_selection_experiment(
    tabular::TabularObjective& dataset, const std::string& method_name,
    const TunerFactory& factory, const SelectionExperimentConfig& config);

/// Strictly parsed positive count from an environment variable, else
/// `fallback` when the variable is unset. Rejects non-numeric, zero,
/// negative, trailing-garbage, and overflowing values with a clear error
/// instead of silently misparsing them.
[[nodiscard]] std::size_t count_from_env(const char* name,
                                         std::size_t fallback);

/// Replications from the HPB_REPS environment variable, else `fallback`.
[[nodiscard]] std::size_t reps_from_env(std::size_t fallback);

/// Engine batch size from the HPB_BATCH environment variable, else
/// `fallback` (same strict parsing as HPB_REPS).
[[nodiscard]] std::size_t batch_from_env(std::size_t fallback = 1);

/// Per-evaluation watchdog deadline in milliseconds from HPB_EVAL_TIMEOUT_MS,
/// else `fallback` (same strict positive-integer parsing; 0 — the disabled
/// watchdog — can only come from the fallback, not the environment).
[[nodiscard]] std::size_t eval_timeout_ms_from_env(std::size_t fallback = 0);

/// Journal path from HPB_JOURNAL, else an empty string (journaling off).
/// Rejects a set-but-blank variable instead of silently journaling nowhere.
[[nodiscard]] std::string journal_path_from_env();

/// JSON-lines trace path from HPB_TRACE, else an empty string (tracing
/// off). Rejects a set-but-blank variable instead of tracing nowhere.
[[nodiscard]] std::string trace_path_from_env();

}  // namespace hpb::eval
