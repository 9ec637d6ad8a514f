// TuningEngine: the batched tuning-loop driver, now a thin loop over a
// core::Session.
//
// Each round asks the session for a batch of up to `batch_size` distinct
// configurations (Session::suggest → tuner.suggest_batch), evaluates them —
// in parallel on a ThreadPool when one is supplied — and delivers the
// results back in suggestion order (Session::observe → tuner.observe_batch).
// The session owns all per-run state (journal, recorder emissions, pending
// round, best-so-far, stopping bookkeeping); the engine owns only the
// evaluation of the objective (worker pool, watchdog, retry policy) and the
// decision of when to stop driving. A run over the session split is
// bitwise-identical to the pre-split single-function driver — history,
// journal bytes, and trace spans all match (pinned by
// tests/test_session.cpp), so the paper's curves do not move. With
// batch_size == 1 the engine still reproduces the historical serial loop
// exactly (run_tuning / run_tuning_until are thin shims).
//
// Parallel evaluation requires a thread-safe objective — true for
// TabularObjective, whose evaluate() is a read-only table lookup; live
// objectives that mutate state must be driven with pool == nullptr.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <span>

#include "common/thread_pool.hpp"
#include "core/session.hpp"
#include "core/stopping.hpp"
#include "core/tuner.hpp"
#include "obs/recorder.hpp"
#include "tabular/objective.hpp"

namespace hpb::core {

class JournalWriter;

struct EngineConfig {
  /// Configurations evaluated per suggest/observe round. 1 reproduces the
  /// serial ask/tell loop exactly.
  std::size_t batch_size = 1;
  /// Worker pool for objective evaluations within a batch; nullptr (or a
  /// single worker) evaluates serially in suggestion order.
  ThreadPool* pool = nullptr;
  /// Retry policy for transient failures. Failed evaluations (after
  /// retries) count toward the budget, are delivered to the tuner via
  /// observe_failure, and never become best_value/best_config.
  FailurePolicy failure{};
  /// Wall-clock watchdog: per-evaluation deadline. Each evaluation receives
  /// a CancellationToken carrying now() + eval_deadline; cooperative
  /// objectives return early, and any evaluation that comes back after its
  /// deadline is converted to kTimeout either way, flowing through the
  /// normal FailurePolicy / observe_failure path. Zero disables the
  /// watchdog, and the engine then drives the exact historical
  /// evaluate_result(c) call path.
  std::chrono::milliseconds eval_deadline{0};
  /// Write-ahead journal appended each round (round marker after
  /// suggest_batch, then one record per observation after evaluation, all
  /// in one write and one fsync) and finalized when a run completes.
  /// nullptr disables journaling. Not owned; must outlive the run.
  JournalWriter* journal = nullptr;
  /// Graceful-shutdown flag (typically raised by a SIGINT/SIGTERM
  /// handler), checked between rounds and propagated to evaluations via
  /// their CancellationToken. run_until returns kInterrupted with the
  /// partial result; the journal is left resumable. Not owned.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Observability hooks (trace sink / metrics registry / clock), all
  /// optional and not owned. When active, the session emits one span per
  /// round, suggest, evaluation, and observe (plus an instant event per
  /// journal append) and meters evaluations/failures/retries/latencies,
  /// and the engine installs the recorder on the tuner so it can export
  /// its model internals. The all-null default performs no clock reads, no
  /// allocations, and no extra branches inside evaluations: default runs
  /// are bitwise identical to a recorder-free build of the loop.
  obs::Recorder recorder{};
};

class TuningEngine {
 public:
  explicit TuningEngine(EngineConfig config = {});

  /// Run exactly `budget` evaluations (the final round shrinks to fit; a
  /// tuner returning short batches near exhaustion just triggers more
  /// rounds).
  [[nodiscard]] TuneResult run(Tuner& tuner, tabular::Objective& objective,
                               std::size_t budget) const;

  /// Resuming variant: `replayed` observations (from replay_journal, which
  /// already drove them through the tuner) are recorded into the result
  /// first and count toward `budget`; only the remainder is evaluated.
  /// `replayed_rounds` is the journal's round count, observed and
  /// abandoned: the round counter (the round span's index) continues from
  /// it, as in the run that wrote the journal.
  [[nodiscard]] TuneResult run(Tuner& tuner, tabular::Objective& objective,
                               std::size_t budget,
                               std::span<const Observation> replayed,
                               std::size_t replayed_rounds = 0) const;

  /// Run until a stopping condition fires. Stopping conditions are checked
  /// per observation — stagnation patience counts every observation,
  /// including within a batch — but when a stop triggers mid-batch the
  /// whole already-evaluated round is still drained into the returned
  /// history first: those evaluations were spent (and delivered to the
  /// tuner via observe_batch), so reported counts match actual spend. At
  /// batch_size == 1 this is exactly the serial driver's behavior.
  /// The stop flag and max_wall_time_seconds are checked between rounds.
  [[nodiscard]] StoppedTuneResult run_until(Tuner& tuner,
                                            tabular::Objective& objective,
                                            const StopConfig& config) const;

  /// Resuming variant of run_until: replayed observations pass through the
  /// same per-observation stopping bookkeeping (stagnation counters, target
  /// checks) before fresh rounds start, so a resumed session stops exactly
  /// where the uninterrupted one would have. `replayed_rounds` as for run.
  [[nodiscard]] StoppedTuneResult run_until(
      Tuner& tuner, tabular::Objective& objective, const StopConfig& config,
      std::span<const Observation> replayed,
      std::size_t replayed_rounds = 0) const;

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  /// Session configuration mirroring this engine's config plus the
  /// stopping conditions of the current run.
  [[nodiscard]] SessionConfig session_config(StopConfig stop) const;

  /// One suggest → evaluate → observe round of at most `k` evaluations
  /// driven through the session: the engine evaluates the suggested batch
  /// (pool / watchdog / retries) and hands the results straight back.
  void drive_round(Session& session, tabular::Objective& objective,
                   std::size_t k) const;

  EngineConfig config_;
};

}  // namespace hpb::core
