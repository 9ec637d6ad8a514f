#include "core/engine.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "core/journal.hpp"

namespace hpb::core {

TuningEngine::TuningEngine(EngineConfig config) : config_(std::move(config)) {
  HPB_REQUIRE(config_.batch_size > 0,
              "TuningEngine: batch_size must be positive");
  HPB_REQUIRE(config_.eval_deadline.count() >= 0,
              "TuningEngine: eval_deadline must be >= 0");
}

SessionConfig TuningEngine::session_config(StopConfig stop) const {
  return {.batch_size = config_.batch_size,
          .failure = config_.failure,
          .eval_deadline = config_.eval_deadline,
          .stop_flag = config_.stop_flag,
          .recorder = config_.recorder,
          .stop = stop};
}

void TuningEngine::drive_round(Session& session, tabular::Objective& objective,
                               std::size_t k) const {
  const obs::Recorder& rec = config_.recorder;
  std::vector<space::Configuration> batch = session.suggest(k);
  // The watchdog path only engages when a deadline or stop flag exists;
  // otherwise the historical call path runs untouched.
  const bool watched =
      config_.eval_deadline.count() > 0 || config_.stop_flag != nullptr;
  // Per-evaluation wall time and attempt counts, captured on the worker
  // that ran the evaluation but only when a recorder is attached — the
  // default path performs no clock reads at all.
  std::vector<EvalMeter> meters(rec.active() ? batch.size() : 0);
  std::vector<tabular::EvalResult> results(batch.size());
  parallel_for_indexed(
      batch.size() > 1 ? config_.pool : nullptr, batch.size(),
      [&](std::size_t i) {
        if (!meters.empty()) {
          meters[i].start_ns = rec.now_ns();
        }
        std::uint64_t attempts = 1;
        tabular::EvalResult r;
        if (watched) {
          const CancellationToken token(
              config_.eval_deadline.count() > 0
                  ? CancellationToken::Clock::now() + config_.eval_deadline
                  : CancellationToken::Clock::time_point::max(),
              config_.stop_flag);
          r = objective.evaluate_result(batch[i], token);
          // Only kCrashed is plausibly transient; bounded retries occupy
          // the same budget slot — but not once the token fired: the time
          // allocation is spent.
          for (std::size_t retry = 0;
               r.status == EvalStatus::kCrashed &&
               retry < config_.failure.max_retries && !token.cancelled();
               ++retry) {
            r = objective.evaluate_result(batch[i], token);
            ++attempts;
          }
          // An evaluation that comes back after its deadline exceeded its
          // time allocation, whatever it returned. (Stop-flag cancellation
          // does not rewrite results: the round drains and the session
          // reports kInterrupted.)
          if (token.deadline_passed()) {
            r = tabular::EvalResult::failure(EvalStatus::kTimeout);
          }
        } else {
          r = objective.evaluate_result(batch[i]);
          // Only kCrashed is plausibly transient; bounded retries occupy
          // the same budget slot.
          for (std::size_t retry = 0;
               r.status == EvalStatus::kCrashed &&
               retry < config_.failure.max_retries;
               ++retry) {
            r = objective.evaluate_result(batch[i]);
            ++attempts;
          }
        }
        HPB_REQUIRE(!r.ok() || std::isfinite(r.value),
                    "TuningEngine: objective returned a non-finite value "
                    "with status ok");
        results[i] = r;
        if (!meters.empty()) {
          meters[i].end_ns = rec.now_ns();
          meters[i].attempts = attempts;
        }
      });
  std::vector<Observation> observations;
  observations.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    observations.push_back(
        {std::move(batch[i]), results[i].value, results[i].status});
  }
  session.observe(std::move(observations), meters);
}

TuneResult TuningEngine::run(Tuner& tuner, tabular::Objective& objective,
                             std::size_t budget) const {
  return run(tuner, objective, budget, {});
}

TuneResult TuningEngine::run(Tuner& tuner, tabular::Objective& objective,
                             std::size_t budget,
                             std::span<const Observation> replayed,
                             std::size_t replayed_rounds) const {
  HPB_REQUIRE(budget > 0, "run_tuning: budget must be positive");
  if (config_.recorder.active()) {
    tuner.set_recorder(&config_.recorder);
  }
  // The fixed-budget driver ignores the session's stopping verdict (no
  // target / stagnation checks, exactly as before the session split); the
  // StopConfig below only sizes the bookkeeping.
  Session session(tuner, session_config({.max_evaluations = budget}),
                  config_.journal);
  session.reserve(std::max(budget, replayed.size()));
  session.replay(replayed, replayed_rounds);
  while (session.evaluations() < budget) {
    const std::size_t k =
        std::min(config_.batch_size, budget - session.evaluations());
    drive_round(session, objective, k);
  }
  session.finish(StopReason::kBudgetExhausted);
  return session.take_result();
}

StoppedTuneResult TuningEngine::run_until(Tuner& tuner,
                                          tabular::Objective& objective,
                                          const StopConfig& config) const {
  return run_until(tuner, objective, config, {});
}

StoppedTuneResult TuningEngine::run_until(
    Tuner& tuner, tabular::Objective& objective, const StopConfig& config,
    std::span<const Observation> replayed,
    std::size_t replayed_rounds) const {
  HPB_REQUIRE(config.max_evaluations > 0,
              "run_tuning_until: max_evaluations must be positive");
  HPB_REQUIRE(config.min_relative_improvement >= 0.0,
              "run_tuning_until: min_relative_improvement must be >= 0");
  HPB_REQUIRE(config.max_wall_time_seconds >= 0.0,
              "run_tuning_until: max_wall_time_seconds must be >= 0");
  if (config_.recorder.active()) {
    tuner.set_recorder(&config_.recorder);
  }
  Session session(tuner, session_config(config), config_.journal);
  session.reserve(config.max_evaluations);

  auto finish = [&](StopReason reason) {
    // finish(kInterrupted) leaves the journal unfinalized: an interrupted
    // session is exactly what --resume expects to find.
    session.finish(reason);
    StoppedTuneResult out;
    out.reason = reason;
    out.result = session.take_result();
    return out;
  };

  session.replay(replayed, replayed_rounds);
  if (session.stopped()) {
    return finish(session.stop_reason());
  }

  const auto started = std::chrono::steady_clock::now();
  while (session.evaluations() < config.max_evaluations) {
    if (config_.stop_flag != nullptr &&
        config_.stop_flag->load(std::memory_order_relaxed)) {
      return finish(StopReason::kInterrupted);
    }
    if (config.max_wall_time_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() >= config.max_wall_time_seconds) {
        return finish(StopReason::kWallTime);
      }
    }
    const std::size_t k = std::min(
        config_.batch_size, config.max_evaluations - session.evaluations());
    drive_round(session, objective, k);
    if (session.stopped()) {
      return finish(session.stop_reason());
    }
  }
  return finish(StopReason::kBudgetExhausted);
}

}  // namespace hpb::core
