// Failure-aware evaluation path:
//   - EvalResult/EvalStatus plumbing and the engine's FailurePolicy (failed
//     evaluations spend budget, are retried only when transient, and never
//     become best_config);
//   - deterministic fault injection (same seed + rates => identical runs,
//     rate 0 => bitwise pass-through at batch 1 and 4);
//   - every standard method survives a 100-evaluation budget on Kripke at a
//     20% permanent failure rate;
//   - ThreadPool survives throwing tasks (no terminate, no wait_idle
//     deadlock, error surfaced);
//   - run_until drains the whole round when a stop triggers mid-batch, and
//     stagnation patience counts per observation within a batch;
//   - history CSV round-trips the status column, validates the objective
//     header column, and rejects rows with a trailing comma.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "apps/registry.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/history_io.hpp"
#include "core/hiperbot.hpp"
#include "core/stopping.hpp"
#include "eval/methods.hpp"
#include "eval/metrics.hpp"
#include "tabular/fault_injection.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::Observation;
using core::TuneResult;
using core::TuningEngine;
using tabular::EvalResult;
using tabular::EvalStatus;
using tabular::FaultInjectingObjective;

constexpr std::uint64_t kSeed = 0xFA117;

/// Ask/tell sink recording every delivered outcome (for CSV replay tests).
class RecordingTuner final : public core::Tuner {
 public:
  [[nodiscard]] space::Configuration suggest() override {
    throw Error("RecordingTuner does not suggest");
  }
  void observe(const space::Configuration& config, double y) override {
    ok_configs.push_back(config);
    ok_values.push_back(y);
  }
  void observe_failure(const space::Configuration& config,
                       EvalStatus status) override {
    failed_configs.push_back(config);
    failed_statuses.push_back(status);
  }
  [[nodiscard]] std::string name() const override { return "Recording"; }

  std::vector<space::Configuration> ok_configs;
  std::vector<double> ok_values;
  std::vector<space::Configuration> failed_configs;
  std::vector<EvalStatus> failed_statuses;
};

/// Objective whose first evaluation of every configuration crashes and
/// whose retries succeed — exercises the engine's transient-retry policy
/// deterministically.
class FlakyObjective final : public tabular::Objective {
 public:
  explicit FlakyObjective(tabular::TabularObjective& inner) : inner_(&inner) {}

  [[nodiscard]] const space::ParameterSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] double evaluate(const space::Configuration& c) override {
    return inner_->evaluate(c);
  }
  [[nodiscard]] EvalResult evaluate_result(
      const space::Configuration& c) override {
    std::scoped_lock lock(mutex_);
    if (seen_.insert(inner_->space().ordinal_of(c)).second) {
      return EvalResult::failure(EvalStatus::kCrashed);
    }
    return EvalResult::success(inner_->evaluate(c));
  }
  [[nodiscard]] std::string name() const override { return "flaky"; }

 private:
  tabular::TabularObjective* inner_;
  std::mutex mutex_;
  std::unordered_set<std::uint64_t> seen_;
};

void expect_identical(const TuneResult& a, const TuneResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].config.values(), b.history[i].config.values())
        << "config mismatch at " << i;
    // Failed observations carry NaN, so compare bit patterns, not ==.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.history[i].y),
              std::bit_cast<std::uint64_t>(b.history[i].y))
        << "value mismatch at " << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status)
        << "status mismatch at " << i;
  }
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.best_so_far, b.best_so_far);
  EXPECT_EQ(a.num_failed, b.num_failed);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolFailure, ThrowingTaskSurfacesFromWaitIdleWithoutDeadlock) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([] {});
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error was consumed; the pool is still usable.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPoolFailure, ParallelForStillReportsItsOwnFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_indexed(&pool, 16,
                                    [](std::size_t i) {
                                      if (i == 3) {
                                        throw std::runtime_error("index 3");
                                      }
                                    }),
               std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());
}

// ------------------------------------------------------------------ engine

TEST(EngineFailure, FailedEvaluationsSpendBudgetButNeverBecomeBest) {
  auto ds = testutil::separable_dataset();
  FaultInjectingObjective faulty(ds, {.fail_rate = 0.3, .seed = kSeed});
  const TuningEngine engine({.batch_size = 4});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto result = engine.run(*tuner, faulty, 40);

  ASSERT_EQ(result.history.size(), 40u);
  std::size_t failed = 0;
  double best_ok = std::numeric_limits<double>::infinity();
  for (const auto& o : result.history) {
    if (o.ok()) {
      EXPECT_TRUE(std::isfinite(o.y));
      best_ok = std::min(best_ok, o.y);
    } else {
      EXPECT_TRUE(std::isnan(o.y));
      EXPECT_TRUE(faulty.in_failure_region(o.config));
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u) << "fault injection produced no failures at 30%";
  EXPECT_EQ(result.num_failed, failed);
  EXPECT_EQ(result.best_value, best_ok);
  EXPECT_FALSE(faulty.in_failure_region(result.best_config));
  // best_so_far never reflects a failed observation.
  for (double b : result.best_so_far) {
    EXPECT_TRUE(std::isfinite(b) ||
                b == std::numeric_limits<double>::infinity());
    EXPECT_FALSE(std::isnan(b));
  }
}

TEST(EngineFailure, TransientCrashesAreRetriedWithinTheSameBudgetSlot) {
  auto ds = testutil::separable_dataset();
  FlakyObjective flaky(ds);
  const TuningEngine engine({.batch_size = 4, .failure = {.max_retries = 1}});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto result = engine.run(*tuner, flaky, 20);
  ASSERT_EQ(result.history.size(), 20u);
  // Every first attempt crashed; the single retry succeeded each time.
  EXPECT_EQ(result.num_failed, 0u);
  for (const auto& o : result.history) {
    EXPECT_TRUE(o.ok());
  }
}

TEST(EngineFailure, NoRetriesRecordsTheCrash) {
  auto ds = testutil::separable_dataset();
  FlakyObjective flaky(ds);
  const TuningEngine engine({.batch_size = 1, .failure = {.max_retries = 0}});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto result = engine.run(*tuner, flaky, 5);
  ASSERT_EQ(result.history.size(), 5u);
  EXPECT_EQ(result.num_failed, 5u);
  for (const auto& o : result.history) {
    EXPECT_EQ(o.status, EvalStatus::kCrashed);
  }
  EXPECT_EQ(result.best_value, std::numeric_limits<double>::infinity());
}

TEST(EngineFailure, ZeroRatesAreBitwiseIdenticalToUnwrappedRuns) {
  auto ds = testutil::separable_dataset();
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    const TuningEngine engine({.batch_size = batch});
    for (const auto& name : eval::tuner_names()) {
      auto plain_tuner = eval::make_named_tuner(name, ds, kSeed);
      const auto plain = engine.run(*plain_tuner, ds, 30);

      FaultInjectingObjective faulty(ds,
                                     {.fail_rate = 0.0, .crash_rate = 0.0});
      auto wrapped_tuner = eval::make_named_tuner(name, ds, kSeed);
      const auto wrapped = engine.run(*wrapped_tuner, faulty, 30);
      expect_identical(plain, wrapped);
      EXPECT_EQ(faulty.failures_injected(), 0u);
    }
  }
}

TEST(EngineFailure, SameSeedAndRatesReproduceTheExactRun) {
  auto ds = testutil::separable_dataset();
  const TuningEngine engine({.batch_size = 4});
  auto run_once = [&] {
    FaultInjectingObjective faulty(
        ds, {.fail_rate = 0.25, .crash_rate = 0.1, .seed = kSeed});
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    return engine.run(*tuner, faulty, 40);
  };
  expect_identical(run_once(), run_once());
}

TEST(EngineFailure, AllMethodsFinishKripkeBudgetUnderTwentyPercentFailures) {
  auto kripke = apps::dataset_by_name("kripke").make();
  const TuningEngine engine({.batch_size = 4});
  for (const auto& name : eval::tuner_names()) {
    if (name == "exhaustive") {
      continue;  // a prefix scan is not a budgeted method
    }
    SCOPED_TRACE(name);
    FaultInjectingObjective faulty(
        kripke, {.fail_rate = 0.2, .crash_rate = 0.05, .seed = kSeed});
    auto tuner = eval::make_named_tuner(name, kripke, kSeed);
    const auto result = engine.run(*tuner, faulty, 100);
    ASSERT_EQ(result.history.size(), 100u);
    EXPECT_LT(result.num_failed, 100u) << "no successful evaluation at all";
    EXPECT_TRUE(std::isfinite(result.best_value));
    EXPECT_FALSE(faulty.in_failure_region(result.best_config));
  }
}

// --------------------------------------------------------------- run_until

TEST(EngineRunUntilFailure, StagnationCountsPerObservationWithinABatch) {
  auto ds = testutil::separable_dataset();
  core::StopConfig stop;
  stop.max_evaluations = ds.size();
  stop.stagnation_patience = 2;
  const TuningEngine engine({.batch_size = 4});
  auto tuner = eval::make_named_tuner("exhaustive", ds, kSeed);
  // The exhaustive scan of the separable dataset worsens monotonically
  // often enough that patience 2 trips inside an early round; the whole
  // round is still drained into the history.
  const auto stopped = engine.run_until(*tuner, ds, stop);
  EXPECT_EQ(stopped.reason, core::StopReason::kStagnation);
  EXPECT_EQ(stopped.result.history.size() % 4, 0u)
      << "mid-batch stop must drain the full round";
  EXPECT_LT(stopped.result.history.size(), ds.size());
}

// --------------------------------------------------------------- history IO

TEST(HistoryCsvFailure, StatusColumnRoundTripsFailures) {
  auto space = testutil::small_discrete_space();
  auto ds = testutil::separable_dataset();
  FaultInjectingObjective faulty(ds, {.fail_rate = 0.3, .seed = kSeed});
  const TuningEngine engine({.batch_size = 4});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto result = engine.run(*tuner, faulty, 30);
  ASSERT_GT(result.num_failed, 0u);

  std::ostringstream out;
  core::write_history_csv(out, *space, result.history);
  const std::string csv = out.str();
  EXPECT_NE(csv.find(",status"), std::string::npos);

  std::istringstream in(csv);
  RecordingTuner sink;
  const std::size_t replayed = core::warm_start_from_csv(in, *space, sink);
  EXPECT_EQ(replayed, result.history.size());
  ASSERT_EQ(sink.failed_configs.size(), result.num_failed);
  ASSERT_EQ(sink.ok_values.size(), result.history.size() - result.num_failed);
  std::size_t ok_i = 0, fail_i = 0;
  for (const auto& o : result.history) {
    if (o.ok()) {
      EXPECT_EQ(sink.ok_configs[ok_i].values(), o.config.values());
      EXPECT_EQ(sink.ok_values[ok_i], o.y);
      ++ok_i;
    } else {
      EXPECT_EQ(sink.failed_configs[fail_i].values(), o.config.values());
      EXPECT_EQ(sink.failed_statuses[fail_i], o.status);
      ++fail_i;
    }
  }
}

TEST(HistoryCsvFailure, FailureFreeHistoriesKeepTheLegacyLayout) {
  auto space = testutil::small_discrete_space();
  auto ds = testutil::separable_dataset();
  const TuningEngine engine({.batch_size = 1});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto result = engine.run(*tuner, ds, 5);
  std::ostringstream out;
  core::write_history_csv(out, *space, result.history);
  EXPECT_EQ(out.str().find("status"), std::string::npos);
}

TEST(HistoryCsvFailure, HeaderWithoutObjectiveColumnIsRejected) {
  auto space = testutil::small_discrete_space();
  RecordingTuner sink;
  // Right column count, but the objective column is misnamed: previously
  // the last parameter-named column was silently parsed as the objective.
  std::istringstream in("A,B,C,value\na0,1,0,7.5\n");
  EXPECT_THROW(core::warm_start_from_csv(in, *space, sink), Error);
}

TEST(HistoryCsvFailure, TrailingCommaRowIsRejectedNotShifted) {
  auto space = testutil::small_discrete_space();
  RecordingTuner sink;
  // The old getline-based splitter dropped the trailing empty field, so
  // this row passed the field-count check with "0" parsed as objective.
  std::istringstream in("A,B,C,objective\na0,1,0,\n");
  EXPECT_THROW(core::warm_start_from_csv(in, *space, sink), Error);
}

TEST(HistoryCsvFailure, ReorderedParameterColumnsStillMapByName) {
  auto space = testutil::small_discrete_space();
  RecordingTuner sink;
  std::istringstream in("C,A,B,objective,status\n"
                        "3,a1,4,2.5,ok\n"
                        "0,a0,1,nan,invalid\n");
  EXPECT_EQ(core::warm_start_from_csv(in, *space, sink), 2u);
  ASSERT_EQ(sink.ok_values.size(), 1u);
  EXPECT_EQ(sink.ok_values[0], 2.5);
  EXPECT_EQ(sink.ok_configs[0].level(0), 1u);  // A = a1
  EXPECT_EQ(sink.ok_configs[0].level(2), 3u);  // C = 3
  ASSERT_EQ(sink.failed_statuses.size(), 1u);
  EXPECT_EQ(sink.failed_statuses[0], EvalStatus::kInvalid);
}

TEST(HistoryCsvFailure, UnknownStatusNameIsRejected) {
  auto space = testutil::small_discrete_space();
  RecordingTuner sink;
  std::istringstream in("A,B,C,objective,status\na0,1,0,7.5,exploded\n");
  EXPECT_THROW(core::warm_start_from_csv(in, *space, sink), Error);
}

// ------------------------------------------------------------- environment

TEST(FailEnvParsing, StrictRateParsing) {
  unsetenv("HPB_FAIL_RATE");
  EXPECT_EQ(tabular::fail_rate_from_env(0.125), 0.125);
  setenv("HPB_FAIL_RATE", "0.3", 1);
  EXPECT_EQ(tabular::fail_rate_from_env(0.0), 0.3);
  setenv("HPB_FAIL_RATE", "0", 1);
  EXPECT_EQ(tabular::fail_rate_from_env(0.5), 0.0);
  for (const char* bad : {"", " ", "nope", "0.5x", "1.0", "-0.1"}) {
    setenv("HPB_FAIL_RATE", bad, 1);
    EXPECT_THROW((void)tabular::fail_rate_from_env(0.0), Error)
        << '"' << bad << '"';
  }
  unsetenv("HPB_FAIL_RATE");
  setenv("HPB_CRASH_RATE", "0.05", 1);
  EXPECT_EQ(tabular::crash_rate_from_env(0.0), 0.05);
  unsetenv("HPB_CRASH_RATE");
}

// ------------------------------------------------------------------ status

TEST(EvalStatusNames, RoundTrip) {
  for (const EvalStatus s : {EvalStatus::kOk, EvalStatus::kInvalid,
                             EvalStatus::kCrashed, EvalStatus::kTimeout}) {
    EXPECT_EQ(tabular::status_from_name(tabular::status_name(s)), s);
  }
  EXPECT_THROW((void)tabular::status_from_name("partial"), Error);
}

}  // namespace
}  // namespace hpb
