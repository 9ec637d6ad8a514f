// Crash-tolerant session durability:
//   - the write-ahead journal round-trips headers and observations bitwise
//     (doubles stored as IEEE-754 bit patterns, NaN objectives included);
//   - reopening a journal that needs no truncation leaves its bytes and
//     mtime untouched;
//   - a journal killed at ANY byte offset — record boundaries and torn
//     mid-line tails alike — resumes to a final result bitwise identical
//     to the uninterrupted run, for HiPerBOt, GEIST, and random search;
//   - replaying a journal into the wrong session (different seed / space)
//     is detected, not silently diverged;
//   - the wall-clock watchdog converts hung and overdue evaluations into
//     kTimeout failures that flow through the normal failure path while
//     the session completes;
//   - SIGINT-style stop flags end the session between rounds with a
//     resumable journal;
//   - StopConfig.max_wall_time_seconds bounds a session's wall time;
//   - write_history_csv replaces files atomically;
//   - the HPB_EVAL_TIMEOUT_MS / HPB_JOURNAL / HPB_HANG_RATE environment
//     knobs are parsed strictly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/history_io.hpp"
#include "core/journal.hpp"
#include "core/stopping.hpp"
#include "eval/experiment.hpp"
#include "eval/methods.hpp"
#include "obs/trace.hpp"
#include "tabular/fault_injection.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::JournalContents;
using core::JournalEvent;
using core::JournalHeader;
using core::JournalWriter;
using core::Observation;
using core::StopConfig;
using core::StopReason;
using core::TuneResult;
using core::TuningEngine;

constexpr std::uint64_t kSeed = 0x10a17e;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "journal_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

/// NaN-safe bitwise comparison (failed observations carry NaN objectives).
void expect_identical(const TuneResult& a, const TuneResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].config.values(), b.history[i].config.values())
        << "history diverges at evaluation " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.history[i].y),
              std::bit_cast<std::uint64_t>(b.history[i].y))
        << "objective diverges at evaluation " << i;
    EXPECT_EQ(a.history[i].status, b.history[i].status);
  }
  ASSERT_EQ(a.best_so_far.size(), b.best_so_far.size());
  for (std::size_t i = 0; i < a.best_so_far.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_so_far[i]),
              std::bit_cast<std::uint64_t>(b.best_so_far[i]));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_value),
            std::bit_cast<std::uint64_t>(b.best_value));
  EXPECT_EQ(a.best_config.values(), b.best_config.values());
  EXPECT_EQ(a.num_failed, b.num_failed);
}

JournalHeader make_header(const tabular::TabularObjective& ds,
                          const std::string& method, std::size_t batch,
                          std::size_t budget) {
  JournalHeader h;
  h.method = method;
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = budget;
  return h;
}

// ------------------------------------------------------------ round trip

TEST(JournalRoundTrip, HeaderRoundsAndFinalizeSurviveReadBack) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("roundtrip.hpbj");
  JournalHeader header = make_header(ds, "random", 3, 12);
  header.warm_start = "warm start with spaces.csv";
  header.stagnation_patience = 7;
  header.target_value = 1.25;
  header.fail_rate = 0.125;
  header.crash_rate = 0.0625;
  header.hang_rate = 0.03125;
  {
    JournalWriter writer = JournalWriter::create(path, header);
    writer.begin_round(3, 2);
    Observation ok{ds.configs()[5], 17.5, tabular::EvalStatus::kOk};
    Observation bad{ds.configs()[9], std::nan(""),
                    tabular::EvalStatus::kInvalid};
    writer.append_observations(std::vector<Observation>{ok, bad});
    writer.finalize("stagnation");
  }
  const JournalContents contents = core::read_journal(path);
  EXPECT_EQ(contents.header.method, header.method);
  EXPECT_EQ(contents.header.dataset, header.dataset);
  EXPECT_EQ(contents.header.warm_start, header.warm_start);
  EXPECT_EQ(contents.header.seed, header.seed);
  EXPECT_EQ(contents.header.batch_size, header.batch_size);
  EXPECT_EQ(contents.header.num_params, header.num_params);
  EXPECT_EQ(contents.header.max_evaluations, header.max_evaluations);
  EXPECT_EQ(contents.header.stagnation_patience, header.stagnation_patience);
  EXPECT_EQ(contents.header.target_value, header.target_value);
  EXPECT_EQ(contents.header.fail_rate, header.fail_rate);
  EXPECT_EQ(contents.header.crash_rate, header.crash_rate);
  EXPECT_EQ(contents.header.hang_rate, header.hang_rate);
  // The round reads as its ask and one observe of the whole round.
  ASSERT_EQ(contents.num_asks(), 1u);
  ASSERT_EQ(contents.events.size(), 2u);
  const JournalEvent& ask = contents.events[0];
  const JournalEvent& observe = contents.events[1];
  EXPECT_EQ(ask.requested, 3u);
  ASSERT_EQ(ask.configs.size(), 2u);
  ASSERT_EQ(observe.results.size(), 2u);
  EXPECT_EQ(ask.configs[0].values(), ds.configs()[5].values());
  EXPECT_EQ(observe.results[0].y, 17.5);
  EXPECT_EQ(observe.results[0].status, tabular::EvalStatus::kOk);
  EXPECT_TRUE(std::isnan(observe.results[1].y));
  EXPECT_EQ(observe.results[1].status, tabular::EvalStatus::kInvalid);
  EXPECT_TRUE(contents.finalized);
  EXPECT_EQ(contents.finish_reason, "stagnation");
  // The end marker sits beyond the resumable prefix.
  EXPECT_LT(contents.valid_bytes, slurp(path).size());
}

TEST(JournalRoundTrip, ExtremeDoubleBitsRoundTripExactly) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("bits.hpbj");
  JournalHeader header = make_header(ds, "random", 1, 4);
  header.target_value = -std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::infinity(), 1e308, -1.0 / 3.0};
  {
    JournalWriter writer = JournalWriter::create(path, header);
    for (const double v : values) {
      writer.begin_round(1, 1);
      const Observation o{ds.configs()[0], v, tabular::EvalStatus::kOk};
      writer.append_observations(std::span(&o, 1));
    }
  }
  const JournalContents contents = core::read_journal(path);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(contents.header.target_value),
            std::bit_cast<std::uint64_t>(header.target_value));
  // Round i reads as ask 2i and observe 2i+1.
  ASSERT_EQ(contents.num_asks(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(contents.events[2 * i + 1].results[0].y),
        std::bit_cast<std::uint64_t>(values[i]))
        << "value " << values[i] << " did not round-trip";
  }
  EXPECT_FALSE(contents.finalized);
}

TEST(JournalRoundTrip, RejectsNonJournalAndMissingFiles) {
  const std::string path = temp_path("garbage.hpbj");
  spill(path, "objective,status\n1.5,ok\n");
  EXPECT_THROW((void)core::read_journal(path), Error);
  EXPECT_THROW((void)core::read_journal(temp_path("no_such.hpbj")), Error);
}

TEST(JournalRoundTrip, ReopeningACleanJournalLeavesItsBytesAndMtime) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("clean_reopen.hpbj");
  {
    JournalWriter writer =
        JournalWriter::create(path, make_header(ds, "random", 1, 10));
    writer.begin_round(1, 1);
    const Observation o{ds.configs()[3], 2.5, tabular::EvalStatus::kOk};
    writer.append_observations(std::span(&o, 1));
  }
  const std::string bytes = slurp(path);
  const JournalContents contents = core::read_journal(path);
  ASSERT_EQ(contents.valid_bytes, bytes.size());  // nothing to drop

  // Pin the mtime far in the past: a truncate to the current size still
  // stamps the file with the present time.
  const struct timespec pinned[2] = {{1'000'000'000, 0}, {1'000'000'000, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), pinned, 0), 0);
  { const JournalWriter writer = JournalWriter::append(path, contents); }
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_mtim.tv_sec, pinned[1].tv_sec);
  EXPECT_EQ(st.st_mtim.tv_nsec, pinned[1].tv_nsec);
  EXPECT_EQ(slurp(path), bytes);
}

// --------------------------------------------------- kill-and-resume

/// Reference run: journaled, fault-injected session driven to completion.
struct ReferenceRun {
  core::StoppedTuneResult stopped;
  std::string journal_bytes;
};

ReferenceRun run_reference(tabular::TabularObjective& ds,
                           const std::string& method, std::size_t batch,
                           std::size_t budget, const std::string& path) {
  auto tuner = eval::make_named_tuner(method, ds, kSeed);
  tabular::FaultInjectingObjective faulty(
      ds, {.fail_rate = 0.15, .crash_rate = 0.05, .seed = kSeed});
  JournalWriter writer =
      JournalWriter::create(path, make_header(ds, method, batch, budget));
  const TuningEngine engine({.batch_size = batch, .journal = &writer});
  StopConfig stop;
  stop.max_evaluations = budget;
  ReferenceRun ref;
  ref.stopped = engine.run_until(*tuner, faulty, stop);
  ref.journal_bytes = slurp(path);
  return ref;
}

/// Resume from a journal prefix and drive the session to completion.
core::StoppedTuneResult resume_from(tabular::TabularObjective& ds,
                                    const std::string& method,
                                    std::size_t batch, std::size_t budget,
                                    const std::string& path) {
  const JournalContents contents = core::read_journal(path);
  auto tuner = eval::make_named_tuner(method, ds, kSeed);
  const core::ReplayResult replayed =
      core::replay_journal(*tuner, ds.space(), contents);
  tabular::FaultInjectingObjective faulty(
      ds, {.fail_rate = 0.15, .crash_rate = 0.05, .seed = kSeed});
  JournalWriter writer = JournalWriter::append(path, contents);
  const TuningEngine engine({.batch_size = batch, .journal = &writer});
  StopConfig stop;
  stop.max_evaluations = budget;
  return engine.run_until(*tuner, faulty, stop, replayed);
}

class KillAndResume : public ::testing::TestWithParam<const char*> {};

TEST_P(KillAndResume, EveryTruncationOffsetResumesBitwiseIdentical) {
  const std::string method = GetParam();
  auto ds = testutil::separable_dataset();
  constexpr std::size_t kBatch = 5;
  constexpr std::size_t kBudget = 23;  // deliberately not a batch multiple
  const std::string ref_path = temp_path(method + std::string("_ref.hpbj"));
  const ReferenceRun ref =
      run_reference(ds, method, kBatch, kBudget, ref_path);
  ASSERT_EQ(ref.stopped.result.history.size(), kBudget);
  ASSERT_EQ(ref.stopped.reason, StopReason::kBudgetExhausted);

  // Kill points: after the header, every line boundary and a torn offset
  // three bytes into the following line.
  const std::string& bytes = ref.journal_bytes;
  const std::size_t header_end = bytes.find("\nround");
  ASSERT_NE(header_end, std::string::npos);
  std::vector<std::size_t> kill_points;
  for (std::size_t pos = header_end + 1; pos < bytes.size();
       pos = bytes.find('\n', pos) + 1) {
    kill_points.push_back(pos);
    if (pos + 3 < bytes.size()) {
      kill_points.push_back(pos + 3);  // torn mid-line tail
    }
    if (bytes.find('\n', pos) == std::string::npos) {
      break;
    }
  }
  ASSERT_GT(kill_points.size(), 2 * kBudget);  // every record is covered

  const std::string resume_path = temp_path(method + std::string("_cut.hpbj"));
  for (const std::size_t cut : kill_points) {
    SCOPED_TRACE("killed at byte " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()));
    spill(resume_path, bytes.substr(0, cut));
    const JournalContents prefix = core::read_journal(resume_path);
    if (prefix.finalized) {
      continue;  // the whole session survived; nothing to resume
    }
    const auto resumed =
        resume_from(ds, method, kBatch, kBudget, resume_path);
    EXPECT_EQ(resumed.reason, ref.stopped.reason);
    expect_identical(ref.stopped.result, resumed.result);
    // The healed journal is byte-for-byte the uninterrupted one.
    EXPECT_EQ(slurp(resume_path), bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Tuners, KillAndResume,
                         ::testing::Values("hiperbot", "geist", "random"));

TEST(JournalReplay, WrongSeedIsDetectedNotSilentlyDiverged) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("wrong_seed.hpbj");
  (void)run_reference(ds, "random", 4, 16, path);
  const JournalContents contents = core::read_journal(path);
  auto wrong = eval::make_named_tuner("random", ds, kSeed + 1);
  EXPECT_THROW((void)core::replay_journal(*wrong, ds.space(), contents),
               Error);
}

TEST(JournalReplay, WrongSpaceIsRejected) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("wrong_space.hpbj");
  (void)run_reference(ds, "random", 4, 16, path);
  JournalContents contents = core::read_journal(path);
  contents.header.num_params = 99;
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  EXPECT_THROW((void)core::replay_journal(*tuner, ds.space(), contents),
               Error);
}

// ------------------------------------------------------------- watchdog

/// Ignores the cancellation token entirely and sleeps through its deadline:
/// the worst-behaved objective the watchdog must still contain.
class OversleepingObjective final : public tabular::Objective {
 public:
  explicit OversleepingObjective(tabular::TabularObjective& inner,
                                 std::chrono::milliseconds nap)
      : inner_(&inner), nap_(nap) {}
  [[nodiscard]] const space::ParameterSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] double evaluate(const space::Configuration& c) override {
    std::this_thread::sleep_for(nap_);
    return inner_->evaluate(c);
  }

 private:
  tabular::TabularObjective* inner_;
  std::chrono::milliseconds nap_;
};

TEST(Watchdog, OverdueEvaluationsBecomeTimeoutFailures) {
  auto ds = testutil::separable_dataset();
  OversleepingObjective slow(ds, std::chrono::milliseconds(30));
  const TuningEngine engine(
      {.batch_size = 2, .eval_deadline = std::chrono::milliseconds(5)});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const TuneResult r = engine.run(*tuner, slow, 6);
  EXPECT_EQ(r.history.size(), 6u);
  EXPECT_EQ(r.num_failed, 6u);
  for (const Observation& o : r.history) {
    EXPECT_EQ(o.status, tabular::EvalStatus::kTimeout);
    EXPECT_TRUE(std::isnan(o.y));
  }
}

TEST(Watchdog, InjectedHangsAreCancelledAndTheSessionCompletes) {
  auto ds = testutil::separable_dataset();
  tabular::FaultInjectingObjective faulty(
      ds, {.hang_rate = 0.3, .seed = kSeed});
  const TuningEngine engine(
      {.batch_size = 4, .eval_deadline = std::chrono::milliseconds(25)});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  const auto started = std::chrono::steady_clock::now();
  const TuneResult r = engine.run(*tuner, faulty, 40);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(r.history.size(), 40u);
  std::size_t timeouts = 0;
  for (const Observation& o : r.history) {
    if (faulty.in_hang_region(o.config)) {
      EXPECT_EQ(o.status, tabular::EvalStatus::kTimeout);
      ++timeouts;
    } else {
      EXPECT_EQ(o.status, tabular::EvalStatus::kOk);
    }
  }
  EXPECT_GT(timeouts, 0u) << "hang rate 0.3 over 40 draws never hung";
  EXPECT_EQ(r.num_failed, timeouts);
  // Every hang ends at its deadline, not at some unbounded later point:
  // 40 evaluations with a 25 ms deadline fit comfortably in ten seconds.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

TEST(Watchdog, UncancellableTokenFailsFastInsteadOfHanging) {
  auto ds = testutil::separable_dataset();
  tabular::FaultInjectingObjective faulty(
      ds, {.hang_rate = 0.999, .seed = kSeed});
  // No deadline, no stop flag: the injector must report kTimeout
  // immediately rather than wedging the worker forever.
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    (void)faulty.evaluate_result(ds.configs()[i]);
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
}

TEST(CancellationToken, DefaultNeverCancels) {
  const CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationToken, StopFlagAndDeadlineBothCancel) {
  std::atomic<bool> flag{false};
  const auto by_flag = CancellationToken::with_stop_flag(&flag);
  EXPECT_TRUE(by_flag.can_cancel());
  EXPECT_FALSE(by_flag.cancelled());
  flag.store(true);
  EXPECT_TRUE(by_flag.cancelled());
  EXPECT_TRUE(by_flag.stop_requested());

  const auto by_deadline = CancellationToken::with_deadline(
      CancellationToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(by_deadline.can_cancel());
  EXPECT_TRUE(by_deadline.deadline_passed());
  EXPECT_TRUE(by_deadline.cancelled());

  const auto future = CancellationToken::with_deadline(
      CancellationToken::Clock::now() + std::chrono::hours(1));
  EXPECT_TRUE(future.can_cancel());
  EXPECT_FALSE(future.cancelled());
}

TEST(ThreadPoolDeadline, WaitIdleUntilReportsBusyThenIdle) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_FALSE(pool.wait_idle_until(std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(20)));
  release.store(true);
  EXPECT_TRUE(pool.wait_idle_until(std::chrono::steady_clock::now() +
                                   std::chrono::seconds(30)));
}

// ----------------------------------------------------- graceful shutdown

/// Raises the session stop flag after a fixed number of evaluations —
/// a SIGINT arriving mid-run, deterministically.
class SelfInterruptingObjective final : public tabular::Objective {
 public:
  SelfInterruptingObjective(tabular::TabularObjective& inner,
                            std::size_t after, std::atomic<bool>* flag)
      : inner_(&inner), after_(after), flag_(flag) {}
  [[nodiscard]] const space::ParameterSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] double evaluate(const space::Configuration& c) override {
    if (++calls_ >= after_) {
      flag_->store(true);
    }
    return inner_->evaluate(c);
  }

 private:
  tabular::TabularObjective* inner_;
  std::size_t after_;
  std::atomic<bool>* flag_;
  std::size_t calls_ = 0;
};

TEST(GracefulShutdown, StopFlagInterruptsBetweenRoundsAndResumes) {
  auto ds = testutil::separable_dataset();
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kBudget = 24;
  StopConfig stop;
  stop.max_evaluations = kBudget;

  // Uninterrupted reference (no journal, no flag).
  auto ref_tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  const TuningEngine plain({.batch_size = kBatch});
  const auto reference = plain.run_until(*ref_tuner, ds, stop);

  // Interrupted run: the "signal" lands during round 3.
  const std::string path = temp_path("interrupt.hpbj");
  std::atomic<bool> flag{false};
  SelfInterruptingObjective interrupting(ds, 10, &flag);
  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  JournalWriter writer = JournalWriter::create(
      path, make_header(ds, "hiperbot", kBatch, kBudget));
  const TuningEngine engine(
      {.batch_size = kBatch, .journal = &writer, .stop_flag = &flag});
  const auto interrupted = engine.run_until(*tuner, interrupting, stop);
  EXPECT_EQ(interrupted.reason, StopReason::kInterrupted);
  EXPECT_EQ(interrupted.result.history.size(), 12u);  // 3 full rounds drain

  // The journal is unfinalized (resumable) and holds exactly those rounds.
  const JournalContents contents = core::read_journal(path);
  EXPECT_FALSE(contents.finalized);
  EXPECT_EQ(contents.num_observations(), 12u);

  // Resume completes the session bitwise-identically to the reference.
  auto resumed_tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  const core::ReplayResult replayed =
      core::replay_journal(*resumed_tuner, ds.space(), contents);
  JournalWriter appender = JournalWriter::append(path, contents);
  const TuningEngine resumed_engine(
      {.batch_size = kBatch, .journal = &appender});
  const auto resumed = resumed_engine.run_until(*resumed_tuner, ds, stop,
                                                replayed);
  EXPECT_EQ(resumed.reason, StopReason::kBudgetExhausted);
  expect_identical(reference.result, resumed.result);
  EXPECT_TRUE(core::read_journal(path).finalized);
}

/// The `round` attribute of every round span in a JSON-lines trace, in
/// file order.
std::vector<std::size_t> traced_rounds(const std::string& path) {
  const std::string span = "\"name\":\"round\"";
  const std::string attr = "\"attrs\":{\"round\":";
  std::vector<std::size_t> rounds;
  std::istringstream lines(slurp(path));
  for (std::string line; std::getline(lines, line);) {
    if (line.find(span) == std::string::npos) {
      continue;
    }
    const std::size_t at = line.find(attr);
    EXPECT_NE(at, std::string::npos) << line;
    if (at != std::string::npos) {
      rounds.push_back(std::stoul(line.substr(at + attr.size())));
    }
  }
  return rounds;
}

TEST(GracefulShutdown, ResumedRunContinuesTheRoundCounter) {
  // A round span's `round` attribute is the session's round counter, the
  // value status().rounds reports. Resumed from replay_journal's result,
  // which carries the journal's round count, a run stopped after k rounds
  // numbers its next round k, and the stitched trace counts 0..n-1 like an
  // uninterrupted run's.
  auto ds = testutil::separable_dataset();
  constexpr std::size_t kBatch = 2;
  constexpr std::size_t kBudget = 16;
  StopConfig stop;
  stop.max_evaluations = kBudget;
  const std::string path = temp_path("round_counter.hpbj");
  const std::string trace = temp_path("round_counter.jsonl");
  {
    // The "signal" lands during round 2, which still drains.
    std::atomic<bool> flag{false};
    SelfInterruptingObjective interrupting(ds, 5, &flag);
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    JournalWriter writer = JournalWriter::create(
        path, make_header(ds, "hiperbot", kBatch, kBudget));
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(trace);
    const TuningEngine engine({.batch_size = kBatch,
                               .journal = &writer,
                               .stop_flag = &flag,
                               .recorder = {.trace = &sink}});
    EXPECT_EQ(engine.run_until(*tuner, interrupting, stop).reason,
              StopReason::kInterrupted);
  }
  const JournalContents contents = core::read_journal(path);
  ASSERT_EQ(contents.num_asks(), 3u);
  EXPECT_EQ(traced_rounds(trace), (std::vector<std::size_t>{0, 1, 2}));
  {
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    const core::ReplayResult replayed =
        core::replay_journal(*tuner, ds.space(), contents);
    EXPECT_EQ(replayed.asks, 3u);
    JournalWriter writer = JournalWriter::append(path, contents);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::append_to(trace);
    const TuningEngine engine({.batch_size = kBatch,
                               .journal = &writer,
                               .recorder = {.trace = &sink}});
    EXPECT_EQ(engine.run_until(*tuner, ds, stop, replayed).reason,
              StopReason::kBudgetExhausted);
  }
  std::vector<std::size_t> expected(kBudget / kBatch);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(traced_rounds(trace), expected);
}

TEST(GracefulShutdown, PreRaisedFlagYieldsEmptyInterruptedResult) {
  auto ds = testutil::separable_dataset();
  std::atomic<bool> flag{true};
  const TuningEngine engine({.batch_size = 2, .stop_flag = &flag});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  StopConfig stop;
  stop.max_evaluations = 10;
  const auto stopped = engine.run_until(*tuner, ds, stop);
  EXPECT_EQ(stopped.reason, StopReason::kInterrupted);
  EXPECT_TRUE(stopped.result.history.empty());
}

TEST(WallClock, MaxWallTimeEndsTheSessionWithAFinalizedJournal) {
  auto ds = testutil::separable_dataset();
  OversleepingObjective slow(ds, std::chrono::milliseconds(15));
  const std::string path = temp_path("walltime.hpbj");
  JournalWriter writer =
      JournalWriter::create(path, make_header(ds, "random", 1, 10000));
  const TuningEngine engine({.batch_size = 1, .journal = &writer});
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  StopConfig stop;
  stop.max_evaluations = 10000;
  stop.max_wall_time_seconds = 0.05;
  const auto stopped = engine.run_until(*tuner, slow, stop);
  EXPECT_EQ(stopped.reason, StopReason::kWallTime);
  EXPECT_GT(stopped.result.history.size(), 0u);
  EXPECT_LT(stopped.result.history.size(), 10000u);
  const JournalContents contents = core::read_journal(path);
  EXPECT_TRUE(contents.finalized);
  EXPECT_EQ(contents.finish_reason, "wall_time");
}

// ------------------------------------------------------------ atomic CSV

TEST(AtomicHistoryCsv, WritesLeaveNoTempFileAndReplaceWholesale) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("history.csv");
  const std::vector<Observation> first = {
      {ds.configs()[0], 4.0, tabular::EvalStatus::kOk}};
  const std::vector<Observation> second = {
      {ds.configs()[1], 8.0, tabular::EvalStatus::kOk},
      {ds.configs()[2], std::nan(""), tabular::EvalStatus::kTimeout}};
  core::write_history_csv(path, ds.space(), first);
  const std::string once = slurp(path);
  EXPECT_NE(once.find("objective"), std::string::npos);
  core::write_history_csv(path, ds.space(), second);
  const std::string twice = slurp(path);
  EXPECT_NE(twice.find("timeout"), std::string::npos);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "temporary file left behind";
}

TEST(AtomicHistoryCsv, UnwritableDirectoryFailsCleanly) {
  auto ds = testutil::separable_dataset();
  const std::vector<Observation> obs = {
      {ds.configs()[0], 4.0, tabular::EvalStatus::kOk}};
  EXPECT_THROW(core::write_history_csv(
                   temp_path("no_such_dir/history.csv"), ds.space(), obs),
               Error);
}

// -------------------------------------------------------------- env knobs

class DurabilityEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("HPB_EVAL_TIMEOUT_MS");
    unsetenv("HPB_JOURNAL");
    unsetenv("HPB_HANG_RATE");
    unsetenv("HPB_TRACE");
  }
};

TEST_F(DurabilityEnv, UnsetFallsBack) {
  unsetenv("HPB_EVAL_TIMEOUT_MS");
  unsetenv("HPB_JOURNAL");
  unsetenv("HPB_HANG_RATE");
  unsetenv("HPB_TRACE");
  EXPECT_EQ(eval::eval_timeout_ms_from_env(0), 0u);
  EXPECT_EQ(eval::eval_timeout_ms_from_env(250), 250u);
  EXPECT_TRUE(eval::journal_path_from_env().empty());
  EXPECT_TRUE(eval::trace_path_from_env().empty());
  EXPECT_EQ(tabular::hang_rate_from_env(0.25), 0.25);
}

TEST_F(DurabilityEnv, SetValuesParseStrictly) {
  setenv("HPB_EVAL_TIMEOUT_MS", "500", 1);
  EXPECT_EQ(eval::eval_timeout_ms_from_env(0), 500u);
  setenv("HPB_JOURNAL", "runs/session.hpbj", 1);
  EXPECT_EQ(eval::journal_path_from_env(), "runs/session.hpbj");
  setenv("HPB_TRACE", "runs/session.trace.jsonl", 1);
  EXPECT_EQ(eval::trace_path_from_env(), "runs/session.trace.jsonl");
  setenv("HPB_HANG_RATE", "0.125", 1);
  EXPECT_EQ(tabular::hang_rate_from_env(0.0), 0.125);
}

TEST_F(DurabilityEnv, GarbageIsRejected) {
  for (const char* bad : {"", "  ", "abc", "12abc", "1.5", "-3", "0"}) {
    setenv("HPB_EVAL_TIMEOUT_MS", bad, 1);
    EXPECT_THROW((void)eval::eval_timeout_ms_from_env(0), Error)
        << "HPB_EVAL_TIMEOUT_MS=\"" << bad << "\" should be rejected";
  }
  for (const char* bad : {"", "   ", "nope", "1.0", "-0.1"}) {
    setenv("HPB_HANG_RATE", bad, 1);
    EXPECT_THROW((void)tabular::hang_rate_from_env(0.0), Error)
        << "HPB_HANG_RATE=\"" << bad << "\" should be rejected";
  }
  setenv("HPB_JOURNAL", "   ", 1);
  EXPECT_THROW((void)eval::journal_path_from_env(), Error);
  setenv("HPB_TRACE", "   ", 1);
  EXPECT_THROW((void)eval::trace_path_from_env(), Error);
}

// ------------------------------------------------------------------ fuzz

/// The bytes of a real journaled session (mixed ok / failed records) to
/// mutate.
std::string valid_session_bytes() {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("fuzz_seed.hpbj");
  {
    JournalWriter journal =
        JournalWriter::create(path, make_header(ds, "hiperbot", 3, 24));
    tabular::FaultInjectingObjective faulty(
        ds, {.fail_rate = 0.15, .seed = 0xfa11});
    const TuningEngine engine({.batch_size = 3, .journal = &journal});
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    (void)engine.run(*tuner, faulty, 24);
  }
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// Whatever the reader salvages from a mutated file must be internally
/// consistent: a sane header, well-formed observations, and a valid_bytes
/// prefix that re-reads to the same contents and accepts appended rounds.
void expect_valid_salvage(const JournalContents& contents,
                          const std::string& mutated,
                          const std::string& path) {
  EXPECT_FALSE(contents.header.method.empty());
  EXPECT_GT(contents.header.num_params, 0u);
  EXPECT_GT(contents.header.batch_size, 0u);
  ASSERT_LE(contents.valid_bytes, mutated.size());
  for (const JournalEvent& event : contents.events) {
    if (event.kind == JournalEvent::Kind::kAsk) {
      EXPECT_GT(event.actual, 0u);
      EXPECT_LE(event.actual, event.requested);
    }
    for (const space::Configuration& c : event.configs) {
      EXPECT_EQ(c.size(), contents.header.num_params);
    }
    for (const core::AsyncResult& r : event.results) {
      if (r.ok()) {
        EXPECT_FALSE(std::isnan(r.y))
            << "reader accepted an ok record with a NaN objective";
      } else {
        EXPECT_NO_THROW((void)tabular::status_name(r.status));
      }
    }
  }
  // Truncating to the validated prefix must reproduce the salvage exactly —
  // that is the file JournalWriter::append will continue.
  spill(path, mutated.substr(0, contents.valid_bytes));
  const JournalContents again = core::read_journal(path);
  EXPECT_EQ(again.header.method, contents.header.method);
  EXPECT_EQ(again.header.num_params, contents.header.num_params);
  ASSERT_EQ(again.events.size(), contents.events.size());
  for (std::size_t e = 0; e < again.events.size(); ++e) {
    const JournalEvent& a = again.events[e];
    const JournalEvent& b = contents.events[e];
    EXPECT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
      EXPECT_EQ(a.configs[i].values(), b.configs[i].values());
    }
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].token, b.results[i].token);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.results[i].y),
                std::bit_cast<std::uint64_t>(b.results[i].y));
      EXPECT_EQ(a.results[i].status, b.results[i].status);
    }
  }
  EXPECT_EQ(again.valid_bytes, contents.valid_bytes);
  // And the salvaged prefix accepts a continued session.
  {
    JournalWriter writer = JournalWriter::append(path, again);
    writer.begin_round(1, 1);
    const Observation o{space::Configuration(std::vector<double>(
                            contents.header.num_params, 0.0)),
                        1.0, tabular::EvalStatus::kOk};
    writer.append_observations(std::span(&o, 1));
  }
  const JournalContents extended = core::read_journal(path);
  EXPECT_EQ(extended.num_asks(), contents.num_asks() + 1);
}

TEST(JournalFuzz, RandomByteMutationsNeverCrashOrAcceptCorruptRecords) {
  const std::string pristine = valid_session_bytes();
  ASSERT_GT(pristine.size(), 100u);
  const std::string path = temp_path("fuzz.hpbj");
  Rng rng(0xf022);
  std::size_t salvaged = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = pristine;
    const std::size_t edits = 1 + rng.index(4);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t at = rng.index(mutated.size());
      switch (rng.index(4)) {
        case 0:  // flip one byte
          mutated[at] = static_cast<char>(rng.next_u64() & 0xff);
          break;
        case 1:  // insert a random byte
          mutated.insert(at, 1, static_cast<char>(rng.next_u64() & 0xff));
          break;
        case 2:  // delete one byte
          mutated.erase(at, 1);
          break;
        case 3:  // tear the tail (crash mid-write)
          mutated.resize(at);
          break;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    spill(path, mutated);
    JournalContents contents;
    try {
      contents = core::read_journal(path);
    } catch (const Error&) {
      continue;  // rejecting the whole file is always a valid outcome
    }
    ++salvaged;
    expect_valid_salvage(contents, mutated, path);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // Most single-digit mutations land in the body, so the header usually
  // survives and the reader salvages a prefix instead of rejecting.
  EXPECT_GT(salvaged, kTrials / 4) << "fuzzer mostly hit the header; "
                                      "mutation mix needs rebalancing";
  std::remove(path.c_str());
}

TEST(JournalFuzz, AskCountThatWrapsTheLineLengthIsATornTail) {
  // 3 * 0xaaaaaaaaaaaaaaab wraps to 1, the number of values on the forged
  // line: the count must be refused before the reader indexes the line
  // for three values per configuration.
  auto ds = testutil::separable_dataset();
  ASSERT_EQ(ds.space().num_params(), 3u);
  const std::string path = temp_path("wrapping_ask.hpbj");
  JournalHeader header = make_header(ds, "random", 1, 4);
  header.async = true;
  { (void)JournalWriter::create(path, header); }
  const std::string bytes = slurp(path);
  spill(path, bytes + "ask 18446744073709551615 1 12297829382473034411 "
                      "3ff0000000000000\n");
  const JournalContents contents = core::read_journal(path);
  EXPECT_TRUE(contents.events.empty());
  EXPECT_EQ(contents.valid_bytes, bytes.size());
  std::remove(path.c_str());
}

TEST(JournalFuzz, AbandonedRoundCountThatWrapsTheTokensIsATornTail) {
  // No line backs an abandoned round's count, so the reader must size
  // nothing by it, and a count whose tokens run past the last one (token 1
  // plus 2^64 - 1) must not pass.
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("wrapping_round.hpbj");
  { (void)JournalWriter::create(path, make_header(ds, "random", 1, 4)); }
  const std::string bytes = slurp(path);
  spill(path, bytes + "round 0 18446744073709551615 18446744073709551615\n"
                      "abandon\n");
  const JournalContents contents = core::read_journal(path);
  EXPECT_TRUE(contents.events.empty());
  EXPECT_EQ(contents.valid_bytes, bytes.size());
  // A count that fits reads as one ask and one cancel of the whole range,
  // whatever its size.
  const std::string huge =
      bytes + "round 0 1000000000000 1000000000000\nabandon\n";
  spill(path, huge);
  const JournalContents fits = core::read_journal(path);
  ASSERT_EQ(fits.events.size(), 2u);
  EXPECT_EQ(fits.events[1].kind, JournalEvent::Kind::kCancel);
  EXPECT_EQ(fits.events[1].first_token, 1u);
  EXPECT_EQ(fits.events[1].actual, 1000000000000u);
  EXPECT_EQ(fits.valid_bytes, huge.size());
  std::remove(path.c_str());
}

TEST(JournalFuzz, OkRecordWithNaNObjectiveIsATornTail) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path("nonfinite.hpbj");
  {
    JournalWriter writer =
        JournalWriter::create(path, make_header(ds, "random", 1, 4));
    writer.begin_round(1, 1);
    const Observation o{ds.configs()[0], 2.0, tabular::EvalStatus::kOk};
    writer.append_observations(std::span(&o, 1));
  }
  std::string bytes = slurp(path);
  // Forge a second round whose ok record carries NaN bits.
  std::ostringstream forged;
  forged << "round 1 1 1\nobs ok 7ff8000000000000";
  for (std::size_t p = 0; p < ds.space().num_params(); ++p) {
    forged << " 3ff0000000000000";
  }
  forged << '\n';
  spill(path, bytes + forged.str());
  const JournalContents contents = core::read_journal(path);
  EXPECT_EQ(contents.num_asks(), 1u) << "NaN-valued ok record was "
                                        "accepted instead of dropped";
  EXPECT_EQ(contents.valid_bytes, bytes.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hpb
