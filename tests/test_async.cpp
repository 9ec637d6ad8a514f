// Asynchronous session coverage:
//   - determinism: the same fixed completion schedule (FakeClock, scripted
//     out-of-order completions) produces bitwise-identical suggestion
//     sequences and journal bytes across fresh runs;
//   - token discipline: out-of-order and partial observes succeed;
//     duplicate, already-resolved, and foreign tokens throw without
//     mutating the session (validate-all-before-mutate); an ok result with
//     a non-finite value is rejected;
//   - cancel semantics: cancel_async releases specific tokens or (empty
//     list) everything outstanding; close refuses while tokens are
//     outstanding; sync sessions un-wedge a stuck round with cancel_round
//     and both paths journal the abandonment for replay;
//   - cross-mode misuse: sync verbs on an async session (and vice versa),
//     and a replay of the other mode's journal, are clear errors;
//   - randomized fuzz: interleaved issue/complete/cancel with injected
//     duplicate and foreign tokens keeps the session consistent with a
//     shadow model (run under ASan/TSan by tools/check.sh);
//   - eviction/resume equivalence: an async session force-evicted with
//     tokens outstanding (journal-replayed, outstanding set restored)
//     suggests the exact same configurations as one kept hot; same for a
//     sync session evicted after a cancelled round.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/journal.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/clock.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::AsyncResult;
using core::AsyncSuggestion;
using core::Observation;
using core::Session;
using core::SessionManager;
using core::SessionMode;
using core::SessionSpec;
using core::SessionStatus;
using tabular::EvalStatus;

constexpr std::uint64_t kSeed = 0xa51c;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "async_" + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

core::JournalHeader async_header(const tabular::TabularObjective& ds,
                                 std::size_t batch) {
  core::JournalHeader h;
  h.method = "hiperbot";
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = 64;
  h.async = true;
  return h;
}

AsyncResult complete(const AsyncSuggestion& s) {
  return {s.token, EvalStatus::kOk, testutil::separable_value(s.config)};
}

/// Fresh async session over the separable dataset; `keep` owns the tuner.
Session make_async_session(std::unique_ptr<core::Tuner>& keep,
                           core::JournalWriter* journal = nullptr,
                           std::size_t batch = 2) {
  static auto ds = testutil::separable_dataset();
  keep = eval::make_named_tuner("hiperbot", ds, kSeed);
  return Session(*keep,
                 {.batch_size = batch,
                  .stop = {.max_evaluations = 64},
                  .mode = SessionMode::kAsync},
                 journal);
}

// ------------------------------------------------------------- determinism

/// One scripted run: issue/complete under a fixed out-of-order schedule
/// (newest-first completions, one straggler cancelled), with a FakeClock
/// recorder and a journal. Returns every suggested value sequence plus the
/// journal bytes.
struct ScriptedRun {
  std::vector<std::vector<double>> suggested;
  std::vector<std::uint64_t> tokens;
  std::string journal_bytes;
};

ScriptedRun run_fixed_schedule(const std::string& tag) {
  auto ds = testutil::separable_dataset();
  const std::string path = temp_path(tag + ".hpbj");
  std::remove(path.c_str());
  ScriptedRun run;
  {
    core::JournalWriter journal =
        core::JournalWriter::create(path, async_header(ds, 2));
    obs::FakeClock clock(1000, 10);
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    Session session(*tuner,
                    {.batch_size = 2,
                     .recorder = {.clock = &clock},
                     .stop = {.max_evaluations = 64},
                     .mode = SessionMode::kAsync},
                    &journal);
    std::deque<AsyncSuggestion> outstanding;
    const auto issue = [&](std::size_t k) {
      for (AsyncSuggestion& s : session.suggest_async(k)) {
        run.suggested.push_back(s.config.values());
        run.tokens.push_back(s.token);
        outstanding.push_back(std::move(s));
      }
    };
    // Scripted schedule: grow to 4 outstanding, then complete newest-first
    // (maximally out of order), refill, cancel the oldest straggler, drain.
    issue(4);
    for (int i = 0; i < 3; ++i) {
      const AsyncSuggestion s = outstanding.back();
      outstanding.pop_back();
      const AsyncResult r[] = {complete(s)};
      session.observe_async(r);
      issue(1);
    }
    const std::uint64_t straggler[] = {outstanding.front().token};
    outstanding.pop_front();
    EXPECT_EQ(session.cancel_async(straggler), 1u);
    while (!outstanding.empty()) {
      const AsyncSuggestion s = outstanding.back();
      outstanding.pop_back();
      const AsyncResult r[] = {complete(s)};
      session.observe_async(r);
    }
    EXPECT_EQ(session.status().pending, 0u);
    session.close();
  }
  run.journal_bytes = slurp(path);
  std::remove(path.c_str());
  return run;
}

TEST(AsyncDeterminism, FixedScheduleIsBitwiseReproducible) {
  const ScriptedRun a = run_fixed_schedule("det_a");
  const ScriptedRun b = run_fixed_schedule("det_b");
  ASSERT_EQ(a.suggested.size(), b.suggested.size());
  for (std::size_t i = 0; i < a.suggested.size(); ++i) {
    ASSERT_EQ(a.suggested[i].size(), b.suggested[i].size());
    for (std::size_t j = 0; j < a.suggested[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.suggested[i][j]),
                std::bit_cast<std::uint64_t>(b.suggested[i][j]))
          << "suggestion " << i << " diverges at value " << j;
    }
  }
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_FALSE(a.journal_bytes.empty());
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);
}

TEST(AsyncDeterminism, TokensAreDenseAndIssueOrdered) {
  const ScriptedRun run = run_fixed_schedule("det_tokens");
  for (std::size_t i = 0; i < run.tokens.size(); ++i) {
    EXPECT_EQ(run.tokens[i], i + 1) << "tokens must be dense from 1";
  }
}

// -------------------------------------------------------- token discipline

TEST(AsyncSession, OutOfOrderAndPartialObserveSucceeds) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(3);
  ASSERT_EQ(batch.size(), 3u);
  // Newest first, then a partial delivery of the remaining two.
  const AsyncResult last[] = {complete(batch[2])};
  session.observe_async(last);
  EXPECT_EQ(session.evaluations(), 1u);
  EXPECT_EQ(session.status().pending, 2u);
  const AsyncResult rest[] = {complete(batch[1]), complete(batch[0])};
  session.observe_async(rest);
  EXPECT_EQ(session.evaluations(), 3u);
  EXPECT_EQ(session.status().pending, 0u);
}

TEST(AsyncSession, SuggestNeverWaitsOnOutstandingTokens) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto first = session.suggest_async(2);
  const auto second = session.suggest_async(2);  // no observe in between
  EXPECT_EQ(session.status().pending, 4u);
  for (const auto& s : second) {
    EXPECT_GT(s.token, first.back().token);
  }
}

TEST(AsyncSession, DuplicateTokenInOneCallThrowsWithoutMutation) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(2);
  const AsyncResult dup[] = {complete(batch[0]), complete(batch[0])};
  EXPECT_THROW(session.observe_async(dup), hpb::Error);
  EXPECT_EQ(session.evaluations(), 0u);
  EXPECT_EQ(session.status().pending, 2u);
  // The batch is still deliverable after the failed call.
  const AsyncResult ok[] = {complete(batch[0]), complete(batch[1])};
  session.observe_async(ok);
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(AsyncSession, ResolvedAndForeignTokensThrowWithoutMutation) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(2);
  const AsyncResult first[] = {complete(batch[0])};
  session.observe_async(first);
  // Already resolved: the token is gone.
  EXPECT_THROW(session.observe_async(first), hpb::Error);
  // Foreign: never issued.
  const AsyncResult foreign[] = {{9999, EvalStatus::kOk, 1.0}};
  EXPECT_THROW(session.observe_async(foreign), hpb::Error);
  // A mixed call (one valid + one foreign) must not consume the valid one.
  const AsyncResult mixed[] = {complete(batch[1]),
                               {9999, EvalStatus::kOk, 1.0}};
  EXPECT_THROW(session.observe_async(mixed), hpb::Error);
  EXPECT_EQ(session.evaluations(), 1u);
  EXPECT_EQ(session.status().pending, 1u);
  const AsyncResult second[] = {complete(batch[1])};
  session.observe_async(second);
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(AsyncSession, NonFiniteOkValueIsRejected) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(1);
  const AsyncResult nan_ok[] = {{batch[0].token, EvalStatus::kOk,
                                 std::nan("")}};
  EXPECT_THROW(session.observe_async(nan_ok), hpb::Error);
  // The same token delivered as a failure (no finite value needed) is fine.
  const AsyncResult failed[] = {{batch[0].token, EvalStatus::kCrashed,
                                 std::nan("")}};
  session.observe_async(failed);
  EXPECT_EQ(session.status().num_failed, 1u);
}

TEST(AsyncSession, StatusReportsOutstandingTokensInIssueOrder) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(3);
  const AsyncResult mid[] = {complete(batch[1])};
  session.observe_async(mid);
  const SessionStatus st = session.status();
  EXPECT_TRUE(st.async);
  ASSERT_EQ(st.pending_tokens.size(), 2u);
  EXPECT_EQ(st.pending_tokens[0], batch[0].token);
  EXPECT_EQ(st.pending_tokens[1], batch[2].token);
}

// ------------------------------------------------------------------ cancel

TEST(AsyncSession, CancelSpecificTokensThenAll) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  const auto batch = session.suggest_async(4);
  EXPECT_THROW(session.close(), hpb::Error);  // outstanding tokens pin it
  const std::uint64_t one[] = {batch[1].token};
  EXPECT_EQ(session.cancel_async(one), 1u);
  EXPECT_EQ(session.status().pending, 3u);
  // Cancelling an already-cancelled (or foreign) token is an error.
  EXPECT_THROW((void)session.cancel_async(one), hpb::Error);
  // Empty list = cancel everything outstanding: the un-wedge path.
  EXPECT_EQ(session.cancel_async({}), 3u);
  EXPECT_EQ(session.status().pending, 0u);
  session.close();
  EXPECT_TRUE(session.finished());
}

TEST(SyncSession, CancelRoundReleasesAStuckRound) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  Session session(*tuner,
                  {.batch_size = 2, .stop = {.max_evaluations = 64}});
  auto batch = session.suggest(2);
  EXPECT_TRUE(session.round_in_flight());
  EXPECT_THROW(session.close(), hpb::Error);  // wedged: client died here
  EXPECT_EQ(session.cancel_round(), 2u);
  EXPECT_FALSE(session.round_in_flight());
  // The session keeps working: a new round can be suggested and observed.
  batch = session.suggest(2);
  std::vector<Observation> obs;
  for (auto& c : batch) {
    obs.push_back({c, testutil::separable_value(c), EvalStatus::kOk});
  }
  session.observe(std::move(obs));
  EXPECT_EQ(session.evaluations(), 2u);
  // Nothing to cancel is an error, not a silent zero.
  EXPECT_THROW((void)session.cancel_round(), hpb::Error);
  session.close();
}

// ------------------------------------------------------- cross-mode misuse

TEST(CrossMode, SyncVerbsOnAsyncSessionThrow) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  EXPECT_THROW((void)session.suggest(1), hpb::Error);
  EXPECT_THROW(session.observe({}), hpb::Error);
  EXPECT_THROW((void)session.cancel_round(), hpb::Error);
  // The failed sync verbs did not disturb the async side.
  const auto batch = session.suggest_async(1);
  EXPECT_EQ(batch.size(), 1u);
}

TEST(CrossMode, AsyncVerbsOnSyncSessionThrow) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.batch_size = 2, .stop = {.max_evaluations = 8}});
  EXPECT_THROW((void)session.suggest_async(1), hpb::Error);
  EXPECT_THROW(session.observe_async({}), hpb::Error);
  EXPECT_THROW((void)session.cancel_async({}), hpb::Error);
}

TEST(CrossMode, ReplayRefusesTheOtherModesJournal) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session sync(*tuner, {.batch_size = 2, .stop = {.max_evaluations = 8}});
  core::ReplayResult from_async;
  from_async.async = true;
  EXPECT_THROW(sync.replay(from_async), hpb::Error);
  std::unique_ptr<core::Tuner> keep;
  Session async = make_async_session(keep);
  EXPECT_THROW(async.replay(core::ReplayResult{}), hpb::Error);
  // Neither refusal touched the session.
  EXPECT_EQ(sync.suggest(2).size(), 2u);
  EXPECT_EQ(async.suggest_async(1).size(), 1u);
}

// ---------------------------------------------------------------- fuzzing

// Interleaved issue/complete/cancel under a seeded Rng, with duplicate and
// foreign tokens injected; a shadow set of outstanding tokens must agree
// with the session at every step. tools/check.sh runs this under both
// ASan and TSan.
TEST(AsyncFuzz, RandomizedCompletionOrderKeepsStateConsistent) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_async_session(tuner);
  Rng rng(0xf0220);
  std::vector<AsyncSuggestion> outstanding;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  // The separable pool holds only 60 configurations; cap issuance so the
  // finite tuner never runs dry mid-fuzz.
  constexpr std::size_t kMaxIssued = 48;
  std::size_t issued = 0;
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t action = rng.index(10);
    const bool can_issue = issued < kMaxIssued;
    if ((action < 4 || outstanding.empty()) && can_issue) {
      const std::size_t k =
          std::min<std::size_t>(1 + rng.index(3), kMaxIssued - issued);
      for (AsyncSuggestion& s : session.suggest_async(k)) {
        outstanding.push_back(std::move(s));
        ++issued;
      }
    } else if (outstanding.empty()) {
      break;  // pool cap reached and nothing left to complete
    } else if (action < 8) {
      // Complete a uniformly random outstanding token; one in five fails.
      const std::size_t pick = rng.index(outstanding.size());
      const AsyncSuggestion s = outstanding[pick];
      outstanding.erase(outstanding.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      if (rng.index(5) == 0) {
        const AsyncResult r[] = {{s.token, EvalStatus::kTimeout,
                                  std::nan("")}};
        session.observe_async(r);
        ++failed;
      } else {
        const AsyncResult r[] = {complete(s)};
        session.observe_async(r);
      }
      ++completed;
    } else if (action == 8) {
      const std::size_t pick = rng.index(outstanding.size());
      const std::uint64_t t[] = {outstanding[pick].token};
      outstanding.erase(outstanding.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      EXPECT_EQ(session.cancel_async(t), 1u);
      ++cancelled;
    } else {
      // Hostile input: a foreign token, and (when possible) a duplicate
      // pair in one call. Both must throw and leave the state untouched.
      const AsyncResult foreign[] = {{1u << 20, EvalStatus::kOk, 1.0}};
      EXPECT_THROW(session.observe_async(foreign), hpb::Error);
      if (!outstanding.empty()) {
        const AsyncResult dup[] = {complete(outstanding[0]),
                                   complete(outstanding[0])};
        EXPECT_THROW(session.observe_async(dup), hpb::Error);
      }
    }
    const SessionStatus st = session.status();
    ASSERT_EQ(st.pending, outstanding.size()) << "step " << step;
    ASSERT_EQ(st.evaluations, completed) << "step " << step;
  }
  EXPECT_EQ(session.cancel_async({}), outstanding.size());
  EXPECT_EQ(session.status().num_failed, failed);
  EXPECT_GT(cancelled, 0u);
  session.close();
}

// ------------------------------------------- eviction/resume equivalence

core::SessionFactory test_factory() {
  auto dataset = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return [dataset](const SessionSpec& spec) {
    core::SessionBackend backend;
    backend.tuner = eval::make_named_tuner(spec.method, *dataset, spec.seed);
    backend.space = dataset->space_ptr();
    return backend;
  };
}

SessionSpec async_spec(const std::string& name) {
  SessionSpec spec;
  spec.name = name;
  spec.method = "hiperbot";
  spec.dataset = "separable";
  spec.seed = kSeed;
  spec.batch_size = 2;
  spec.stop.max_evaluations = 64;
  spec.mode = SessionMode::kAsync;
  return spec;
}

struct AsyncDriven {
  std::vector<std::vector<double>> suggested;
  double best = 0.0;
};

/// Fixed async schedule against a managed session: each step issues two
/// tokens and completes only the newest outstanding one (so the backlog —
/// and the pending-liar mass — grows), with one mid-run cancel and a
/// sprinkling of failures; evictions happen with tokens outstanding, so
/// resume must restore the outstanding set from the journal.
AsyncDriven drive_async_managed(const std::set<std::size_t>& evict_after,
                                const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  manager.create(async_spec("aequiv"));
  AsyncDriven run;
  std::deque<AsyncSuggestion> outstanding;
  std::size_t deliveries = 0;
  for (std::size_t step = 0; step < 6; ++step) {
    for (AsyncSuggestion& s : manager.suggest_async("aequiv", 2)) {
      run.suggested.push_back(s.config.values());
      outstanding.push_back(std::move(s));
    }
    const AsyncSuggestion s = outstanding.back();
    outstanding.pop_back();
    ++deliveries;
    const AsyncResult r[] = {
        deliveries % 4 == 0
            ? AsyncResult{s.token, EvalStatus::kCrashed, std::nan("")}
            : complete(s)};
    (void)manager.observe_async("aequiv", r);
    if (step == 3) {
      const std::uint64_t t[] = {outstanding.front().token};
      outstanding.pop_front();
      EXPECT_EQ(manager.cancel("aequiv", t), 1u);
    }
    if (evict_after.count(step) != 0) {
      EXPECT_TRUE(manager.evict("aequiv")) << "step " << step;
    }
  }
  while (!outstanding.empty()) {
    const AsyncSuggestion s = outstanding.back();
    outstanding.pop_back();
    const AsyncResult r[] = {complete(s)};
    run.best = manager.observe_async("aequiv", r).best_value;
  }
  EXPECT_EQ(manager.evicted_count(), evict_after.size());
  EXPECT_EQ(manager.resumed_count(), evict_after.size());
  return run;
}

void expect_same_async_run(const AsyncDriven& a, const AsyncDriven& b,
                           const std::string& label) {
  ASSERT_EQ(a.suggested.size(), b.suggested.size()) << label;
  for (std::size_t i = 0; i < a.suggested.size(); ++i) {
    ASSERT_EQ(a.suggested[i].size(), b.suggested[i].size()) << label;
    for (std::size_t j = 0; j < a.suggested[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.suggested[i][j]),
                std::bit_cast<std::uint64_t>(b.suggested[i][j]))
          << label << ": suggestion " << i << " diverges at value " << j;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best),
            std::bit_cast<std::uint64_t>(b.best))
      << label;
}

TEST(AsyncEvictionResume, EvictedWithOutstandingTokensMatchesHotBitwise) {
  const AsyncDriven hot = drive_async_managed({}, "aequiv_hot");
  const AsyncDriven early = drive_async_managed({0}, "aequiv_early");
  const AsyncDriven after_cancel = drive_async_managed({3}, "aequiv_mid");
  const AsyncDriven thrash =
      drive_async_managed({0, 1, 2, 3, 4}, "aequiv_thrash");
  expect_same_async_run(hot, early, "evicted after step 0");
  expect_same_async_run(hot, after_cancel, "evicted after the cancel step");
  expect_same_async_run(hot, thrash, "evicted after every step");
}

/// Sync equivalence across an abandoned round: round 1 observed, round 2
/// suggested then cancelled (the journal records the abandonment), rounds
/// 3-4 observed; the journal replay after an eviction must walk the same
/// path.
std::vector<std::vector<double>> drive_sync_with_cancel(
    bool evict_after_cancel, const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  SessionSpec spec = async_spec("sequiv");
  spec.mode = SessionMode::kSync;
  manager.create(spec);
  std::vector<std::vector<double>> suggested;
  const auto observe_round = [&] {
    auto batch = manager.suggest("sequiv", 2);
    std::vector<Observation> obs;
    for (auto& c : batch) {
      suggested.push_back(c.values());
      const double y = testutil::separable_value(c);
      obs.push_back({std::move(c), y, EvalStatus::kOk});
    }
    (void)manager.observe("sequiv", std::move(obs));
  };
  observe_round();
  for (const auto& c : manager.suggest("sequiv", 2)) {
    suggested.push_back(c.values());
  }
  EXPECT_EQ(manager.cancel("sequiv"), 2u);  // un-wedge the stuck round
  if (evict_after_cancel) {
    EXPECT_TRUE(manager.evict("sequiv"));
  }
  observe_round();
  observe_round();
  return suggested;
}

TEST(SyncCancelResume, AbandonedRoundReplaysBitwise) {
  const auto hot = drive_sync_with_cancel(false, "sequiv_hot");
  const auto resumed = drive_sync_with_cancel(true, "sequiv_resumed");
  ASSERT_EQ(hot.size(), resumed.size());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    ASSERT_EQ(hot[i].size(), resumed[i].size());
    for (std::size_t j = 0; j < hot[i].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hot[i][j]),
                std::bit_cast<std::uint64_t>(resumed[i][j]))
          << "suggestion " << i << " diverges at value " << j;
    }
  }
}

// Closing an async managed session with tokens outstanding is refused;
// cancelling them (empty token list) un-wedges it for a clean close.
TEST(AsyncManaged, CloseRequiresDrainOrCancel) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("aclose")});
  manager.create(async_spec("stuck"));
  (void)manager.suggest_async("stuck", 3);
  EXPECT_THROW(manager.close("stuck"), hpb::Error);
  EXPECT_EQ(manager.cancel("stuck", {}), 3u);
  manager.close("stuck");
  EXPECT_EQ(manager.closed_count(), 1u);
}

}  // namespace
}  // namespace hpb
