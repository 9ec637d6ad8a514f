// Session / SessionManager coverage:
//   - the engine→session split is exact: a hand-driven Session produces
//     bitwise-identical results, journal bytes, and trace bytes to
//     TuningEngine::run over the same seed and FakeClock;
//   - Session verb misuse (double suggest, observe without a round,
//     count/order/foreign-config mismatches, close with a round in
//     flight, verbs after finish) throws without corrupting the session;
//   - per-observation stopping bookkeeping (target, stagnation) surfaces
//     through status();
//   - SessionManager lifecycle: create / duplicate / invalid names,
//     unknown sessions, close semantics, journal-on-disk collisions,
//     LRU eviction with resume-on-touch, per-session metrics scopes and
//     their pinned snapshot bytes;
//   - eviction/resume equivalence: a session force-evicted (and therefore
//     journal-replayed) at several points suggests the exact same
//     configuration sequence as one kept hot, for hiperbot / geist /
//     random;
//   - journal parent-directory errors are clear, and fs::ensure_dir
//     builds nested directories.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/engine.hpp"
#include "core/journal.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "core/stopping.hpp"
#include "eval/methods.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::EvalMeter;
using core::Observation;
using core::Session;
using core::SessionConfig;
using core::SessionManager;
using core::SessionManagerConfig;
using core::SessionSpec;
using core::SessionStatus;
using core::StopReason;
using core::TuneResult;
using core::TuningEngine;
using tabular::EvalStatus;

constexpr std::uint64_t kSeed = 0x5e5510;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "session_" + name;
}

/// Fresh (empty) directory under the test temp root.
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

/// NaN-safe bitwise comparison of two tuning results.
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
}

core::JournalHeader make_header(const tabular::TabularObjective& ds,
                                const std::string& method, std::size_t batch,
                                std::size_t budget) {
  core::JournalHeader h;
  h.method = method;
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = budget;
  return h;
}

/// SessionManager factory over the canned separable dataset (the spec's
/// dataset name is accepted verbatim — these tests exercise the manager,
/// not the dataset registry).
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

// ------------------------------------------------- engine/session identity

// The documented contract of the split: TuningEngine::run is nothing but a
// loop over Session::suggest / Session::observe plus objective evaluation.
// Reproduce that loop by hand against the public Session API and require
// the result, the journal bytes, and the trace bytes to match bit for bit.
TEST(SessionSplit, ManualSessionLoopMatchesEngineRunBitwise) {
  auto ds = testutil::separable_dataset();
  constexpr std::size_t kBudget = 26;  // deliberately not a batch multiple
  constexpr std::size_t kBatch = 4;

  const std::string engine_journal = temp_path("split_engine.hpbj");
  const std::string engine_trace = temp_path("split_engine.jsonl");
  TuneResult from_engine;
  {
    core::JournalWriter journal = core::JournalWriter::create(
        engine_journal, make_header(ds, "hiperbot", kBatch, kBudget));
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(engine_trace);
    const TuningEngine engine({.batch_size = kBatch,
                               .journal = &journal,
                               .recorder = {.trace = &sink, .clock = &clock}});
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    from_engine = engine.run(*tuner, ds, kBudget);
    sink.flush();
  }

  const std::string manual_journal = temp_path("split_manual.hpbj");
  const std::string manual_trace = temp_path("split_manual.jsonl");
  TuneResult from_session;
  {
    core::JournalWriter journal = core::JournalWriter::create(
        manual_journal, make_header(ds, "hiperbot", kBatch, kBudget));
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(manual_trace);
    const obs::Recorder recorder{.trace = &sink, .clock = &clock};
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    tuner->set_recorder(&recorder);
    Session session(*tuner,
                    {.batch_size = kBatch,
                     .recorder = recorder,
                     .stop = {.max_evaluations = kBudget}},
                    &journal);
    session.reserve(kBudget);
    while (session.evaluations() < kBudget) {
      const std::size_t k = std::min(kBatch, kBudget - session.evaluations());
      std::vector<space::Configuration> batch = session.suggest(k);
      std::vector<EvalMeter> meters(batch.size());
      std::vector<Observation> observations;
      observations.reserve(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        meters[i].start_ns = recorder.now_ns();
        const tabular::EvalResult r = ds.evaluate_result(batch[i]);
        meters[i].end_ns = recorder.now_ns();
        observations.push_back({std::move(batch[i]), r.value, r.status});
      }
      session.observe(std::move(observations), meters);
    }
    session.finish(StopReason::kBudgetExhausted);
    from_session = session.take_result();
    sink.flush();
  }

  expect_identical(from_engine, from_session);
  EXPECT_EQ(slurp(engine_journal), slurp(manual_journal));
  const std::string trace = slurp(engine_trace);
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace, slurp(manual_trace));
  for (const std::string& path :
       {engine_journal, engine_trace, manual_journal, manual_trace}) {
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------ session verb misuse

Session make_plain_session(std::unique_ptr<core::Tuner>& keep,
                           std::size_t batch = 2) {
  static auto ds = testutil::separable_dataset();
  keep = eval::make_named_tuner("random", ds, kSeed);
  return Session(*keep, {.batch_size = batch, .stop = {.max_evaluations = 40}});
}

std::vector<Observation> evaluate_all(
    const std::vector<space::Configuration>& batch) {
  std::vector<Observation> out;
  out.reserve(batch.size());
  for (const auto& c : batch) {
    out.push_back({c, testutil::separable_value(c), EvalStatus::kOk});
  }
  return out;
}

TEST(SessionErrors, SuggestWithRoundInFlightThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(session.round_in_flight());
  EXPECT_THROW((void)session.suggest(2), hpb::Error);
  // The pending round survives the failed verb.
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(SessionErrors, ObserveWithoutRoundThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto ds = testutil::separable_dataset();
  EXPECT_THROW(
      session.observe({{ds.configs()[0], 1.0, EvalStatus::kOk}}),
      hpb::Error);
}

TEST(SessionErrors, ObserveCountMismatchThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Observation> short_round = evaluate_all(batch);
  short_round.pop_back();
  EXPECT_THROW(session.observe(std::move(short_round)), hpb::Error);
  // Recoverable: deliver the full round after the client error.
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.status().pending, 0u);
}

TEST(SessionErrors, ObserveOutOfOrderThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  ASSERT_EQ(batch.size(), 2u);
  std::vector<Observation> swapped = evaluate_all(batch);
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(session.observe(std::move(swapped)), hpb::Error);
  session.observe(evaluate_all(batch));
  EXPECT_EQ(session.evaluations(), 2u);
}

TEST(SessionErrors, ObserveForeignConfigurationThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto ds = testutil::separable_dataset();
  auto batch = session.suggest(1);
  ASSERT_EQ(batch.size(), 1u);
  // Any configuration other than the suggested one is foreign.
  const auto& foreign =
      ds.configs()[batch[0].values() == ds.configs()[0].values() ? 1 : 0];
  EXPECT_THROW(
      session.observe({{foreign, 1.0, EvalStatus::kOk}}), hpb::Error);
}

TEST(SessionErrors, CloseWithRoundInFlightThrows) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  auto batch = session.suggest(2);
  EXPECT_THROW(session.close(), hpb::Error);
  session.observe(evaluate_all(batch));
  session.close();
  EXPECT_TRUE(session.finished());
}

TEST(SessionErrors, VerbsAfterFinishThrow) {
  std::unique_ptr<core::Tuner> tuner;
  Session session = make_plain_session(tuner);
  session.observe(evaluate_all(session.suggest(2)));
  session.finish(StopReason::kBudgetExhausted);
  EXPECT_TRUE(session.status().finished);
  EXPECT_THROW((void)session.suggest(1), hpb::Error);
  EXPECT_THROW(session.observe({}), hpb::Error);
  EXPECT_THROW(session.close(), hpb::Error);
}

// ---------------------------------------------------- stopping bookkeeping

TEST(SessionStopping, TargetReachedSurfacesThroughStatus) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.batch_size = 4,
                           .stop = {.max_evaluations = 200,
                                    .target_value = 1.0}});
  while (!session.stopped()) {
    ASSERT_LT(session.evaluations(), 200u);
    session.observe(evaluate_all(session.suggest(4)));
  }
  const SessionStatus st = session.status();
  EXPECT_TRUE(st.stopped);
  EXPECT_EQ(st.reason, StopReason::kTargetReached);
  EXPECT_DOUBLE_EQ(st.best_value, 1.0);
}

TEST(SessionStopping, StagnationPatienceSurfacesThroughStatus) {
  auto ds = testutil::separable_dataset();
  auto tuner = eval::make_named_tuner("random", ds, kSeed);
  Session session(*tuner, {.batch_size = 1,
                           .stop = {.max_evaluations = 1000,
                                    .stagnation_patience = 5}});
  while (!session.stopped() && session.evaluations() < 1000) {
    session.observe(evaluate_all(session.suggest(1)));
  }
  EXPECT_TRUE(session.stopped());
  EXPECT_EQ(session.stop_reason(), StopReason::kStagnation);
}

// ------------------------------------------------- manager lifecycle

SessionSpec spec_named(const std::string& name, const std::string& method,
                       std::size_t batch = 2) {
  SessionSpec spec;
  spec.name = name;
  spec.method = method;
  spec.dataset = "separable";
  spec.seed = kSeed;
  spec.batch_size = batch;
  spec.stop.max_evaluations = 64;
  return spec;
}

TEST(SessionManagerLifecycle, CreateSuggestObserveStatusClose) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_lifecycle")});
  manager.create(spec_named("run1", "random"));
  EXPECT_EQ(manager.resident_count(), 1u);
  EXPECT_EQ(manager.created_count(), 1u);

  auto batch = manager.suggest("run1", 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(manager.status("run1").pending, 2u);

  const SessionStatus st = manager.observe("run1", evaluate_all(batch));
  EXPECT_EQ(st.evaluations, 2u);
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_FALSE(st.best_config.empty());

  manager.close("run1");
  EXPECT_EQ(manager.resident_count(), 0u);
  EXPECT_EQ(manager.closed_count(), 1u);
  // The finalized journal still names the session: verbs and re-creation
  // both report it closed / taken.
  EXPECT_THROW((void)manager.status("run1"), hpb::Error);
  EXPECT_THROW(manager.close("run1"), hpb::Error);
  EXPECT_THROW(manager.create(spec_named("run1", "random")), hpb::Error);
}

TEST(SessionManagerLifecycle, InvalidNamesAndDuplicatesRejected) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_names")});
  const std::vector<std::string> bad_names = {
      "", ".", "..", "a/b", "a b", "ses*sion", std::string(129, 'x')};
  for (const std::string& bad : bad_names) {
    EXPECT_THROW(core::validate_session_name(bad), hpb::Error) << bad;
    EXPECT_THROW(manager.create(spec_named(bad, "random")), hpb::Error) << bad;
  }
  core::validate_session_name("ok-1.2_3");
  manager.create(spec_named("dup", "random"));
  EXPECT_THROW(manager.create(spec_named("dup", "random")), hpb::Error);
  EXPECT_THROW((void)manager.suggest("never-created", 1), hpb::Error);
}

TEST(SessionManagerLifecycle, EvictRefusesInFlightRounds) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_inflight")});
  manager.create(spec_named("busy", "random"));
  auto batch = manager.suggest("busy", 2);
  // An unobserved round pins the session hot: evicting would orphan it.
  EXPECT_FALSE(manager.evict("busy"));
  (void)manager.observe("busy", evaluate_all(batch));
  EXPECT_TRUE(manager.evict("busy"));
  EXPECT_EQ(manager.resident_count(), 0u);
  // Resume-on-touch brings it back with its history intact.
  EXPECT_EQ(manager.status("busy").evaluations, 2u);
  EXPECT_EQ(manager.resumed_count(), 1u);
}

TEST(SessionManagerLifecycle, JournallessManagerNeverEvicts) {
  SessionManager manager(test_factory(), {});
  manager.create(spec_named("mem", "random"));
  EXPECT_TRUE(manager.journal_path("mem").empty());
  (void)manager.observe("mem", evaluate_all(manager.suggest("mem", 2)));
  EXPECT_FALSE(manager.evict("mem"));  // nothing on disk to resume from
  manager.close("mem");
  // Without a journal, a closed name is forgotten and can be re-created.
  manager.create(spec_named("mem", "random"));
}

TEST(SessionManagerLifecycle, LruEvictionKeepsResidencyBounded) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_lru"),
                          .max_resident = 2,
                          .num_stripes = 1});
  for (int i = 0; i < 5; ++i) {
    const std::string name = "lru" + std::to_string(i);
    manager.create(spec_named(name, "random"));
    (void)manager.observe(name, evaluate_all(manager.suggest(name, 1)));
  }
  EXPECT_LE(manager.resident_count(), 2u);
  EXPECT_GE(manager.evicted_count(), 3u);
  // Touching the oldest (coldest) session resumes it transparently.
  EXPECT_EQ(manager.status("lru0").evaluations, 1u);
  EXPECT_GE(manager.resumed_count(), 1u);
  EXPECT_LE(manager.resident_count(), 2u);
}

TEST(SessionManagerLifecycle, PerSessionMetricsAreScoped) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_metrics")});
  manager.create(spec_named("two-rounds", "random"));
  manager.create(spec_named("one-round", "random"));
  for (int round = 0; round < 2; ++round) {
    (void)manager.observe("two-rounds",
                          evaluate_all(manager.suggest("two-rounds", 2)));
  }
  (void)manager.observe("one-round",
                        evaluate_all(manager.suggest("one-round", 2)));
  const std::string two = manager.session_metrics_json("two-rounds");
  const std::string one = manager.session_metrics_json("one-round");
  EXPECT_NE(two.find("engine.evaluations"), std::string::npos);
  EXPECT_NE(one.find("engine.evaluations"), std::string::npos);
  EXPECT_NE(two, one) << "sessions must not share a metrics registry";
}

// ------------------------------------------------ per-session metrics pin

/// A sync and an async managed HiPerBOt session with failures, a fitted
/// round and a cancel; returns both sessions' metrics snapshots. With
/// `evict_every_verb`, each session is evicted after every verb that
/// leaves it evictable (a sync round in flight pins it), so the next verb
/// resumes it from its journal.
std::pair<std::string, std::string> managed_metrics_snapshots(
    const std::string& dir_tag, bool evict_every_verb = false) {
  SessionManager manager(test_factory(), {.journal_dir = fresh_dir(dir_tag)});
  const auto verb_done = [&](const std::string& name) {
    if (evict_every_verb) {
      (void)manager.evict(name);
    }
  };
  const auto evaluate = [](std::vector<space::Configuration> batch,
                           std::size_t fail_every) {
    std::vector<Observation> out;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i % fail_every == fail_every - 1) {
        out.push_back({std::move(batch[i]), std::nan(""),
                       EvalStatus::kInvalid});
      } else {
        const double y = testutil::separable_value(batch[i]);
        out.push_back({std::move(batch[i]), y, EvalStatus::kOk});
      }
    }
    return out;
  };
  manager.create(spec_named("pin-sync", "hiperbot", 4));
  for (std::size_t round = 0; round < 8; ++round) {
    auto batch = manager.suggest("pin-sync", 4);
    verb_done("pin-sync");
    (void)manager.observe("pin-sync", evaluate(std::move(batch), 3));
    verb_done("pin-sync");
  }
  (void)manager.suggest("pin-sync", 4);
  verb_done("pin-sync");
  EXPECT_EQ(manager.cancel("pin-sync"), 4u);
  verb_done("pin-sync");

  SessionSpec async = spec_named("pin-async", "hiperbot", 4);
  async.mode = core::SessionMode::kAsync;
  manager.create(async);
  for (std::size_t step = 0; step < 12; ++step) {
    std::vector<core::AsyncResult> results;
    const auto asked = manager.suggest_async("pin-async", 4);
    verb_done("pin-async");
    for (const auto& s : asked) {
      const bool fail = results.size() == 2;
      results.push_back({s.token, fail ? EvalStatus::kCrashed : EvalStatus::kOk,
                         fail ? std::nan("")
                              : testutil::separable_value(s.config)});
    }
    const std::uint64_t straggler = results.back().token;
    results.pop_back();
    (void)manager.observe_async("pin-async", results);
    verb_done("pin-async");
    const std::uint64_t cancel[] = {straggler};
    EXPECT_EQ(manager.cancel("pin-async", cancel), 1u);
    verb_done("pin-async");
  }
  // The 18 sync verbs but their 9 suggests, and all 36 async verbs.
  EXPECT_EQ(manager.evicted_count(), evict_every_verb ? 9u + 36u : 0u);
  return {manager.session_metrics_json("pin-sync"),
          manager.session_metrics_json("pin-async")};
}

// Session metrics are looked up once per instrument and then kept; the
// snapshot a client reads must not change by a byte.
TEST(SessionManagerLifecycle, PerSessionMetricsSnapshotIsPinned) {
  const auto [sync, async] = managed_metrics_snapshots("mgr_metrics_pin");
  EXPECT_EQ(sync, R"json({
  "engine.best_value": {"type":"gauge","value":1},
  "engine.cancelled_rounds": {"type":"counter","value":1},
  "engine.eval_ms": {"type":"histogram","count":0,"sum":0,"buckets":[{"le":0.01,"count":0},{"le":0.05,"count":0},{"le":0.1,"count":0},{"le":0.5,"count":0},{"le":1,"count":0},{"le":5,"count":0},{"le":1e+01,"count":0},{"le":5e+01,"count":0},{"le":1e+02,"count":0},{"le":5e+02,"count":0},{"le":1e+03,"count":0},{"le":5e+03,"count":0},{"le":1e+04,"count":0},{"le":6e+04,"count":0},{"le":"inf","count":0}]},
  "engine.eval_retries": {"type":"counter","value":0},
  "engine.evaluations": {"type":"counter","value":32},
  "engine.failures": {"type":"counter","value":8},
  "engine.rounds": {"type":"counter","value":8},
  "hiperbot.acquisition_best": {"type":"gauge","value":0.5695161750211386},
  "hiperbot.bad_size": {"type":"gauge","value":28},
  "hiperbot.excluded": {"type":"gauge","value":36},
  "hiperbot.fits": {"type":"counter","value":2},
  "hiperbot.good_size": {"type":"gauge","value":4},
  "hiperbot.kde_bandwidth": {"type":"gauge","value":0},
  "hiperbot.sweeps": {"type":"counter","value":2},
  "hiperbot.threshold": {"type":"gauge","value":3}
}
)json");
  EXPECT_EQ(async, R"json({
  "engine.asks": {"type":"counter","value":12},
  "engine.best_value": {"type":"gauge","value":2},
  "engine.cancelled_tokens": {"type":"counter","value":12},
  "engine.evaluations": {"type":"counter","value":36},
  "engine.failures": {"type":"counter","value":12},
  "engine.outstanding": {"type":"gauge","value":0},
  "hiperbot.acquisition_best": {"type":"gauge","value":1.9510201078183962},
  "hiperbot.bad_size": {"type":"gauge","value":29},
  "hiperbot.excluded": {"type":"gauge","value":37},
  "hiperbot.fits": {"type":"counter","value":2},
  "hiperbot.good_size": {"type":"gauge","value":4},
  "hiperbot.kde_bandwidth": {"type":"gauge","value":0},
  "hiperbot.sweeps": {"type":"counter","value":2},
  "hiperbot.threshold": {"type":"gauge","value":4}
}
)json");
}

// A session's metrics outlive its evictions: the resume hands the evicted
// entry's registry to the rebuilt one, and the replay runs before the
// recorder is attached, so no journaled fit is counted twice.
TEST(SessionManagerLifecycle, PerSessionMetricsSurviveEveryEviction) {
  const auto [hot_sync, hot_async] = managed_metrics_snapshots("mgr_hot");
  const auto [sync, async] = managed_metrics_snapshots("mgr_evicted", true);
  EXPECT_EQ(sync, hot_sync);
  EXPECT_EQ(async, hot_async);
}

TEST(SessionManagerLifecycle, ClosingAnEvictedSessionDropsItsParkedMetrics) {
  // One stripe of one, and "busy"'s round in flight pins it: the close of
  // "closing" resumes it, and the close's own release evicts it again.
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir("mgr_close_parked"),
                          .max_resident = 1,
                          .num_stripes = 1});
  manager.create(spec_named("closing", "random"));
  std::vector<Observation> observations;
  for (auto& c : manager.suggest("closing", 2)) {
    const double y = testutil::separable_value(c);
    observations.push_back({std::move(c), y, EvalStatus::kOk});
  }
  (void)manager.observe("closing", std::move(observations));
  manager.create(spec_named("busy", "random"));
  (void)manager.suggest("busy", 2);
  ASSERT_EQ(manager.parked_count(), 1u);  // "closing", evicted by create
  manager.close("closing");
  EXPECT_EQ(manager.evicted_count(), 2u);
  EXPECT_EQ(manager.parked_count(), 0u);
  EXPECT_EQ(manager.resident_count(), 1u);
}

// ------------------------------------------- eviction/resume equivalence

/// Drive one managed session for `rounds` rounds of `batch`, force-evicting
/// it after each round listed in `evict_after` (journal replay rebuilds it
/// on the next verb). Returns every suggested configuration, flattened, and
/// the final best value.
struct DrivenRun {
  std::vector<std::vector<double>> suggested;
  double best = 0.0;
};

DrivenRun drive_managed(const std::string& method,
                        const std::set<std::size_t>& evict_after,
                        const std::string& dir_tag) {
  SessionManager manager(test_factory(),
                         {.journal_dir = fresh_dir(dir_tag)});
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kBatch = 2;
  SessionSpec spec = spec_named("equiv", method, kBatch);
  spec.stop.max_evaluations = kRounds * kBatch;
  manager.create(spec);
  DrivenRun run;
  for (std::size_t round = 0; round < kRounds; ++round) {
    auto batch = manager.suggest("equiv", kBatch);
    std::vector<Observation> observations;
    for (auto& c : batch) {
      run.suggested.push_back(c.values());
      // A sprinkling of client-side failures exercises the NaN replay path.
      if (run.suggested.size() % 5 == 0) {
        observations.push_back({std::move(c), std::nan(""),
                                EvalStatus::kInvalid});
      } else {
        const double y = testutil::separable_value(c);
        observations.push_back({std::move(c), y, EvalStatus::kOk});
      }
    }
    const SessionStatus st =
        manager.observe("equiv", std::move(observations));
    run.best = st.best_value;
    if (evict_after.count(round) != 0) {
      EXPECT_TRUE(manager.evict("equiv")) << method << " round " << round;
    }
  }
  EXPECT_EQ(manager.evicted_count(), evict_after.size());
  EXPECT_EQ(manager.resumed_count(), evict_after.size());
  return run;
}

void expect_same_run(const DrivenRun& a, const DrivenRun& b,
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

TEST(EvictionResumeEquivalence, ColdResumedSessionsSuggestIdenticalRuns) {
  for (const std::string method : {"hiperbot", "geist", "random"}) {
    const DrivenRun hot = drive_managed(method, {}, "equiv_" + method + "_hot");
    const DrivenRun early =
        drive_managed(method, {0}, "equiv_" + method + "_early");
    const DrivenRun mid =
        drive_managed(method, {3}, "equiv_" + method + "_mid");
    const DrivenRun thrash = drive_managed(
        method, {0, 1, 2, 3, 4, 5, 6}, "equiv_" + method + "_thrash");
    expect_same_run(hot, early, method + " evicted after round 0");
    expect_same_run(hot, mid, method + " evicted after round 3");
    expect_same_run(hot, thrash, method + " evicted after every round");
  }
}

// -------------------------------------------------- filesystem satellites

TEST(JournalPaths, MissingParentDirectoryIsACleanError) {
  const std::string dir = fresh_dir("no_such_parent");
  auto ds = testutil::separable_dataset();
  try {
    (void)core::JournalWriter::create(dir + "/sub/run.hpbj",
                                      make_header(ds, "random", 1, 4));
    FAIL() << "expected hpb::Error";
  } catch (const hpb::Error& e) {
    EXPECT_NE(std::string(e.what()).find("parent directory does not exist"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalPaths, EnsureDirBuildsNestedDirectories) {
  const std::string root = fresh_dir("ensure");
  const std::string nested = root + "/a/b/c";
  EXPECT_FALSE(fs::dir_exists(nested));
  fs::ensure_dir(nested);
  EXPECT_TRUE(fs::dir_exists(nested));
  fs::ensure_dir(nested);  // idempotent
  // A journal can be created under the new directory right away.
  auto ds = testutil::separable_dataset();
  (void)core::JournalWriter::create(nested + "/run.hpbj",
                                    make_header(ds, "random", 1, 4));
  // A path component that is a regular file is an error, not a silent
  // success.
  std::ofstream(root + "/file").put('x');
  EXPECT_THROW(fs::ensure_dir(root + "/file/sub"), hpb::Error);
}

}  // namespace
}  // namespace hpb
