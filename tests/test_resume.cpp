// Resume cost and fidelity:
//   - replaying a pooled-Ranking HiPerBOt journal adopts every journaled
//     batch past the initial design but the last (Tuner::adopt_batch), so
//     a 30-round batch-2 resume fits once instead of 20 times, sync and
//     async, and the resumed tuner continues exactly like the tuner that
//     wrote the journal;
//   - the divergence check stands: a wrong seed, a last round edited to
//     another valid configuration, and a middle round edited to an
//     evaluated one all fail the replay;
//   - every batch a tuner cannot vouch for is still re-suggested:
//     abandoned rounds, streamed Ranking, Proposal, GEIST and random keep
//     one suggest per journaled batch;
//   - a traced managed session resumed after evictions writes the same
//     trace as an uninterrupted one under a FakeClock;
//   - every tuner over one dataset holds the dataset's candidate pool, and
//     concurrent first fits build one column mirror between them.
#include <gtest/gtest.h>

#include <barrier>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "core/journal.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/factory.hpp"

namespace hpb {
namespace {

using core::Observation;
using tabular::EvalStatus;

constexpr std::uint64_t kSeed = 0x2e5e3e;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "resume_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

tabular::TabularObjective kripke() {
  return apps::dataset_by_name("kripke").make();
}

/// Forwards every call to a wrapped tuner, counting suggest_batch calls and
/// adopted batches. With `forward_adopt` false it declines every batch, as
/// a wrapper written before the hook does: the replay of old.
class CountingTuner final : public core::Tuner {
 public:
  CountingTuner(core::Tuner& inner, bool forward_adopt)
      : inner_(inner), forward_adopt_(forward_adopt) {}

  [[nodiscard]] space::Configuration suggest() override {
    return inner_.suggest();
  }
  [[nodiscard]] std::vector<space::Configuration> suggest_batch(
      std::size_t k) override {
    ++suggests;
    return inner_.suggest_batch(k);
  }
  [[nodiscard]] bool adopt_batch(
      std::size_t requested,
      std::span<const space::Configuration> batch) override {
    if (!forward_adopt_ || !inner_.adopt_batch(requested, batch)) {
      return false;
    }
    ++adopted;
    return true;
  }
  void observe(const space::Configuration& config, double y) override {
    inner_.observe(config, y);
  }
  void observe_failure(const space::Configuration& config,
                       EvalStatus status) override {
    inner_.observe_failure(config, status);
  }
  void abandon(const space::Configuration& config) override {
    inner_.abandon(config);
  }
  void observe_batch(std::span<const Observation> observations) override {
    inner_.observe_batch(observations);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::size_t suggests = 0;
  std::size_t adopted = 0;

 private:
  core::Tuner& inner_;
  bool forward_adopt_;
};

core::JournalHeader header_for(const tabular::TabularObjective& ds,
                               std::size_t batch, std::size_t budget,
                               bool async = false) {
  core::JournalHeader h;
  h.method = "hiperbot";
  h.dataset = ds.name();
  h.seed = kSeed;
  h.batch_size = batch;
  h.num_params = ds.space().num_params();
  h.max_evaluations = budget;
  h.async = async;
  return h;
}

/// Journal `rounds` engine rounds of `batch` by `tuner` on `ds`.
core::JournalContents journal_run(core::Tuner& tuner,
                                  tabular::TabularObjective& ds,
                                  const std::string& name, std::size_t batch,
                                  std::size_t rounds) {
  const std::string path = temp_path(name);
  {
    core::JournalWriter writer = core::JournalWriter::create(
        path, header_for(ds, batch, batch * rounds));
    const core::TuningEngine engine({.batch_size = batch, .journal = &writer});
    (void)engine.run(tuner, ds, batch * rounds);
  }
  core::JournalContents contents = core::read_journal(path);
  EXPECT_EQ(contents.num_asks(), rounds);
  return contents;
}

/// The configurations of round `r`'s ask, the one place the journal holds
/// them and the batch the replay compares.
std::vector<space::Configuration>& round_configs(
    core::JournalContents& contents, std::size_t r) {
  for (core::JournalEvent& event : contents.events) {
    if (event.kind == core::JournalEvent::Kind::kAsk && r-- == 0) {
      return event.configs;
    }
  }
  throw std::out_of_range("the journal has fewer rounds");
}

/// A fresh default HiPerBOt replayed through `contents` behind a counting
/// wrapper, with `metrics` installed for the replay only.
struct Replayed {
  std::unique_ptr<core::Tuner> tuner;
  std::size_t suggests = 0;
  std::size_t adopted = 0;
  std::uint64_t fits = 0;
};

Replayed replay_counted(const tabular::TabularObjective& ds,
                        const core::JournalContents& contents,
                        bool forward_adopt) {
  Replayed out;
  out.tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  obs::MetricsRegistry metrics;
  const obs::Recorder recorder{.metrics = &metrics};
  out.tuner->set_recorder(&recorder);
  CountingTuner counting(*out.tuner, forward_adopt);
  (void)core::replay_journal(counting, ds.space(), contents);
  out.tuner->set_recorder(nullptr);
  out.suggests = counting.suggests;
  out.adopted = counting.adopted;
  out.fits = metrics.counter("hiperbot.fits").value();
  return out;
}

void expect_same_batch(const std::vector<space::Configuration>& a,
                       const std::vector<space::Configuration>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].values(), b[i].values()) << "member " << i;
  }
}

// ------------------------------------------------------ adopted replay

TEST(AdoptedReplay, SyncResumeOfPooledHiperbotFitsOnce) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  const core::JournalContents contents =
      journal_run(*source, ds, "sync_fits.hpbj", 2, 30);

  // 20 initial samples at batch 2 fill rounds 0-9; rounds 10-29 are fitted.
  const Replayed adopted = replay_counted(ds, contents, true);
  EXPECT_EQ(adopted.fits, 1u);
  EXPECT_EQ(adopted.adopted, 19u);
  EXPECT_EQ(adopted.suggests, 11u);
  const Replayed resuggested = replay_counted(ds, contents, false);
  EXPECT_EQ(resuggested.fits, 20u);
  EXPECT_EQ(resuggested.suggests, 30u);

  // Both replays rebuilt the state of the tuner that wrote the journal.
  const auto next = source->suggest_batch(2);
  expect_same_batch(next, adopted.tuner->suggest_batch(2));
  expect_same_batch(next, resuggested.tuner->suggest_batch(2));
}

TEST(AdoptedReplay, AsyncResumeOfPooledHiperbotFitsOnce) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  const std::string path = temp_path("async_fits.hpbj");
  {
    core::JournalWriter writer =
        core::JournalWriter::create(path, header_for(ds, 2, 60, true));
    core::Session session(*source,
                          {.batch_size = 2, .mode = core::SessionMode::kAsync},
                          &writer);
    // Every ask leaves its newer token outstanding one step longer, so the
    // fits carry liar mass; every fifth completion fails and one straggler
    // is cancelled.
    std::vector<std::uint64_t> held;
    std::size_t completions = 0;
    for (std::size_t step = 0; step < 30; ++step) {
      std::vector<core::AsyncResult> results;
      for (const core::AsyncSuggestion& s : session.suggest_async(2)) {
        if (held.size() < 1) {
          held.push_back(s.token);
          continue;
        }
        const bool fail = ++completions % 5 == 0;
        results.push_back({s.token, fail ? EvalStatus::kCrashed : EvalStatus::kOk,
                           fail ? std::nan("") : ds.value_of(s.config)});
      }
      (void)session.observe_async(results);
      if (step == 12) {
        EXPECT_EQ(session.cancel_async(held), 1u);
        held.clear();
      }
    }
  }
  const core::JournalContents contents = core::read_journal(path);
  ASSERT_TRUE(contents.header.async);

  const Replayed adopted = replay_counted(ds, contents, true);
  const Replayed resuggested = replay_counted(ds, contents, false);
  EXPECT_EQ(adopted.fits, 1u);
  EXPECT_GT(resuggested.fits, 10u);
  EXPECT_EQ(adopted.adopted + 1, resuggested.fits);
  EXPECT_EQ(resuggested.suggests, 30u);

  const auto next = source->suggest_batch(2);
  expect_same_batch(next, adopted.tuner->suggest_batch(2));
  expect_same_batch(next, resuggested.tuner->suggest_batch(2));
}

TEST(AdoptedReplay, WrongSeedStillThrows) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  const core::JournalContents contents =
      journal_run(*source, ds, "wrong_seed.hpbj", 2, 30);
  auto wrong = eval::make_named_tuner("hiperbot", ds, kSeed + 1);
  EXPECT_THROW((void)core::replay_journal(*wrong, ds.space(), contents),
               Error);
}

TEST(AdoptedReplay, EditedLastRoundIsReSuggestedAndThrows) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  core::JournalContents contents =
      journal_run(*source, ds, "edited_last.hpbj", 2, 30);
  // Another valid configuration no round ever evaluated.
  std::set<std::vector<double>> evaluated;
  for (const core::JournalEvent& event : contents.events) {
    for (const space::Configuration& c : event.configs) {
      evaluated.insert(c.values());
    }
  }
  const space::Configuration* fresh = nullptr;
  for (const space::Configuration& c : ds.configs()) {
    if (!evaluated.contains(c.values())) {
      fresh = &c;
      break;
    }
  }
  ASSERT_NE(fresh, nullptr);
  round_configs(contents, 29)[0] = *fresh;

  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  try {
    (void)core::replay_journal(*tuner, ds.space(), contents);
    FAIL() << "an edited last round must fail the replay";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("round 29"), std::string::npos)
        << e.what();
  }
}

TEST(AdoptedReplay, EditedMiddleRoundFallsBackAndThrows) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  core::JournalContents contents =
      journal_run(*source, ds, "edited_middle.hpbj", 2, 30);
  // Round 15 claims a configuration round 3 already evaluated: adoption
  // refuses it, and the re-suggest at round 15 disagrees with the journal.
  round_configs(contents, 15)[0] = round_configs(contents, 3)[0];

  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  CountingTuner counting(*tuner, true);
  try {
    (void)core::replay_journal(counting, ds.space(), contents);
    FAIL() << "an edited middle round must fail the replay";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("round 15"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counting.adopted, 5u);    // rounds 10-14
  EXPECT_EQ(counting.suggests, 11u);  // rounds 0-9, then round 15
}

/// Replays `contents` into `tuner` behind a counting wrapper; returns
/// {suggest_batch calls, adopted batches}.
std::pair<std::size_t, std::size_t> replay_counts(
    core::Tuner& tuner, const tabular::TabularObjective& ds,
    const core::JournalContents& contents) {
  CountingTuner counting(tuner, true);
  (void)core::replay_journal(counting, ds.space(), contents);
  return {counting.suggests, counting.adopted};
}

TEST(AdoptedReplay, TunersThatDrawKeepOneSuggestPerRound) {
  auto ds = kripke();
  core::HiPerBOtConfig streamed;
  streamed.initial_samples = 4;
  streamed.sweep_source = core::SweepSource::kStreamed;
  core::HiPerBOtConfig proposal;
  proposal.initial_samples = 4;
  proposal.strategy = core::SelectionStrategy::kProposal;
  const auto make = [&](const std::string& which)
      -> std::unique_ptr<core::Tuner> {
    if (which == "streamed") {
      return std::make_unique<core::HiPerBOt>(ds.space_ptr(), streamed, kSeed);
    }
    if (which == "proposal") {
      return std::make_unique<core::HiPerBOt>(ds.space_ptr(), proposal,
                                              kSeed);
    }
    return eval::make_named_tuner(which, ds, kSeed);
  };
  for (const std::string which : {"streamed", "proposal", "geist", "random"}) {
    SCOPED_TRACE(which);
    auto source = make(which);
    const core::JournalContents contents =
        journal_run(*source, ds, which + ".hpbj", 2, 12);
    auto tuner = make(which);
    const auto [suggests, adopted] = replay_counts(*tuner, ds, contents);
    EXPECT_EQ(suggests, 12u);
    EXPECT_EQ(adopted, 0u);
    expect_same_batch(source->suggest_batch(2), tuner->suggest_batch(2));
  }
}

TEST(AdoptedReplay, AbandonedRoundsAreStillReSuggested) {
  auto ds = kripke();
  auto source = eval::make_named_tuner("hiperbot", ds, kSeed);
  const std::string path = temp_path("abandoned.hpbj");
  {
    core::JournalWriter writer =
        core::JournalWriter::create(path, header_for(ds, 4, 64));
    core::Session session(*source, {.batch_size = 4}, &writer);
    // Rounds 0-4 are the initial design; from round 5 on every third
    // round is cancelled whole.
    for (std::size_t round = 0; round < 14; ++round) {
      std::vector<space::Configuration> batch = session.suggest(4);
      if (round >= 5 && round % 3 == 0) {
        EXPECT_EQ(session.cancel_round(), 4u);
        continue;
      }
      std::vector<Observation> observations;
      for (space::Configuration& c : batch) {
        const double y = ds.value_of(c);
        observations.push_back({std::move(c), y, EvalStatus::kOk});
      }
      session.observe(std::move(observations));
    }
  }
  const core::JournalContents contents = core::read_journal(path);
  ASSERT_EQ(contents.num_asks(), 14u);
  auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  const auto [suggests, adopted] = replay_counts(*tuner, ds, contents);
  // Rounds 6, 9 and 12 were abandoned; fitted rounds 5, 7, 8, 10, 11 are
  // adopted and round 13, the last, is re-suggested.
  EXPECT_EQ(suggests, 5u + 3u + 1u);
  EXPECT_EQ(adopted, 5u);
  expect_same_batch(source->suggest_batch(4), tuner->suggest_batch(4));
}

// ------------------------------------------------------ resumed traces

/// A managed kripke session over the daemon's own factory, traced into a
/// JSON-lines file under a FakeClock, driven for 16 rounds of 2. After
/// rounds 3 (inside the initial design), 11 and 13 (fitted, the last time
/// with one adoptable round to replay) the session is either evicted, and
/// resumed by its next verb, or left resident while the manager emits two
/// checkpoint spans. Each manager span takes one span id and one clock
/// tick, so the two runs line up id for id and tick for tick, and their
/// traces differ only in the names of those two spans. Returns the trace.
std::string traced_managed_run(core::SessionMode mode, bool evict,
                               const std::string& tag) {
  const std::string dir = temp_path(tag);
  std::filesystem::remove_all(dir);
  const std::string trace_path = temp_path(tag + ".jsonl");
  {
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(trace_path);
    core::SessionManager manager(
        service::dataset_session_factory(),
        {.journal_dir = dir, .recorder = {.trace = &sink, .clock = &clock}});
    core::SessionSpec spec;
    spec.name = "traced";
    spec.dataset = "kripke";
    spec.seed = kSeed;
    spec.batch_size = 2;
    spec.stop.max_evaluations = 64;
    spec.mode = mode;
    manager.create(spec);
    const auto table = kripke();
    for (std::size_t round = 0; round < 16; ++round) {
      if (mode == core::SessionMode::kAsync) {
        std::vector<core::AsyncResult> results;
        for (const auto& s : manager.suggest_async("traced", 2)) {
          results.push_back({s.token, EvalStatus::kOk, table.value_of(s.config)});
        }
        (void)manager.observe_async("traced", results);
      } else {
        std::vector<Observation> observations;
        for (auto& c : manager.suggest("traced", 2)) {
          const double y = table.value_of(c);
          observations.push_back({std::move(c), y, EvalStatus::kOk});
        }
        (void)manager.observe("traced", std::move(observations));
      }
      if (round != 3 && round != 11 && round != 13) {
        continue;
      }
      if (evict) {
        EXPECT_TRUE(manager.evict("traced"));
      } else {
        EXPECT_EQ(manager.checkpoint_all(), 1u);
        EXPECT_EQ(manager.checkpoint_all(), 1u);
      }
    }
    EXPECT_EQ(manager.resumed_count(), evict ? 3u : 0u);
    sink.flush();
  }
  std::string trace = slurp(trace_path);
  std::filesystem::remove_all(dir);
  std::remove(trace_path.c_str());
  return trace;
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

TEST(ResumedTrace, ManagedResumeWritesTheUninterruptedTrace) {
  for (const core::SessionMode mode :
       {core::SessionMode::kSync, core::SessionMode::kAsync}) {
    const bool async = mode == core::SessionMode::kAsync;
    SCOPED_TRACE(async ? "async" : "sync");
    const std::string tag = async ? "trace_async" : "trace_sync";
    const std::string hot = traced_managed_run(mode, false, tag + "_hot");
    const std::string resumed =
        traced_managed_run(mode, true, tag + "_resumed");
    ASSERT_NE(hot.find("hiperbot.sweep"), std::string::npos);
    std::string mapped = replace_all(resumed, "\"session.evict\"",
                                     "\"manager.checkpoint\"");
    mapped = replace_all(mapped, "\"session.resume\"",
                         "\"manager.checkpoint\"");
    EXPECT_NE(mapped, resumed);
    EXPECT_EQ(mapped, hot);
  }
}

// ------------------------------------------------ shared pool columns

TEST(SharedPoolColumns, TunersHoldTheDatasetPoolNotACopy) {
  auto ds = kripke();
  const auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
  EXPECT_EQ(dynamic_cast<const core::HiPerBOt&>(*tuner).pool(), ds.pool());
  const eval::StandardMethods methods = eval::make_standard_methods(ds);
  EXPECT_EQ(methods.pool, ds.pool()->shared_configs());
  const auto standard = methods.hiperbot(kSeed);
  EXPECT_EQ(dynamic_cast<const core::HiPerBOt&>(*standard).pool(), ds.pool());
  const tabular::TabularObjective copy = ds;
  EXPECT_EQ(copy.pool(), ds.pool());
  // Building tuners builds no mirror: only a sweep does.
  EXPECT_FALSE(ds.pool()->has_columns());
}

TEST(SharedPoolColumns, ConcurrentFirstFitsBuildOneMirror) {
  auto ds = kripke();
  constexpr std::size_t kTuners = 4;
  std::vector<std::unique_ptr<core::Tuner>> tuners;
  for (std::size_t t = 0; t < kTuners; ++t) {
    tuners.push_back(eval::make_named_tuner("hiperbot", ds, kSeed + t));
    // The initial design, serially: random draws, no sweep.
    for (std::size_t round = 0; round < 5; ++round) {
      std::vector<Observation> observations;
      for (auto& c : tuners.back()->suggest_batch(4)) {
        const double y = ds.value_of(c);
        observations.push_back({std::move(c), y, EvalStatus::kOk});
      }
      tuners.back()->observe_batch(observations);
    }
  }
  ASSERT_FALSE(ds.pool()->has_columns());

  std::vector<std::vector<space::Configuration>> first_fits(kTuners);
  std::barrier start(static_cast<std::ptrdiff_t>(kTuners));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTuners; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      first_fits[t] = tuners[t]->suggest_batch(2);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(ds.pool()->has_columns());

  // Each shared-mirror fit equals a fit over a private copy of the list.
  for (std::size_t t = 0; t < kTuners; ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(dynamic_cast<const core::HiPerBOt&>(*tuners[t]).pool(),
              ds.pool());
    core::HiPerBOt own(ds.space_ptr(), {}, kSeed + t,
                       std::make_shared<const std::vector<space::Configuration>>(
                           ds.configs().begin(), ds.configs().end()));
    for (std::size_t round = 0; round < 5; ++round) {
      std::vector<Observation> observations;
      for (auto& c : own.suggest_batch(4)) {
        const double y = ds.value_of(c);
        observations.push_back({std::move(c), y, EvalStatus::kOk});
      }
      own.observe_batch(observations);
    }
    expect_same_batch(first_fits[t], own.suggest_batch(2));
  }
}

}  // namespace
}  // namespace hpb
