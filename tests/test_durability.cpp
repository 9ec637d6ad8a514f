// What an acknowledged verb leaves on disk, and what it costs:
//   - AckedDurability: sync and async HiPerBOt and random sessions (batch
//     1 and 3, a cancelled round, a two-token cancel) share a manager with
//     max_resident 1, so nearly every verb evicts or resumes. After every
//     acknowledged verb the session dir is copied with each journal cut to
//     its size at its last fsync — what an OS crash keeps of it — and a
//     manager restarted on the copy must hold every acknowledged
//     observation and token, and suggest what the uninterrupted session
//     suggests next. A sync round suggested but never observed resumes
//     with no round in flight and re-suggests the identical batch;
//   - a disk fault at any op of a two-token async observe or cancel
//     leaves every token outstanding and nothing observed;
//   - JournalSyncs: the fsyncs and write(2) calls each verb pays on its
//     journal — at most one fsync and one write per verb, whatever the
//     batch or token count — and the fs sync observer those counts use.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/hiperbot.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

namespace stdfs = std::filesystem;

using core::AsyncResult;
using core::Observation;
using core::SessionManager;
using core::SessionMode;
using core::SessionSpec;
using core::SessionStatus;
using tabular::EvalStatus;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "durability_" + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  stdfs::remove_all(dir);
  return dir;
}

/// Every fsync since construction: the count per path and the file's size
/// at the last one.
class SyncLog {
 public:
  SyncLog() {
    fs::set_sync_observer([this](const std::string& path, std::uint64_t size) {
      const std::lock_guard<std::mutex> lock(mutex_);
      Entry& e = entries_[path];
      ++e.syncs;
      e.size = size;
    });
  }
  ~SyncLog() { fs::set_sync_observer({}); }
  SyncLog(const SyncLog&) = delete;
  SyncLog& operator=(const SyncLog&) = delete;

  [[nodiscard]] std::uint64_t syncs(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(path);
    return it == entries_.end() ? 0 : it->second.syncs;
  }
  /// Size at the last fsync, or -1 when never synced.
  [[nodiscard]] std::int64_t synced_size(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(path);
    return it == entries_.end() ? -1
                                : static_cast<std::int64_t>(it->second.size);
  }

 private:
  struct Entry {
    std::uint64_t syncs = 0;
    std::uint64_t size = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// Sessions over the separable dataset. HiPerBOt gets a six-sample initial
/// design, so the short scripts below reach fitted (and, on resume,
/// adopted) suggests.
core::SessionFactory factory() {
  auto dataset = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return [dataset](const SessionSpec& spec) {
    core::SessionBackend backend;
    if (spec.method == "hiperbot") {
      core::HiPerBOtConfig config;
      config.initial_samples = 6;
      backend.tuner = std::make_unique<core::HiPerBOt>(
          dataset->space_ptr(), config, spec.seed, dataset->pool());
    } else {
      backend.tuner = eval::make_named_tuner(spec.method, *dataset, spec.seed);
    }
    backend.space = dataset->space_ptr();
    return backend;
  };
}

SessionSpec make_spec(const std::string& name, const std::string& method,
                      SessionMode mode, std::size_t batch) {
  SessionSpec spec;
  spec.name = name;
  spec.method = method;
  spec.dataset = "separable";
  spec.seed = 11;
  spec.batch_size = batch;
  spec.stop.max_evaluations = 60;
  spec.mode = mode;
  return spec;
}

/// Every fourth result a client delivers is a crashed evaluation.
bool fails(std::size_t delivered) { return delivered % 4 == 3; }

/// One client's scripted verbs. The script reads only what earlier
/// responses returned, so two clients of the same spec send the same
/// verbs to any two managers that answer alike.
class Client {
 public:
  Client(SessionSpec spec, std::size_t verbs)
      : spec_(std::move(spec)), verbs_(verbs) {}

  [[nodiscard]] const SessionSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool done() const noexcept { return step_ == verbs_; }
  [[nodiscard]] std::size_t steps() const noexcept { return step_; }
  [[nodiscard]] bool async() const noexcept {
    return spec_.mode == SessionMode::kAsync;
  }
  /// The sync round in flight (suggested, neither observed nor
  /// cancelled); empty when none.
  [[nodiscard]] const std::vector<space::Configuration>& in_flight()
      const noexcept {
    return in_flight_;
  }

  /// Send the next verb: sync sessions alternate suggest and observe,
  /// cancelling their third round instead; async sessions ask, deliver
  /// two tokens newest-first, deliver the oldest alone, or cancel two
  /// tokens in one verb once.
  void step(SessionManager& manager) {
    if (async()) {
      step_async(manager);
    } else {
      step_sync(manager);
    }
    ++step_;
  }

 private:
  void step_sync(SessionManager& manager) {
    if (in_flight_.empty()) {
      in_flight_ = manager.suggest(spec_.name, 0);
      return;
    }
    if (rounds_++ == 2) {
      EXPECT_EQ(manager.cancel(spec_.name), in_flight_.size());
      in_flight_.clear();
      return;
    }
    std::vector<Observation> observations;
    for (space::Configuration& c : in_flight_) {
      const bool failed = fails(delivered_++);
      const double y = failed ? std::numeric_limits<double>::quiet_NaN()
                              : testutil::separable_value(c);
      observations.push_back(
          {std::move(c), y, failed ? EvalStatus::kCrashed : EvalStatus::kOk});
    }
    in_flight_.clear();
    (void)manager.observe(spec_.name, std::move(observations));
  }

  void step_async(SessionManager& manager) {
    const std::size_t phase = step_ % 4;
    if (phase == 0 || outstanding_.size() < 2) {
      for (core::AsyncSuggestion& s : manager.suggest_async(spec_.name, 0)) {
        outstanding_.emplace_back(s.token, std::move(s.config));
      }
      return;
    }
    if (phase == 2 && !cancelled_) {
      const std::uint64_t tokens[] = {outstanding_[0].first,
                                      outstanding_[1].first};
      EXPECT_EQ(manager.cancel(spec_.name, tokens), 2u);
      outstanding_.erase(outstanding_.begin(), outstanding_.begin() + 2);
      cancelled_ = true;
      return;
    }
    // Phase 1 delivers the newest and the oldest token, in that order;
    // phase 2 the oldest alone; phase 3 the two oldest.
    std::vector<std::size_t> picks;
    if (phase == 1) {
      picks = {outstanding_.size() - 1, 0};
    } else if (phase == 2) {
      picks = {0};
    } else {
      picks = {0, 1};
    }
    std::vector<AsyncResult> results;
    for (const std::size_t i : picks) {
      const bool failed = fails(delivered_++);
      results.push_back(
          {outstanding_[i].first,
           failed ? EvalStatus::kCrashed : EvalStatus::kOk,
           failed ? 0.0 : testutil::separable_value(outstanding_[i].second)});
    }
    for (const AsyncResult& r : results) {
      std::erase_if(outstanding_,
                    [&](const auto& o) { return o.first == r.token; });
    }
    (void)manager.observe_async(spec_.name, results);
  }

  SessionSpec spec_;
  std::size_t verbs_;
  std::size_t step_ = 0;
  std::size_t rounds_ = 0;
  std::size_t delivered_ = 0;
  bool cancelled_ = false;
  std::vector<space::Configuration> in_flight_;
  std::vector<std::pair<std::uint64_t, space::Configuration>> outstanding_;
};

/// One suggest: the configurations, each prefixed by its token (0 for a
/// sync batch).
using Suggestion = std::vector<std::vector<double>>;

Suggestion suggest_next(SessionManager& manager, const SessionSpec& spec) {
  Suggestion out;
  if (spec.mode == SessionMode::kAsync) {
    for (const core::AsyncSuggestion& s :
         manager.suggest_async(spec.name, 0)) {
      std::vector<double> row{static_cast<double>(s.token)};
      row.insert(row.end(), s.config.values().begin(), s.config.values().end());
      out.push_back(std::move(row));
    }
  } else {
    for (const space::Configuration& c : manager.suggest(spec.name, 0)) {
      std::vector<double> row{0.0};
      row.insert(row.end(), c.values().begin(), c.values().end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// What the uninterrupted session suggests after the client's first
/// `steps` verbs: the script replayed into a journal-less manager, which
/// never evicts or resumes, then one suggest. A sync round in flight is
/// the suggestion itself: its session re-suggests it once the round is
/// gone.
Suggestion uninterrupted_next(const Client& live) {
  if (!live.in_flight().empty()) {
    Suggestion out;
    for (const space::Configuration& c : live.in_flight()) {
      std::vector<double> row{0.0};
      row.insert(row.end(), c.values().begin(), c.values().end());
      out.push_back(std::move(row));
    }
    return out;
  }
  SessionManager manager(factory());
  manager.create(live.spec());
  Client replay(live.spec(), live.steps());
  while (!replay.done()) {
    replay.step(manager);
  }
  return suggest_next(manager, live.spec());
}

/// Copy every journal of `dir` into `copy`, cut to its size at its last
/// fsync: the bytes an OS crash right now would keep.
void copy_synced(const std::string& dir, const std::string& copy,
                 const SyncLog& log) {
  stdfs::remove_all(copy);
  stdfs::create_directories(copy);
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const std::int64_t size = log.synced_size(path);
    ASSERT_GE(size, 0) << path << " was never synced";
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_LE(static_cast<std::size_t>(size), bytes.size()) << path;
    bytes.resize(static_cast<std::size_t>(size));
    std::ofstream out(copy + "/" + entry.path().filename().string(),
                      std::ios::binary);
    out << bytes;
  }
}

/// A manager restarted on the synced copy holds what the live session
/// acknowledged, and suggests next what the uninterrupted session does.
void expect_durable(SessionManager& live, const Client& client,
                    const std::string& dir, const std::string& copy,
                    const SyncLog& log) {
  const std::string& name = client.spec().name;
  SCOPED_TRACE(name + " after verb " + std::to_string(client.steps()));
  copy_synced(dir, copy, log);
  const SessionStatus acked = live.status(name);
  SessionManager restarted(factory(), {.journal_dir = copy});
  EXPECT_TRUE(restarted.recovery().quarantined.empty());
  const SessionStatus got = restarted.status(name);
  EXPECT_EQ(got.evaluations, acked.evaluations);
  EXPECT_EQ(got.num_failed, acked.num_failed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_value),
            std::bit_cast<std::uint64_t>(acked.best_value));
  EXPECT_EQ(got.rounds, acked.rounds);
  // Every token of an acknowledged ask is outstanding, or resolved by an
  // acknowledged observe or cancel; a sync round in flight is gone.
  EXPECT_EQ(got.pending_tokens, acked.pending_tokens);
  if (!client.async()) {
    EXPECT_EQ(got.pending, 0u);
  }
  EXPECT_EQ(suggest_next(restarted, client.spec()),
            uninterrupted_next(client));
}

TEST(AckedDurability, EveryAcknowledgedVerbSurvivesAnOsCrash) {
  SyncLog log;
  const std::string dir = fresh_dir("acked");
  const std::string copy = fresh_dir("acked_copy");
  SessionManager manager(
      factory(), {.journal_dir = dir, .max_resident = 1, .num_stripes = 1});
  std::vector<Client> clients;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
    for (const char* method : {"hiperbot", "random"}) {
      const std::string tag = std::string(method) + "_" + std::to_string(batch);
      clients.emplace_back(
          make_spec("sync_" + tag, method, SessionMode::kSync, batch),
          batch == 1 ? 26 : 14);
      clients.emplace_back(
          make_spec("async_" + tag, method, SessionMode::kAsync, batch),
          batch == 1 ? 20 : 14);
    }
  }
  for (const Client& client : clients) {
    manager.create(client.spec());
  }
  // Round-robin: every verb lands on a session another one just evicted,
  // unless a round in flight pinned it.
  for (bool more = true; more;) {
    more = false;
    for (Client& client : clients) {
      if (client.done()) {
        continue;
      }
      client.step(manager);
      expect_durable(manager, client, dir, copy, log);
      more = true;
    }
  }
  EXPECT_GT(manager.resumed_count(), 100u);
  stdfs::remove_all(dir);
  stdfs::remove_all(copy);
}

TEST(FaultInjection, AFailedAsyncVerbAppliesNoneOfItsTokens) {
  // A verb's records are written and synced whole before the tuner sees
  // any of them, so a fault at any of the verb's disk ops (skip counts
  // them) leaves every token outstanding and nothing observed.
  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancel" : "observe");
    bool succeeded = false;
    for (std::uint64_t skip = 0; !succeeded && skip < 8; ++skip) {
      fs::clear_fault_plan();
      SessionManager manager(factory(), {.journal_dir = fresh_dir("whole")});
      manager.create(make_spec("w", "random", SessionMode::kAsync, 3));
      std::vector<AsyncResult> results;
      std::vector<std::uint64_t> tokens;
      for (const core::AsyncSuggestion& s : manager.suggest_async("w", 0)) {
        results.push_back(
            {s.token, EvalStatus::kOk, testutil::separable_value(s.config)});
        tokens.push_back(s.token);
      }
      fs::set_fault_plan(
          {.path_substring = "/w.hpbj", .error_number = ENOSPC, .skip = skip});
      try {
        if (cancel) {
          (void)manager.cancel("w", std::span(tokens).first(2));
        } else {
          (void)manager.observe_async("w", std::span(results).first(2));
        }
        succeeded = true;
      } catch (const Error&) {
      }
      fs::clear_fault_plan();
      const SessionStatus status = manager.status("w");
      EXPECT_EQ(status.degraded, !succeeded) << "skip " << skip;
      if (!succeeded) {
        EXPECT_EQ(status.evaluations, 0u) << "skip " << skip;
        EXPECT_EQ(status.pending_tokens, tokens) << "skip " << skip;
      }
    }
    EXPECT_TRUE(succeeded);
  }
}

// ------------------------------------------------------- journal syncs

/// The journal fsyncs, directory fsyncs and journal write(2) calls of one
/// verb on session `name`.
struct VerbCost {
  std::uint64_t syncs = 0;
  std::uint64_t dir_syncs = 0;
  std::uint64_t writes = 0;
};

class JournalCost {
 public:
  JournalCost(const SyncLog& log, std::string dir)
      : log_(log), dir_(std::move(dir)) {}

  VerbCost of(const std::string& name, const std::function<void()>& verb) {
    const std::string path = dir_ + "/" + name + ".hpbj";
    // A plan that never fires counts every write and fsync on the path.
    fs::set_fault_plan({.path_substring = "/" + name + ".hpbj",
                        .error_number = EIO,
                        .skip = std::numeric_limits<std::uint64_t>::max()});
    const std::uint64_t syncs = log_.syncs(path);
    const std::uint64_t dir_syncs = log_.syncs(dir_);
    verb();
    const std::uint64_t ops = fs::fault_ops_matched();
    fs::clear_fault_plan();
    VerbCost cost;
    cost.syncs = log_.syncs(path) - syncs;
    cost.dir_syncs = log_.syncs(dir_) - dir_syncs;
    cost.writes = ops - cost.syncs;
    return cost;
  }

 private:
  const SyncLog& log_;
  std::string dir_;
};

void expect_cost(const VerbCost& cost, std::uint64_t syncs,
                 std::uint64_t writes, std::uint64_t dir_syncs = 0) {
  EXPECT_EQ(cost.syncs, syncs);
  EXPECT_EQ(cost.writes, writes);
  EXPECT_EQ(cost.dir_syncs, dir_syncs);
}

std::vector<Observation> evaluated(std::vector<space::Configuration> batch) {
  std::vector<Observation> observations;
  for (space::Configuration& c : batch) {
    const double y = testutil::separable_value(c);
    observations.push_back({std::move(c), y, EvalStatus::kOk});
  }
  return observations;
}

TEST(JournalSyncs, SyncVerbsPayOneFsyncAndSuggestNone) {
  fs::clear_fault_plan();
  SyncLog log;
  const std::string dir = fresh_dir("syncs_sync");
  SessionManager manager(factory(), {.journal_dir = dir});
  JournalCost cost(log, dir);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::string name = "sync" + std::to_string(batch);
    const SessionSpec spec =
        make_spec(name, "hiperbot", SessionMode::kSync, batch);
    expect_cost(cost.of(name, [&] { manager.create(spec); }), 1, 1, 1);
    for (int round = 0; round < 8; ++round) {
      std::vector<space::Configuration> batch_configs;
      expect_cost(cost.of(name,
                          [&] { batch_configs = manager.suggest(name, 0); }),
                  0, 1);
      expect_cost(cost.of(name,
                          [&] {
                            (void)manager.observe(
                                name, evaluated(std::move(batch_configs)));
                          }),
                  1, 1);
    }
    (void)manager.suggest(name, 0);
    expect_cost(cost.of(name, [&] { (void)manager.cancel(name); }), 1, 1);
    // A resume reopens the journal and syncs it once, writing nothing.
    ASSERT_TRUE(manager.evict(name));
    expect_cost(cost.of(name, [&] { (void)manager.status(name); }), 1, 0);
    expect_cost(cost.of(name, [&] { (void)manager.status(name); }), 0, 0);
    expect_cost(cost.of(name, [&] { manager.close(name); }), 1, 1);
  }
  stdfs::remove_all(dir);
}

TEST(JournalSyncs, AsyncVerbsPayOneFsyncWhateverTheTokenCount) {
  fs::clear_fault_plan();
  SyncLog log;
  const std::string dir = fresh_dir("syncs_async");
  SessionManager manager(factory(), {.journal_dir = dir});
  JournalCost cost(log, dir);
  const std::string name = "async";
  expect_cost(cost.of(name,
                      [&] {
                        manager.create(make_spec(name, "hiperbot",
                                                 SessionMode::kAsync, 3));
                      }),
              1, 1, 1);
  for (int round = 0; round < 6; ++round) {
    std::vector<core::AsyncSuggestion> asked;
    expect_cost(
        cost.of(name, [&] { asked = manager.suggest_async(name, 0); }), 1, 1);
    ASSERT_EQ(asked.size(), 3u);
    // One token, then the other two in one delivery.
    std::vector<AsyncResult> results;
    for (const core::AsyncSuggestion& s : asked) {
      results.push_back(
          {s.token, EvalStatus::kOk, testutil::separable_value(s.config)});
    }
    expect_cost(cost.of(name,
                        [&] {
                          (void)manager.observe_async(
                              name, std::span(results).first(1));
                        }),
                1, 1);
    expect_cost(cost.of(name,
                        [&] {
                          (void)manager.observe_async(
                              name, std::span(results).subspan(1));
                        }),
                1, 1);
  }
  // Cancel two named tokens, then every remaining one, one fsync each.
  std::vector<core::AsyncSuggestion> asked = manager.suggest_async(name, 0);
  const std::uint64_t two[] = {asked[0].token, asked[2].token};
  expect_cost(cost.of(name, [&] { (void)manager.cancel(name, two); }), 1, 1);
  expect_cost(cost.of(name, [&] { (void)manager.cancel(name); }), 1, 1);
  // Nothing left to cancel: nothing written.
  expect_cost(cost.of(name, [&] { (void)manager.cancel(name); }), 0, 0);
  ASSERT_TRUE(manager.evict(name));
  expect_cost(cost.of(name, [&] { (void)manager.status(name); }), 1, 0);
  expect_cost(cost.of(name, [&] { manager.close(name); }), 1, 1);
  stdfs::remove_all(dir);
}

TEST(JournalSyncs, ObserverSeesEverySyncUntilRemoved) {
  const std::string dir = fresh_dir("observer");
  fs::ensure_dir(dir);
  const std::string path = dir + "/watched.txt";
  {
    SyncLog log;
    fs::write_file_atomic(path, "twelve bytes");
    // The temp file is synced at its full size, then the directory.
    EXPECT_EQ(log.syncs(path + ".tmp"), 1u);
    EXPECT_EQ(log.synced_size(path + ".tmp"), 12);
    EXPECT_EQ(log.syncs(dir), 1u);
  }
  std::uint64_t calls = 0;
  fs::set_sync_observer(
      [&calls](const std::string&, std::uint64_t) { ++calls; });
  fs::set_sync_observer({});
  fs::write_file_atomic(path, "unobserved");
  EXPECT_EQ(calls, 0u);
  stdfs::remove_all(dir);
}

}  // namespace
}  // namespace hpb
