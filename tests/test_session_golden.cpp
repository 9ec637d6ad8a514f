// Golden pins of the daemon's session layer. The expected values are
// committed constants, so a rewrite of the session, journal, or manager
// must reproduce them byte for byte rather than merely agree with itself:
//   - a managed sync HiPerBOt session on kripke (batch 3, one failed
//     evaluation per round, one cancelled round) sharing a one-session
//     residency cap with a bystander, so that every verb that may resume it
//     does, closed at the end; and a managed async one (out-of-order
//     partial observes, a two-token cancel, an eviction with tokens
//     outstanding, a cancel-all), closed at the end: for each, the size
//     and FNV-1a of the closed journal and of the manager's FakeClock
//     trace, and the suggested ordinals;
//   - two journals an earlier build wrote, kept verbatim in tests/data: a
//     sync one ending in an abandoned round and then a torn, incomplete
//     round, and an async one with outstanding tokens and a torn last
//     line. For each, what the reader salvages, and the status and next
//     suggestion of a session the manager resumes from a copy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/journal.hpp"
#include "core/session_manager.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "service/factory.hpp"

#ifndef HPB_TEST_DATA_DIR
#error "HPB_TEST_DATA_DIR must name the directory of the committed journals"
#endif

namespace hpb {
namespace {

using core::AsyncResult;
using core::AsyncSuggestion;
using core::Observation;
using core::SessionManager;
using core::SessionMode;
using core::SessionSpec;
using tabular::EvalStatus;

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "session_golden_" + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Replace every `"simd":"<tier>"` value with "-": the tier is whatever the
/// running CPU supports, and every tier scores bitwise-identically.
std::string normalise_simd(const std::string& text) {
  const std::string key = "\"simd\":\"";
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, from)) {
    const std::size_t value = at + key.size();
    out.append(text, from, value - from);
    out += '-';
    from = text.find('"', value);
  }
  out.append(text, from);
  return out;
}

/// Size and FNV-1a 64 of some bytes.
struct Digest {
  std::size_t bytes = 0;
  std::uint64_t fnv = 0;

  bool operator==(const Digest&) const = default;
};

Digest digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return {text.size(), h};
}

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "0x%016llxULL",
                static_cast<unsigned long long>(d.fnv));
  return os << "{" << d.bytes << ", " << fnv << "}";
}

/// What a scripted managed session leaves behind.
struct ScriptRun {
  Digest journal;
  Digest trace;
  std::vector<std::uint64_t> ordinals;
  std::uint64_t resumed = 0;
};

const tabular::TabularObjective& kripke() {
  static const tabular::TabularObjective table =
      apps::dataset_by_name("kripke").make();
  return table;
}

SessionSpec kripke_spec(const std::string& name, SessionMode mode,
                        std::size_t batch) {
  SessionSpec spec;
  spec.name = name;
  spec.dataset = "kripke";
  spec.seed = 0x601d;
  spec.batch_size = batch;
  spec.stop.max_evaluations = 90;
  spec.mode = mode;
  return spec;
}

/// Runs `script` against a traced manager under a FakeClock, with
/// `max_resident` sessions over one stripe, and digests the closed journal
/// of `name` and the trace.
template <typename Script>
ScriptRun run_script(const std::string& tag, const std::string& name,
                     std::size_t max_resident, Script&& script) {
  const std::string dir = temp_path(tag);
  std::filesystem::remove_all(dir);
  const std::string trace_path = temp_path(tag + ".jsonl");
  ScriptRun run;
  std::string journal_path;
  {
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(trace_path);
    SessionManager manager(
        service::dataset_session_factory(),
        {.journal_dir = dir,
         .max_resident = max_resident,
         .num_stripes = 1,
         .recorder = {.trace = &sink, .clock = &clock}});
    script(manager, run.ordinals);
    run.resumed = manager.resumed_count();
    journal_path = manager.journal_path(name);
    sink.flush();
  }
  run.journal = digest(slurp(journal_path));
  run.trace = digest(normalise_simd(slurp(trace_path)));
  std::filesystem::remove_all(dir);
  std::remove(trace_path.c_str());
  return run;
}

TEST(SessionGolden, ManagedSyncSessionMatchesGolden) {
  const ScriptRun run = run_script(
      "sync", "golden", 1,
      [](SessionManager& manager, std::vector<std::uint64_t>& ordinals) {
        manager.create(kripke_spec("bystander", SessionMode::kSync, 1));
        manager.create(kripke_spec("golden", SessionMode::kSync, 3));
        for (std::size_t round = 0; round < 16; ++round) {
          // Touching the bystander evicts the golden session whenever it
          // is idle, so each suggest resumes it; a round in flight pins it
          // and the bystander goes instead.
          (void)manager.status("bystander");
          std::vector<space::Configuration> batch =
              manager.suggest("golden", 3);
          for (const space::Configuration& c : batch) {
            ordinals.push_back(kripke().space().ordinal_of(c));
          }
          (void)manager.status("bystander");
          if (round == 12) {
            EXPECT_EQ(manager.cancel("golden"), 3u);
            continue;
          }
          std::vector<Observation> observations;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if (i == round % 3) {
              observations.push_back(
                  {std::move(batch[i]), std::nan(""), EvalStatus::kCrashed});
            } else {
              const double y = kripke().value_of(batch[i]);
              observations.push_back(
                  {std::move(batch[i]), y, EvalStatus::kOk});
            }
          }
          (void)manager.observe("golden", std::move(observations));
        }
        (void)manager.status("bystander");
        manager.close("golden");
      });
  // 16 suggests and the close resume the golden session; all 33 touches
  // of the bystander resume it.
  EXPECT_EQ(run.resumed, 50u);
  EXPECT_EQ(run.journal, (Digest{5446, 0x0a8c1b5109257812ULL}));
  EXPECT_EQ(run.trace, (Digest{18856, 0x4727fb3984dd0fcaULL}));
  // Ten rounds of initial design, then fitted rounds; the cancelled round
  // 12 hands its three configurations back and round 13 suggests them
  // again.
  const std::vector<std::uint64_t> golden = {
      1643, 1328, 1933, 1253, 2297, 995,  135,  2107, 1093, 1513,
      331,  832,  1115, 1449, 2252, 147,  1795, 2251, 1893, 589,
      2347, 1213, 1396, 1783, 1033, 1015, 827,  1848, 1463, 591,
      1203, 1523, 3,    1204, 1524, 4,    404,  1264, 724,  404,
      1264, 724,  1284, 1444, 1224, 1223, 1263, 1443};
  EXPECT_EQ(run.ordinals, golden);
}

TEST(SessionGolden, ManagedAsyncSessionMatchesGolden) {
  const ScriptRun run = run_script(
      "async", "golden", 0,
      [](SessionManager& manager, std::vector<std::uint64_t>& ordinals) {
        manager.create(kripke_spec("golden", SessionMode::kAsync, 3));
        std::vector<AsyncSuggestion> held;
        const auto result = [](const AsyncSuggestion& s, bool fail) {
          return AsyncResult{s.token,
                             fail ? EvalStatus::kCrashed : EvalStatus::kOk,
                             fail ? std::nan("") : kripke().value_of(s.config)};
        };
        for (std::size_t step = 0; step < 16; ++step) {
          const std::vector<AsyncSuggestion> asked =
              manager.suggest_async("golden", 3);
          for (const AsyncSuggestion& s : asked) {
            ordinals.push_back(kripke().space().ordinal_of(s.config));
          }
          // Newest first, the oldest of the ask held back; every third
          // step also resolves the oldest held token of an earlier ask.
          std::vector<AsyncResult> results = {result(asked[2], false),
                                              result(asked[1], step % 4 == 1)};
          held.push_back(asked[0]);
          if (step % 3 == 1 && held.size() > 1) {
            results.push_back(result(held.front(), step % 2 == 0));
            held.erase(held.begin());
          }
          (void)manager.observe_async("golden", results);
          if (step == 12) {
            EXPECT_TRUE(manager.evict("golden"));  // tokens outstanding
          }
          if (step == 13) {
            const std::uint64_t two[] = {held[1].token, held[0].token};
            EXPECT_EQ(manager.cancel("golden", two), 2u);
            held.erase(held.begin(), held.begin() + 2);
          }
        }
        EXPECT_EQ(manager.cancel("golden"), held.size());
        EXPECT_TRUE(manager.evict("golden"));
        manager.close("golden");
      });
  EXPECT_EQ(run.resumed, 2u);
  EXPECT_EQ(run.journal, (Digest{5707, 0x1bc36c4c13988de2ULL}));
  EXPECT_EQ(run.trace, (Digest{7471, 0xa82c6be57cc29feaULL}));
  const std::vector<std::uint64_t> golden = {
      1643, 1328, 1933, 1253, 2297, 995,  135,  2107, 1093, 1513,
      331,  832,  1115, 1449, 2252, 147,  1795, 2251, 1893, 589,
      2347, 1213, 1396, 1783, 1033, 1015, 827,  1848, 1463, 591,
      1907, 2232, 909,  336,  371,  731,  651,  2331, 771,  1131,
      251,  2371, 2091, 91,   491,  2324, 2333, 324};
  EXPECT_EQ(run.ordinals, golden);
}

// ------------------------------------------------ journals of an earlier build

/// Copies a committed journal into a fresh session directory as
/// `<name>.hpbj` and returns the directory.
std::string stage_journal(const std::string& file, const std::string& name) {
  const std::string dir = temp_path("stage_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(std::string(HPB_TEST_DATA_DIR) + "/" + file,
                             dir + "/" + name + ".hpbj");
  return dir;
}

TEST(SessionGolden, EarlierSyncJournalResumes) {
  const std::string dir =
      stage_journal("session_golden_sync.hpbj", "old-sync");
  const core::JournalContents contents =
      core::read_journal(dir + "/old-sync.hpbj");
  EXPECT_FALSE(contents.finalized);
  EXPECT_EQ(contents.valid_bytes, 3363u);
  EXPECT_EQ(contents.num_observations(), 27u);

  SessionManager manager(service::dataset_session_factory(),
                         {.journal_dir = dir});
  EXPECT_EQ(manager.recovery().adopted, std::vector<std::string>{"old-sync"});
  const core::SessionStatus status = manager.status("old-sync");
  EXPECT_FALSE(status.async);
  // Nine observed rounds and the abandoned one; the torn round is dropped.
  EXPECT_EQ(status.evaluations, 27u);
  EXPECT_EQ(status.rounds, 10u);
  EXPECT_EQ(status.pending, 0u);
  EXPECT_TRUE(status.pending_tokens.empty());
  std::vector<std::uint64_t> next;
  for (const space::Configuration& c : manager.suggest("old-sync", 0)) {
    next.push_back(kripke().space().ordinal_of(c));
  }
  EXPECT_EQ(next, (std::vector<std::uint64_t>{1311, 2264, 304}));
  std::filesystem::remove_all(dir);
}

TEST(SessionGolden, EarlierAsyncJournalResumes) {
  const std::string dir =
      stage_journal("session_golden_async.hpbj", "old-async");
  const core::JournalContents contents =
      core::read_journal(dir + "/old-async.hpbj");
  EXPECT_FALSE(contents.finalized);
  EXPECT_EQ(contents.valid_bytes, 3518u);
  EXPECT_EQ(contents.num_observations(), 19u);

  SessionManager manager(service::dataset_session_factory(),
                         {.journal_dir = dir});
  EXPECT_EQ(manager.recovery().adopted,
            std::vector<std::string>{"old-async"});
  const core::SessionStatus status = manager.status("old-async");
  EXPECT_TRUE(status.async);
  EXPECT_EQ(status.evaluations, 19u);
  EXPECT_EQ(status.rounds, 15u);
  // Token 11's observe is the torn last line, so it stays outstanding.
  EXPECT_EQ(status.pending, 10u);
  EXPECT_EQ(status.pending_tokens,
            (std::vector<std::uint64_t>{11, 13, 15, 17, 19, 21, 23, 25, 27,
                                        29}));
  std::vector<std::uint64_t> tokens;
  std::vector<std::uint64_t> next;
  for (const AsyncSuggestion& s : manager.suggest_async("old-async", 0)) {
    tokens.push_back(s.token);
    next.push_back(kripke().space().ordinal_of(s.config));
  }
  EXPECT_EQ(tokens, (std::vector<std::uint64_t>{31, 32}));
  EXPECT_EQ(next, (std::vector<std::uint64_t>{587, 715}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpb
