// Property-test harness for the conditional/constrained space layer and the
// streamed candidate generator:
//   - ~500 seeded random conditional, divisibility-constrained spaces:
//     every streamed candidate satisfies its constraints and activity rules
//     (inactive parameters hold their sentinels), no ordinal repeats within
//     a pass, and the candidate sequence is identical for 1, 2, 7, and
//     hardware_concurrency worker threads;
//   - streaming reproduces enumerate() bitwise on enumerable spaces, and the
//     forced-Feistel mode emits a seeded permutation of the same valid set;
//   - HiPerBOt's streamed Ranking sweep is bitwise-identical to the
//     materialized-pool sweep on a flat unconstrained space — suggestions
//     and journal bytes alike;
//   - a golden pin of the full systolic space (one Feistel pass's valid
//     candidates and HiPerBOt's first 60 streamed suggestions), so a change
//     of generation strategy cannot silently change streamed output;
//   - sentinel-bearing configurations round-trip through the write-ahead
//     journal (append + replay + engine resume on a systolic session), the
//     history CSV warm start, and the wire protocol without drift;
//   - enumerate() fails fast with a structured SpaceTooLargeError on a 2^40
//     space, and cross_product_size() detects 64-bit overflow instead of
//     silently wrapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/systolic.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/history_io.hpp"
#include "core/hiperbot.hpp"
#include "core/journal.hpp"
#include "core/loop.hpp"
#include "core/session_manager.hpp"
#include "core/stopping.hpp"
#include "eval/methods.hpp"
#include "obs/json_util.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "space/candidate_stream.hpp"
#include "space/parameter_space.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using space::CandidateStream;
using space::Configuration;
using space::Parameter;
using space::ParameterSpace;
using space::SpacePtr;
using space::StreamConfig;

constexpr std::size_t kNumSpaces = 500;

// ------------------------------------------------- seeded random spaces

/// The shared seeded random conditional/constrained space generator — moved
/// to test_util.hpp so the SIMD dispatch-parity suite sweeps the same
/// distribution of spaces.
SpacePtr random_space(std::uint64_t seed) {
  return testutil::random_conditional_space(seed);
}

/// Independent recomputation of the divisibility constraints registered by
/// random_space is not possible from the outside (the predicate is opaque),
/// but the structural invariants are: canonical sentinels on every inactive
/// parameter, satisfies() agreement, and ordinal round-trips.
void expect_structurally_valid(const ParameterSpace& s,
                               const CandidateStream::Candidate& cand) {
  EXPECT_TRUE(s.satisfies(cand.config));
  EXPECT_TRUE(s.is_canonical(cand.config));
  EXPECT_EQ(s.ordinal_of(cand.config), cand.ordinal);
  for (std::size_t i = 0; i < s.num_params(); ++i) {
    if (!s.is_active(cand.config, i)) {
      EXPECT_EQ(cand.config[i], s.sentinel_value(i))
          << "inactive parameter " << s.param(i).name()
          << " must hold its sentinel";
    }
  }
}

TEST(SpaceProperties, StreamedCandidatesAreValidCanonicalAndDeduplicated) {
  std::size_t total_candidates = 0;
  std::size_t conditional_spaces = 0;
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = random_space(0xA110'0000 + t);
    conditional_spaces += s->has_conditionals() ? 1 : 0;
    const CandidateStream stream(s, /*seed=*/t, StreamConfig{});
    const auto pass = stream.pass_candidates(0);
    std::set<std::uint64_t> ordinals;
    for (const auto& cand : pass) {
      expect_structurally_valid(*s, cand);
      EXPECT_TRUE(ordinals.insert(cand.ordinal).second)
          << "duplicate ordinal " << cand.ordinal << " within one pass";
    }
    EXPECT_FALSE(pass.empty());  // the all-sentinel config is always valid
    total_candidates += pass.size();
  }
  // The generator must actually exercise the conditional machinery.
  EXPECT_GT(conditional_spaces, kNumSpaces / 2);
  EXPECT_GT(total_candidates, kNumSpaces);
}

TEST(SpaceProperties, PassSequencesAreThreadCountIndependent) {
  ThreadPool pool1(1), pool2(2), pool7(7), pool_hw(0);
  ThreadPool* pools[] = {&pool1, &pool2, &pool7, &pool_hw};
  for (std::size_t t = 0; t < 150; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = random_space(0xA110'0000 + t);
    const CandidateStream stream(s, /*seed=*/t, StreamConfig{.chunk = 64});
    const auto serial = stream.pass_candidates(0, nullptr);
    for (ThreadPool* pool : pools) {
      const auto threaded = stream.pass_candidates(0, pool);
      ASSERT_EQ(threaded.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(threaded[i].config.values(), serial[i].config.values());
        EXPECT_EQ(threaded[i].pass_index, serial[i].pass_index);
        EXPECT_EQ(threaded[i].ordinal, serial[i].ordinal);
      }
    }
  }
}

TEST(SpaceProperties, ExhaustivePassReproducesEnumerateBitwise) {
  for (std::size_t t = 0; t < 200; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = random_space(0xA110'0000 + t);
    const CandidateStream stream(s, /*seed=*/t, StreamConfig{});
    ASSERT_TRUE(stream.exhaustive());
    const auto pass = stream.pass_candidates(0);
    const auto enumerated = s->enumerate();
    ASSERT_EQ(pass.size(), enumerated.size());
    for (std::size_t i = 0; i < pass.size(); ++i) {
      EXPECT_EQ(pass[i].config.values(), enumerated[i].values());
    }
  }
}

TEST(SpaceProperties, ForcedFeistelPassIsASeededPermutationOfTheValidSet) {
  std::size_t reordered = 0;
  constexpr std::size_t kFeistelSpaces = 100;
  for (std::size_t t = 0; t < kFeistelSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = random_space(0xA110'0000 + t);
    // max_exhaustive = 0 forces the Feistel permutation; a pass budget at
    // least the raw size makes each pass a bijection over the cross
    // product, so a pass must emit exactly the valid set, reordered.
    const StreamConfig config{.chunk = 256,
                              .max_exhaustive = 0,
                              .pass_raw_budget = 1ULL << 20};
    const CandidateStream stream(s, /*seed=*/0xFE15 + t, config);
    ASSERT_FALSE(stream.exhaustive());
    ASSERT_EQ(stream.pass_length(), stream.raw_size());
    const auto pass = stream.pass_candidates(0);
    std::set<std::uint64_t> seen;
    for (const auto& cand : pass) {
      expect_structurally_valid(*s, cand);
      EXPECT_TRUE(seen.insert(cand.ordinal).second);
    }
    std::set<std::uint64_t> expected;
    for (const auto& c : s->enumerate()) {
      expected.insert(s->ordinal_of(c));
    }
    EXPECT_EQ(seen, expected);

    // Deterministic in the seed: an identical stream replays identically...
    const CandidateStream replay(s, /*seed=*/0xFE15 + t, config);
    const auto replayed = replay.pass_candidates(0);
    ASSERT_EQ(replayed.size(), pass.size());
    bool pass1_differs = false;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      EXPECT_EQ(replayed[i].ordinal, pass[i].ordinal);
    }
    // ...while later passes visit the same set in a different order.
    const auto pass1 = stream.pass_candidates(1);
    ASSERT_EQ(pass1.size(), pass.size());
    for (std::size_t i = 0; i < pass.size(); ++i) {
      pass1_differs = pass1_differs || pass1[i].ordinal != pass[i].ordinal;
    }
    reordered += pass1_differs ? 1 : 0;
  }
  EXPECT_GT(reordered, kFeistelSpaces / 2);
}

TEST(SpaceProperties, SamplePoolDrawsDistinctValidConfigurations) {
  const SpacePtr s = random_space(0xA110'0042);
  const StreamConfig config{.chunk = 256,
                            .max_exhaustive = 0,
                            .pass_raw_budget = 64};
  const CandidateStream stream(s, /*seed=*/9, config);
  const std::size_t valid = s->enumerate().size();
  const std::size_t k = std::min<std::size_t>(valid, 16);
  const auto pool = stream.sample_pool(k, /*max_passes=*/256);
  ASSERT_EQ(pool.size(), k);
  std::set<std::uint64_t> seen;
  for (const auto& c : pool) {
    EXPECT_TRUE(s->satisfies(c));
    EXPECT_TRUE(seen.insert(s->ordinal_of(c)).second);
  }
}

// ------------------------------------- streamed vs pooled sweeps, bitwise

TEST(StreamedSweep, MatchesPooledSuggestionsBitwiseOnFlatSpaces) {
  const SpacePtr s = testutil::small_discrete_space();  // 60 configs, flat
  core::HiPerBOtConfig pooled_config;
  pooled_config.initial_samples = 8;
  pooled_config.sweep_source = core::SweepSource::kPooled;
  core::HiPerBOtConfig streamed_config = pooled_config;
  streamed_config.sweep_source = core::SweepSource::kStreamed;

  ThreadPool pool7(7);
  core::HiPerBOt pooled(s, pooled_config, /*seed=*/21);
  core::HiPerBOt streamed(s, streamed_config, /*seed=*/21);
  core::HiPerBOt threaded(s, streamed_config, /*seed=*/21);
  threaded.set_sweep_pool(&pool7);

  // Keep the evaluated set under half the pool so the pooled path stays on
  // its rejection-sampling branch — the regime the parity contract pins.
  for (int t = 0; t < 25; ++t) {
    const Configuration a = pooled.suggest();
    const Configuration b = streamed.suggest();
    const Configuration c = threaded.suggest();
    EXPECT_EQ(a.values(), b.values()) << "diverged at step " << t;
    EXPECT_EQ(a.values(), c.values()) << "diverged at step " << t;
    const double y = testutil::separable_value(a);
    pooled.observe(a, y);
    streamed.observe(b, y);
    threaded.observe(c, y);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(StreamedSweep, MatchesPooledJournalBytesOnFlatSpaces) {
  auto ds = testutil::separable_dataset();
  core::JournalHeader header;
  header.method = "hiperbot";
  header.dataset = ds.name();
  header.seed = 33;
  header.batch_size = 3;
  header.num_params = ds.space().num_params();
  header.max_evaluations = 24;

  auto run = [&](core::SweepSource source, const std::string& path) {
    core::HiPerBOtConfig config;
    config.initial_samples = 8;
    config.sweep_source = source;
    core::HiPerBOt tuner(ds.space_ptr(), config, header.seed);
    core::JournalWriter writer = core::JournalWriter::create(path, header);
    const core::TuningEngine engine({.batch_size = 3, .journal = &writer});
    core::StopConfig stop;
    stop.max_evaluations = 24;
    return engine.run_until(tuner, ds, stop);
  };

  const std::string pooled_path = ::testing::TempDir() + "sweep_pooled.hpbj";
  const std::string streamed_path =
      ::testing::TempDir() + "sweep_streamed.hpbj";
  const auto pooled = run(core::SweepSource::kPooled, pooled_path);
  const auto streamed = run(core::SweepSource::kStreamed, streamed_path);
  EXPECT_EQ(pooled.result.best_value, streamed.result.best_value);
  EXPECT_EQ(slurp(pooled_path), slurp(streamed_path));
}

TEST(StreamedSweep, DrivesHugeSystolicSpaceWithoutMaterializing) {
  apps::SystolicObjective objective;  // raw cross product ~2^33.9
  EXPECT_TRUE(objective.space().cross_product_exceeds(1ULL << 30));
  EXPECT_THROW((void)objective.space().enumerate(), SpaceTooLargeError);

  core::HiPerBOtConfig config;
  config.initial_samples = 10;
  core::HiPerBOt tuner(objective.space_ptr(), config, /*seed=*/5);
  std::set<std::uint64_t> seen;
  for (int t = 0; t < 18; ++t) {
    const Configuration c = tuner.suggest();
    EXPECT_TRUE(objective.space().satisfies(c));
    EXPECT_TRUE(seen.insert(objective.space().ordinal_of(c)).second);
    tuner.observe(c, objective.evaluate(c));
  }
}

/// Order-sensitive digest of a pass's (ordinal, pass index) sequence.
std::uint64_t pass_digest(const std::vector<CandidateStream::Candidate>& pass) {
  std::uint64_t h = pass.size();
  for (const auto& cand : pass) {
    h = hash_combine(hash_combine(h, cand.ordinal), cand.pass_index);
  }
  return h;
}

TEST(StreamedSweep, SystolicSuggestionsMatchGolden) {
  // Recorded from the configuration_at + satisfies() generator; any faster
  // generator must reproduce the same candidates in the same order, so
  // these constants never change with generation strategy.
  apps::SystolicObjective objective;  // raw cross product ~2^33.9
  const ParameterSpace& s = objective.space();

  // One sampled Feistel pass: the valid candidates' ordinals and in-pass
  // indices, in pass order.
  const CandidateStream stream(objective.space_ptr(), /*seed=*/0x601DE7,
                               StreamConfig{});
  ASSERT_FALSE(stream.exhaustive());
  const auto pass = stream.pass_candidates(/*pass=*/3);
  ASSERT_EQ(pass.size(), 1801u);
  const std::uint64_t head[][2] = {
      {15204570965ULL, 34},  {13894533289ULL, 68},  {15238044635ULL, 76},
      {14889657611ULL, 156}, {14109334608ULL, 177}, {15598707231ULL, 194}};
  for (std::size_t i = 0; i < std::size(head); ++i) {
    EXPECT_EQ(pass[i].ordinal, head[i][0]) << "candidate " << i;
    EXPECT_EQ(pass[i].pass_index, head[i][1]) << "candidate " << i;
  }
  EXPECT_EQ(pass_digest(pass), 0xd5fb9b970aac7f85ULL);

  // HiPerBOt's first 60 batch-1 suggestions: 20 random-design draws, then
  // 40 streamed Ranking sweeps.
  const std::vector<std::uint64_t> golden = {
      14893482775ULL, 13496608332ULL, 15076400988ULL, 14829641955ULL,
      14700118003ULL, 15583737033ULL, 14815085318ULL, 14450636395ULL,
      15624980598ULL, 13273222838ULL, 15672256989ULL, 13858037870ULL,
      13626390427ULL, 12359811764ULL, 14026970701ULL, 14049948024ULL,
      14756887555ULL, 15035285119ULL, 13674473352ULL, 15168516446ULL,
      14776947628ULL, 15598563706ULL, 15557482142ULL, 15277394234ULL,
      15600139065ULL, 15403278905ULL, 12724794425ULL, 15572289049ULL,
      15364461850ULL, 15181612665ULL, 15650689053ULL, 14003105215ULL,
      15666447613ULL, 15649395051ULL, 14474806669ULL, 15259745375ULL,
      15668603525ULL, 14473627949ULL, 15671308493ULL, 15666925765ULL,
      15667819501ULL, 14101003293ULL, 15500160653ULL, 15659783527ULL,
      15667072485ULL, 14420287685ULL, 14480725469ULL, 15650963383ULL,
      15674640965ULL, 15424513015ULL, 14784443685ULL, 15672684653ULL,
      14490420175ULL, 15675957489ULL, 15609607521ULL, 15259512805ULL,
      14866766964ULL, 15593261681ULL, 15668614725ULL, 15649003483ULL};
  core::HiPerBOt tuner(objective.space_ptr(), core::HiPerBOtConfig{},
                       /*seed=*/7);
  std::vector<std::uint64_t> ordinals;
  for (std::size_t t = 0; t < golden.size(); ++t) {
    const std::vector<Configuration> batch = tuner.suggest_batch(1);
    ASSERT_EQ(batch.size(), 1u);
    ordinals.push_back(s.ordinal_of(batch.front()));
    tuner.observe(batch.front(), objective.evaluate(batch.front()));
  }
  EXPECT_EQ(ordinals, golden);
}

// ------------------------------------------- sentinel round trips

/// First history index whose configuration has at least one inactive
/// parameter (level-0 sentinel under a non-activating parent), or npos.
/// Works for core::History and std::vector<Observation> alike.
template <typename HistoryLike>
std::size_t first_sentinel_config(const ParameterSpace& s,
                                  const HistoryLike& history) {
  for (std::size_t i = 0; i < history.size(); ++i) {
    for (std::size_t p = 0; p < s.num_params(); ++p) {
      if (!s.is_active(history[i].config, p)) {
        return i;
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

TEST(SentinelRoundTrip, HistoryCsvWarmStartPreservesSystolicConfigs) {
  auto ds = apps::dataset_by_name("systolic_small").make();
  core::HiPerBOt source(ds.space_ptr(), {}, /*seed=*/17);
  const auto result = core::run_tuning(source, ds, 40);
  // The run must actually contain sentinel-bearing configurations, or the
  // round trip proves nothing about conditional spaces.
  ASSERT_NE(first_sentinel_config(ds.space(), source.history()),
            static_cast<std::size_t>(-1));

  std::ostringstream out;
  core::write_history_csv(out, ds.space(), result.history);
  core::HiPerBOt replayed(ds.space_ptr(), {}, /*seed=*/18);
  std::istringstream in(out.str());
  ASSERT_EQ(core::warm_start_from_csv(in, ds.space(), replayed), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(replayed.history()[i].config.values(),
              result.history[i].config.values());
    EXPECT_DOUBLE_EQ(replayed.history()[i].y, result.history[i].y);
  }
}

TEST(SentinelRoundTrip, JournalAppendReplayIsExactOnSystolicConfigs) {
  auto ds = apps::dataset_by_name("systolic_small").make();
  const std::string path = ::testing::TempDir() + "systolic_journal.hpbj";
  core::JournalHeader header;
  header.method = "hiperbot";
  header.dataset = ds.name();
  header.seed = 29;
  header.batch_size = 1;
  header.num_params = ds.space().num_params();
  header.max_evaluations = 20;
  {
    core::JournalWriter writer = core::JournalWriter::create(path, header);
    core::HiPerBOt tuner(ds.space_ptr(), {}, header.seed);
    for (int t = 0; t < 20; ++t) {
      const Configuration c = tuner.suggest();
      const double y = ds.value_of(c);
      writer.begin_round(1, 1);
      const core::Observation o{c, y, tabular::EvalStatus::kOk};
      writer.append_observations(std::span(&o, 1));
      tuner.observe(c, y);
    }
  }
  const core::JournalContents contents = core::read_journal(path);
  ASSERT_EQ(contents.num_observations(), 20u);
  core::HiPerBOt replayed(ds.space_ptr(), {}, header.seed);
  const auto observations =
      core::replay_journal(replayed, ds.space(), contents);
  ASSERT_EQ(observations.size(), 20u);
  bool sentinel_seen = false;
  for (const auto& obs : observations) {
    EXPECT_TRUE(ds.space().satisfies(obs.config));
    for (std::size_t p = 0; p < ds.space().num_params(); ++p) {
      sentinel_seen = sentinel_seen || !ds.space().is_active(obs.config, p);
    }
  }
  EXPECT_TRUE(sentinel_seen);
}

TEST(SentinelRoundTrip, EngineResumeOnSystolicSessionIsBitwiseIdentical) {
  auto ds = apps::dataset_by_name("systolic_small").make();
  constexpr std::size_t kBudget = 30;
  constexpr std::uint64_t kSeed = 41;
  core::JournalHeader header;
  header.method = "hiperbot";
  header.dataset = ds.name();
  header.seed = kSeed;
  header.batch_size = 4;
  header.num_params = ds.space().num_params();
  header.max_evaluations = kBudget;
  core::StopConfig stop;
  stop.max_evaluations = kBudget;

  const std::string ref_path = ::testing::TempDir() + "systolic_ref.hpbj";
  core::StoppedTuneResult reference;
  {
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    core::JournalWriter writer = core::JournalWriter::create(ref_path, header);
    const core::TuningEngine engine({.batch_size = 4, .journal = &writer});
    reference = engine.run_until(*tuner, ds, stop);
  }
  const std::string bytes = slurp(ref_path);
  ASSERT_NE(first_sentinel_config(ds.space(), reference.result.history),
            static_cast<std::size_t>(-1));

  // Kill the session at several byte offsets (round boundaries and torn
  // tails alike) and resume: history and healed journal must match the
  // uninterrupted run exactly.
  const std::string cut_path = ::testing::TempDir() + "systolic_cut.hpbj";
  for (const double fraction : {0.35, 0.6, 0.85, 0.97}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * fraction);
    SCOPED_TRACE("killed at byte " + std::to_string(cut));
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out << bytes.substr(0, cut);
    }
    const core::JournalContents prefix = core::read_journal(cut_path);
    if (prefix.finalized) {
      continue;
    }
    auto tuner = eval::make_named_tuner("hiperbot", ds, kSeed);
    const auto replayed = core::replay_journal(*tuner, ds.space(), prefix);
    core::JournalWriter writer = core::JournalWriter::append(cut_path, prefix);
    const core::TuningEngine engine({.batch_size = 4, .journal = &writer});
    const auto resumed = engine.run_until(*tuner, ds, stop, replayed);
    ASSERT_EQ(resumed.result.history.size(),
              reference.result.history.size());
    for (std::size_t i = 0; i < reference.result.history.size(); ++i) {
      EXPECT_EQ(resumed.result.history[i].config.values(),
                reference.result.history[i].config.values());
      EXPECT_DOUBLE_EQ(resumed.result.history[i].y,
                       reference.result.history[i].y);
    }
    EXPECT_EQ(slurp(cut_path), bytes);
  }
}

// ------------------------------------------------ wire-protocol round trip

service::JsonValue wire_reply(service::WireService& service,
                              const std::string& line) {
  return service::parse_json(service.handle_line(line));
}

bool wire_ok(const service::JsonValue& response) {
  const service::JsonValue* v = response.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string wire_result_entry(const service::JsonValue& config, double y) {
  std::string out = "{\"config\":[";
  const auto& values = config.as_array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += obs::json_double(values[i].as_number());
  }
  out += "],\"y\":" + obs::json_double(y) + ",\"status\":\"ok\"}";
  return out;
}

TEST(SentinelRoundTrip, WireProtocolEchoesSystolicConfigsExactly) {
  const std::string dir = ::testing::TempDir() + "wire_systolic";
  std::filesystem::remove_all(dir);
  core::SessionManager manager(service::dataset_session_factory(),
                               {.journal_dir = dir});
  service::WireService service(manager);
  auto ds = apps::dataset_by_name("systolic_small").make();

  ASSERT_TRUE(wire_ok(wire_reply(
      service,
      "{\"verb\":\"create\",\"session\":\"sys\","
      "\"dataset\":\"systolic_small\",\"method\":\"hiperbot\",\"seed\":11,"
      "\"batch_size\":2,\"max_evaluations\":12}")));

  double best = std::numeric_limits<double>::infinity();
  std::vector<double> best_wire;
  bool sentinel_seen = false;
  for (int round = 0; round < 4; ++round) {
    const service::JsonValue suggested = wire_reply(
        service, "{\"verb\":\"suggest\",\"session\":\"sys\",\"count\":2}");
    ASSERT_TRUE(wire_ok(suggested));
    const auto& configs = suggested.find("configs")->as_array();
    ASSERT_EQ(configs.size(), 2u);
    std::string results;
    for (const auto& wire_config : configs) {
      const auto& values = wire_config.as_array();
      std::vector<double> decoded;
      decoded.reserve(values.size());
      for (const auto& v : values) {
        decoded.push_back(v.as_number());
      }
      const Configuration c(decoded);
      // Every suggestion that crosses the wire is valid and canonical in
      // the conditional space — sentinels included.
      EXPECT_TRUE(ds.space().satisfies(c));
      for (std::size_t p = 0; p < ds.space().num_params(); ++p) {
        sentinel_seen = sentinel_seen || !ds.space().is_active(c, p);
      }
      const double y = ds.value_of(c);
      if (y < best) {
        best = y;
        best_wire.clear();
        for (const auto& v : values) {
          best_wire.push_back(v.as_number());
        }
      }
      if (!results.empty()) {
        results += ',';
      }
      results += wire_result_entry(wire_config, y);
    }
    ASSERT_TRUE(wire_ok(
        wire_reply(service, "{\"verb\":\"observe\",\"session\":\"sys\","
                            "\"results\":[" +
                                results + "]}")));
  }
  EXPECT_TRUE(sentinel_seen);

  const service::JsonValue status = wire_reply(
      service, "{\"verb\":\"status\",\"session\":\"sys\"}");
  ASSERT_TRUE(wire_ok(status));
  EXPECT_DOUBLE_EQ(status.find("status")->find("best_value")->as_number(),
                   best);
  const auto& best_config = status.find("status")->find("best_config")
                                ->as_array();
  ASSERT_EQ(best_config.size(), best_wire.size());
  for (std::size_t i = 0; i < best_wire.size(); ++i) {
    EXPECT_EQ(best_config[i].as_number(), best_wire[i])
        << "best_config drifted at parameter " << i;
  }
}

// --------------------------------------------------- fail-fast guardrails

TEST(EnumerateGuard, HugeSpaceFailsFastWithStructuredError) {
  auto s = std::make_shared<ParameterSpace>();
  for (int i = 0; i < 8; ++i) {
    std::vector<double> values(32);
    for (std::size_t l = 0; l < values.size(); ++l) {
      values[l] = static_cast<double>(l);
    }
    std::string name = "p";
    name += std::to_string(i);
    s->add(Parameter::categorical_numeric(name, values));
  }
  ASSERT_EQ(s->cross_product_size(), 1ULL << 40);
  try {
    (void)s->enumerate();
    FAIL() << "enumerate() must throw on a 2^40 space";
  } catch (const SpaceTooLargeError& e) {
    EXPECT_EQ(e.estimated_size(), 1ULL << 40);
    EXPECT_EQ(e.limit(), ParameterSpace::kMaxEnumerate);
    EXPECT_NE(std::string(e.what()).find("CandidateStream"),
              std::string::npos)
        << "the error must point at the streaming alternative: " << e.what();
  }
}

TEST(EnumerateGuard, CrossProductOverflowIsDetectedNotWrapped) {
  auto s = std::make_shared<ParameterSpace>();
  for (int i = 0; i < 5; ++i) {  // 8192^5 = 2^65 overflows uint64
    std::vector<double> values(8192);
    for (std::size_t l = 0; l < values.size(); ++l) {
      values[l] = static_cast<double>(l);
    }
    std::string name = "p";
    name += std::to_string(i);
    s->add(Parameter::categorical_numeric(name, values));
  }
  try {
    (void)s->cross_product_size();
    FAIL() << "cross_product_size() must detect 64-bit overflow";
  } catch (const SpaceTooLargeError& e) {
    EXPECT_EQ(e.estimated_size(),
              std::numeric_limits<std::uint64_t>::max());
  }
  // The overflow-safe routing check never throws, even on this space.
  EXPECT_TRUE(s->cross_product_exceeds(1ULL << 62));
  EXPECT_THROW((void)s->enumerate(), SpaceTooLargeError);
}

}  // namespace
}  // namespace hpb
