// Golden pins of the Ranking sweep's observable output. The expected values
// are committed constants, so a rewrite of the sweep must reproduce them
// byte for byte rather than merely agree with itself:
//   - pooled HiPerBOt suggestions on kripke at batch 1 and batch 3;
//   - FakeClock trace bytes of a pooled (kripke) and a streamed (full
//     systolic) traced run, with a serial sweep and with a 3-thread sweep
//     pool, after normalising the machine-dependent `simd` attr;
//   - exhausted-pool behaviour: a pooled suggest() throws "candidate pool
//     exhausted", a pooled suggest_batch() returns an empty batch, and an
//     empty streamed pass falls back to one exploration draw.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "apps/systolic.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "obs/clock.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "space/candidate_stream.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using space::Configuration;

/// Ordinals of `rounds` suggest_batch(k) rounds on kripke, each member
/// observed with its tabulated value before the next round.
std::vector<std::uint64_t> kripke_ordinals(std::size_t k, std::size_t rounds) {
  auto ds = apps::dataset_by_name("kripke").make();
  core::HiPerBOt tuner(ds.space_ptr(), core::HiPerBOtConfig{}, /*seed=*/7);
  std::vector<std::uint64_t> ordinals;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<Configuration> batch = tuner.suggest_batch(k);
    EXPECT_EQ(batch.size(), k) << "round " << r;
    for (const Configuration& c : batch) {
      ordinals.push_back(ds.space().ordinal_of(c));
      tuner.observe(c, ds.value_of(c));
    }
  }
  return ordinals;
}

TEST(SweepGolden, KripkePooledSuggestionsMatchGolden) {
  // 20 random-design draws, then 20 pooled Ranking sweeps.
  const std::vector<std::uint64_t> golden = {
      2023, 1631, 403,  1995, 496,  1035, 1633, 1983, 1263, 256,
      1128, 1664, 116,  1077, 1651, 1896, 123,  1308, 495,  192,
      2003, 2063, 2004, 2164, 404,  2163, 2008, 2243, 2244, 2183,
      2323, 2324, 2043, 2168, 2263, 723,  1203, 1363, 1364, 1204};
  EXPECT_EQ(kripke_ordinals(1, 40), golden);
}

TEST(SweepGolden, KripkePooledBatchesMatchGolden) {
  // 7 random-design rounds of 3, then 7 top-3 pooled sweeps.
  const std::vector<std::uint64_t> golden = {
      2023, 1631, 403,  1995, 496,  1035, 1633, 1983, 1263, 256,  1128,
      1664, 116,  1077, 1651, 1896, 123,  1308, 495,  192,  1452, 2003,
      2004, 2063, 2164, 2024, 2009, 2163, 564,  404,  2183, 2203, 2323,
      2324, 723,  2008, 2243, 563,  2244, 2043, 2083, 803};
  EXPECT_EQ(kripke_ordinals(3, 14), golden);
}

// ------------------------------------------------------- trace bytes

std::string temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "sweep_golden_" + info->name() + "_" + stem;
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

/// FNV-1a 64 of the trace bytes.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct TraceDigest {
  std::size_t bytes = 0;
  std::uint64_t fnv = 0;
  std::size_t sweeps = 0;  // hiperbot.sweep spans, so a pin can't be vacuous

  bool operator==(const TraceDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TraceDigest& d) {
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "0x%016llxULL",
                static_cast<unsigned long long>(d.fnv));
  return os << "{" << d.bytes << ", " << fnv << ", " << d.sweeps << "}";
}

/// One traced TuningEngine run of `tuner` on `objective` under a FakeClock,
/// with `threads` sweep workers (0 = serial sweep).
TraceDigest traced_run(core::HiPerBOt& tuner, tabular::Objective& objective,
                       std::size_t batch, std::size_t budget,
                       std::size_t threads, const std::string& stem) {
  std::optional<ThreadPool> workers;
  if (threads > 0) {
    workers.emplace(threads);
    tuner.set_sweep_pool(&*workers);
  }
  const std::string path = temp_path(stem);
  {
    obs::FakeClock clock(1000, 10);
    obs::JsonlTraceSink sink = obs::JsonlTraceSink::create(path);
    core::EngineConfig config;
    config.batch_size = batch;
    config.recorder.trace = &sink;
    config.recorder.clock = &clock;
    (void)core::TuningEngine(config).run(tuner, objective, budget);
    sink.flush();
  }
  tuner.set_sweep_pool(nullptr);
  const std::string text = normalise_simd(slurp(path));
  std::remove(path.c_str());
  TraceDigest d{text.size(), digest(text), 0};
  const std::string needle = "\"name\":\"hiperbot.sweep\"";
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++d.sweeps;
  }
  return d;
}

TEST(SweepGolden, PooledTraceBytesMatchGolden) {
  const TraceDigest golden[] = {{11845, 0xdb53aa9508c58c30ULL, 7},
                                 {11845, 0x4638727f2d1310d6ULL, 7}};
  const std::size_t threads[] = {0, 3};
  for (std::size_t i = 0; i < 2; ++i) {
    auto ds = apps::dataset_by_name("kripke").make();
    core::HiPerBOt tuner(ds.space_ptr(), core::HiPerBOtConfig{}, 11);
    EXPECT_EQ(traced_run(tuner, ds, /*batch=*/3, /*budget=*/42, threads[i],
                         "pooled.jsonl"),
              golden[i])
        << threads[i] << " sweep threads";
  }
}

TEST(SweepGolden, StreamedTraceBytesMatchGolden) {
  const TraceDigest golden[] = {{15819, 0x952163ca7b120be0ULL, 10},
                                 {15819, 0xb7192d7e3491c844ULL, 10}};
  const std::size_t threads[] = {0, 3};
  for (std::size_t i = 0; i < 2; ++i) {
    apps::SystolicObjective objective;  // ~2^34 raw: sampled streamed passes
    core::HiPerBOt tuner(objective.space_ptr(), core::HiPerBOtConfig{}, 11);
    EXPECT_EQ(traced_run(tuner, objective, /*batch=*/1, /*budget=*/30,
                         threads[i], "streamed.jsonl"),
              golden[i])
        << threads[i] << " sweep threads";
  }
}

// ---------------------------------------------------- exhausted pools

core::HiPerBOtConfig four_initial_samples() {
  core::HiPerBOtConfig config;
  config.initial_samples = 4;
  return config;
}

/// Observe every pool member of the separable dataset (60 configurations)
/// except the pool indices in `free`.
void observe_all_but(core::HiPerBOt& tuner,
                     const tabular::TabularObjective& ds,
                     const std::set<std::size_t>& free) {
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  for (std::size_t j = 0; j < pool.size(); ++j) {
    if (!free.contains(j)) {
      tuner.observe(pool[j], ds.value_of(pool[j]));
    }
  }
}

TEST(SweepExhaustion, PooledSuggestThrowsCandidatePoolExhausted) {
  auto ds = testutil::separable_dataset();
  core::HiPerBOt tuner(ds.space_ptr(), four_initial_samples(), 3);
  observe_all_but(tuner, ds, {});
  try {
    (void)tuner.suggest();
    FAIL() << "suggest() on an exhausted pool must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("candidate pool exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepExhaustion, PooledBatchShrinksThenComesBackEmpty) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  core::HiPerBOt tuner(ds.space_ptr(), four_initial_samples(), 3);
  observe_all_but(tuner, ds, {17, 41});
  // Two free configurations: a batch of 5 takes both (they are then
  // pending), and the next batch finds nothing left.
  std::set<std::uint64_t> got;
  for (const Configuration& c : tuner.suggest_batch(5)) {
    got.insert(ds.space().ordinal_of(c));
  }
  EXPECT_EQ(got, (std::set<std::uint64_t>{ds.space().ordinal_of(pool[17]),
                                          ds.space().ordinal_of(pool[41])}));
  EXPECT_TRUE(tuner.suggest_batch(3).empty());
}

TEST(SweepExhaustion, EmptyStreamedPassFallsBackToOneExplorationDraw) {
  // Sampled passes of 4 raw indices over the 60-config separable space.
  // Every configuration the first two passes visit is observed up front,
  // so both sweeps come back empty although the space is not exhausted.
  auto ds = testutil::separable_dataset();
  core::HiPerBOtConfig config = four_initial_samples();
  config.sweep_source = core::SweepSource::kStreamed;
  config.stream.max_exhaustive = 0;
  config.stream.pass_raw_budget = 4;
  constexpr std::uint64_t kSeed = 5;
  core::HiPerBOt tuner(ds.space_ptr(), config, kSeed);
  const space::CandidateStream stream(ds.space_ptr(), kSeed, config.stream);
  ASSERT_FALSE(stream.exhaustive());
  std::set<std::uint64_t> swept;
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    for (const auto& candidate : stream.pass_candidates(pass)) {
      if (swept.insert(candidate.ordinal).second) {
        tuner.observe(candidate.config, ds.value_of(candidate.config));
      }
    }
  }
  ASSERT_GE(swept.size(), config.initial_samples);

  // Pass 0 is empty: the batch of 3 is one exploration draw.
  const std::vector<Configuration> batch = tuner.suggest_batch(3);
  ASSERT_EQ(batch.size(), 1u);
  const std::uint64_t drawn = ds.space().ordinal_of(batch.front());
  EXPECT_FALSE(swept.contains(drawn));
  // Pass 1 is empty too: suggest() explores as well.
  const std::uint64_t next = ds.space().ordinal_of(tuner.suggest());
  EXPECT_FALSE(swept.contains(next));
  EXPECT_NE(next, drawn);
  EXPECT_EQ((std::vector<std::uint64_t>{drawn, next}),
            (std::vector<std::uint64_t>{49, 26}));
}

}  // namespace
}  // namespace hpb
