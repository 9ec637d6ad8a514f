// Runtime SIMD dispatch (common/simd_tier.hpp, core/simd.hpp) and the
// streaming table top-k (core/acquisition.hpp):
//   - tier naming, hardware detection, and the strict HPB_SIMD override
//     (unknown values and unavailable tiers throw instead of silently
//     falling back);
//   - score_block is bitwise-identical to the scalar per-candidate path on
//     every compiled tier, across randomized conditional/constrained
//     discrete spaces, a mixed discrete+continuous pool, and unaligned
//     block boundaries (vector-width tails);
//   - sweep_topk over both sources (pool slices and stream passes)
//     reproduces the generic per-candidate sweep exactly — hits, score
//     bits, and order — for every tier, any thread count, and multi-chunk
//     pools where the bounded merge actually truncates;
//   - HiPerBOt's suggestions are identical under every forced HPB_SIMD
//     tier, for both pooled and streamed Ranking sweeps.
#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "core/hiperbot.hpp"
#include "space/candidate_stream.hpp"
#include "sweep_oracles.hpp"
#include "test_util.hpp"

namespace hpb::core {
namespace {

using space::Configuration;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

using testutil::runnable_simd_tiers;
using testutil::SimdEnvGuard;

/// Deterministic objective over any all-discrete space.
double toy_value(const Configuration& c, std::size_t j) {
  double y = static_cast<double>(j % 13) * 1e-3;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double d = c[i] - 2.0;
    y += d * d;
  }
  return y;
}

/// Surrogate + pool + columns + table over one random conditional space.
struct TableFixture {
  space::SpacePtr space;
  std::vector<Configuration> pool;
  History history;
  std::optional<TpeSurrogate> surrogate;
  std::optional<PoolColumns> columns;
  std::optional<AcquisitionTable> table;

  explicit TableFixture(std::uint64_t seed) {
    space = testutil::random_conditional_space(seed);
    pool = space->enumerate();
    for (std::size_t j = 0; j < pool.size(); j += 3) {
      history.add(pool[j], toy_value(pool[j], j));
    }
    surrogate.emplace(space, history, 0.2);
    columns.emplace(*space, pool);
    table.emplace(*surrogate, *columns);
  }
};

// ----------------------------------------------- dispatch + env override

TEST(SimdDispatch, TierNamesDetectionAndAvailability) {
  EXPECT_EQ(simd_tier_name(SimdTier::kScalar), "scalar");
  EXPECT_EQ(simd_tier_name(SimdTier::kAvx2), "avx2");
  EXPECT_EQ(simd_tier_name(SimdTier::kNeon), "neon");
  EXPECT_EQ(simd_tier_name(SimdTier::kAvx512), "avx512");
  EXPECT_TRUE(simd_tier_available(SimdTier::kScalar));
  // The detected tier must be runnable, and the active tier (no override
  // in a normal test environment) must be too.
  EXPECT_TRUE(simd_tier_available(detected_simd_tier()));
  EXPECT_TRUE(simd_tier_available(active_simd_tier()));
  // At most one vector family exists per architecture.
  EXPECT_FALSE(simd_tier_available(SimdTier::kAvx2) &&
               simd_tier_available(SimdTier::kNeon));
  EXPECT_FALSE(simd_tier_available(SimdTier::kAvx512) &&
               simd_tier_available(SimdTier::kNeon));
  // AVX-512 runs the sweep's AVX2 kernel, so it implies AVX2, and
  // detection picks the widest tier.
  if (simd_tier_available(SimdTier::kAvx512)) {
    EXPECT_TRUE(simd_tier_available(SimdTier::kAvx2));
    EXPECT_EQ(detected_simd_tier(), SimdTier::kAvx512);
  } else if (simd_tier_available(SimdTier::kAvx2)) {
    EXPECT_EQ(detected_simd_tier(), SimdTier::kAvx2);
  }
}

TEST(SimdDispatch, EnvOverrideIsStrictAndRefreshable) {
  SimdEnvGuard guard;
  guard.set("off");
  EXPECT_EQ(active_simd_tier(), SimdTier::kScalar);
  // Forcing an available vector tier selects it.
  for (SimdTier tier : runnable_simd_tiers()) {
    if (tier == SimdTier::kScalar) {
      continue;
    }
    guard.set(std::string(simd_tier_name(tier)));
    EXPECT_EQ(active_simd_tier(), tier);
  }
  // Unknown values are an error, not a fallback; matching is exact.
  for (const char* value : {"sse9", "AVX512", "avx-512", "avx512f", "avx5",
                            "avx512 ", "scalar"}) {
    guard.set(value);
    EXPECT_THROW((void)active_simd_tier(), Error) << "'" << value << "'";
  }
  // So is a tier this build/CPU cannot run.
  for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512, SimdTier::kNeon}) {
    if (!simd_tier_available(tier)) {
      guard.set(std::string(simd_tier_name(tier)));
      EXPECT_THROW((void)active_simd_tier(), Error)
          << simd_tier_name(tier) << " should be unavailable here";
    }
  }
  // Empty / unset falls back to hardware detection.
  ::unsetenv("HPB_SIMD");
  refresh_simd_tier();
  EXPECT_EQ(active_simd_tier(), detected_simd_tier());
}

// -------------------------------------- score_block bitwise parity

TEST(SimdDispatch, ScoreBlockBitwiseParityOnRandomSpaces) {
  const std::vector<SimdTier> tiers = runnable_simd_tiers();
  for (std::uint64_t t = 0; t < 40; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const TableFixture fx(0x51D0'0000 + t);
    const std::size_t n = fx.pool.size();
    // Per-candidate reference: table.score, itself pinned bitwise to
    // surrogate.acquisition by the Acquisition suite.
    std::vector<double> reference(n);
    for (std::size_t j = 0; j < n; ++j) {
      reference[j] = fx.table->score(*fx.columns, j);
      ASSERT_EQ(bits(reference[j]), bits(fx.surrogate->acquisition(fx.pool[j])))
          << "candidate " << j;
    }
    for (const SimdTier tier : tiers) {
      std::vector<double> out(n);
      fx.table->score_block(fx.columns->block(), 0, n, out.data(), tier);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(bits(out[j]), bits(reference[j]))
            << simd_tier_name(tier) << " candidate " << j;
      }
    }
  }
}

TEST(SimdDispatch, ScoreBlockHandlesUnalignedRangesAndTails) {
  // Block boundaries that are not multiples of any vector width, so every
  // tier's tail path runs and lane offsets stay honest.
  const TableFixture fx(0x51D0'00FF);
  const std::size_t n = fx.pool.size();
  ASSERT_GE(n, 12u);
  std::vector<double> reference(n);
  fx.table->score_block(fx.columns->block(), 0, n, reference.data(),
                        SimdTier::kScalar);
  for (const SimdTier tier : runnable_simd_tiers()) {
    for (const auto& [begin, end] :
         {std::pair<std::size_t, std::size_t>{1, n - 2},
          {3, 4},  // single candidate, pure tail
          {0, 7},
          {n - 5, n}}) {
      std::vector<double> out(end - begin);
      fx.table->score_block(fx.columns->block(), begin, end - begin,
                            out.data(), tier);
      for (std::size_t j = begin; j < end; ++j) {
        ASSERT_EQ(bits(out[j - begin]), bits(reference[j]))
            << simd_tier_name(tier) << " range [" << begin << ", " << end
            << ") candidate " << j;
      }
    }
  }
  // Rows past the block, and a block with the wrong parameter count, are
  // errors rather than out-of-bounds gathers.
  std::vector<double> out(n + 1);
  EXPECT_THROW(fx.table->score_block(fx.columns->block(), 0, n + 1, out.data()),
               Error);
  EXPECT_THROW(fx.table->score_block(fx.columns->block(), n, 1, out.data()),
               Error);
  const ColumnBlock block = fx.columns->block();
  EXPECT_THROW(fx.table->score_block({block.data.first(block.data.size() - 1),
                                      block.rows},
                                     0, n, out.data()),
               Error);
}

TEST(SimdDispatch, ScoreBlockBitwiseParityOnMixedSpace) {
  // Mixed pool with repeated continuous values: the continuous column
  // indexes distinct-value ranks, which the gathers must follow just like
  // discrete levels.
  auto space = testutil::mixed_space();
  std::vector<Configuration> pool;
  for (double level : {0.0, 1.0, 2.0}) {
    for (double v : {0.25, 1.75, 3.5, 3.5, 9.0, 6.125, 0.25}) {
      pool.emplace_back(std::vector<double>{level, v});
    }
  }
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 2) {
    h.add(pool[j], pool[j][1] + static_cast<double>(pool[j].level(0)));
  }
  const TpeSurrogate s(space, h, 0.3);
  const PoolColumns columns(*space, pool);
  ASSERT_TRUE(columns.is_continuous(1));
  const AcquisitionTable table(s, columns);
  std::vector<double> reference(pool.size());
  for (std::size_t j = 0; j < pool.size(); ++j) {
    reference[j] = table.score(columns, j);
  }
  for (const SimdTier tier : runnable_simd_tiers()) {
    std::vector<double> out(pool.size());
    table.score_block(columns.block(), 0, pool.size(), out.data(), tier);
    for (std::size_t j = 0; j < pool.size(); ++j) {
      EXPECT_EQ(bits(out[j]), bits(reference[j]))
          << simd_tier_name(tier) << " candidate " << j;
    }
  }
}

// ------------------------------------------------ streaming table top-k

TEST(StreamingTopk, TableTopkMatchesGenericSweepOnRandomSpaces) {
  for (std::uint64_t t = 0; t < 30; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const TableFixture fx(0x70C0'0000 + t);
    for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
      const std::vector<SweepHit> reference = acquisition_topk(
          fx.columns->size(), k, nullptr,
          [&](std::size_t j) { return fx.table->score(*fx.columns, j); },
          [&](std::size_t j) { return fx.columns->ordinals()[j] % 7 == 0; });
      for (const SimdTier tier : runnable_simd_tiers()) {
        const std::vector<SweepHit> got = sweep_topk(
            PoolSource{*fx.columns}, *fx.table, k, nullptr,
            [](const SweepHit& hit) { return hit.ordinal % 7 == 0; }, tier);
        ASSERT_EQ(got.size(), reference.size()) << simd_tier_name(tier);
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(got[i].index, reference[i].index) << simd_tier_name(tier);
          EXPECT_EQ(bits(got[i].score), bits(reference[i].score));
          EXPECT_EQ(got[i].ordinal, fx.columns->ordinals()[got[i].index]);
        }
      }
    }
  }
}

TEST(StreamingTopk, MultiChunkBoundedMergeMatchesGenericForAnyThreadCount) {
  // A 2^16 pool spans 8 fixed chunks, so the bounded per-chunk lists and
  // the serial merge both truncate; heavy score ties (few levels) exercise
  // the lowest-index tie-break through the merge.
  auto space = std::make_shared<space::ParameterSpace>();
  for (int i = 0; i < 4; ++i) {
    space->add(space::Parameter::integer("p" + std::to_string(i), 0, 15));
  }
  const std::vector<Configuration> pool = space->enumerate();
  ASSERT_EQ(pool.size(), 8 * kSweepChunk);
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 1021) {
    h.add(pool[j], toy_value(pool[j], j));
  }
  const TpeSurrogate s(space, h, 0.2);
  const PoolColumns columns(*space, pool);
  const AcquisitionTable table(s, columns);
  const std::vector<SweepHit> reference = acquisition_topk(
      columns.size(), 7, nullptr,
      [&](std::size_t j) { return table.score(columns, j); },
      [&](std::size_t j) { return columns.ordinals()[j] % 5 == 0; });
  ASSERT_EQ(reference.size(), 7u);
  ThreadPool pool1(1), pool2(2), pool7(7), pool_hw(0);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool7, &pool_hw};
  for (const SimdTier tier : runnable_simd_tiers()) {
    for (ThreadPool* workers : pools) {
      const std::vector<SweepHit> got = sweep_topk(
          PoolSource{columns}, table, 7, workers,
          [](const SweepHit& hit) { return hit.ordinal % 5 == 0; }, tier);
      ASSERT_EQ(got.size(), reference.size()) << simd_tier_name(tier);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(got[i].index, reference[i].index) << simd_tier_name(tier);
        EXPECT_EQ(bits(got[i].score), bits(reference[i].score));
      }
    }
  }
}

TEST(StreamingTopk, StreamedTableSweepMatchesScoreConfigSweep) {
  ThreadPool pool2(2);
  for (std::uint64_t t = 0; t < 30; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    auto space = testutil::random_conditional_space(0x57E0'0000 + t);
    const std::vector<Configuration> pool = space->enumerate();
    History h;
    for (std::size_t j = 0; j < pool.size(); j += 3) {
      h.add(pool[j], toy_value(pool[j], j));
    }
    const TpeSurrogate s(space, h, 0.2);
    // A streamed space's table is the pooled table over its level layout.
    const PoolColumns layout(*space, {});
    const AcquisitionTable table(s, layout);
    // Small chunks force a multi-chunk streamed pass.
    const space::CandidateStream stream(space, /*seed=*/t,
                                        space::StreamConfig{.chunk = 64});
    const auto excluded = [](const SweepHit& hit) {
      return hit.ordinal % 3 == 0;
    };
    const std::vector<SweepHit> reference = acquisition_topk_stream(
        stream, /*pass=*/0, /*k=*/5, nullptr,
        [&](const Configuration& c) { return s.acquisition(c); }, excluded);
    for (const SimdTier tier : runnable_simd_tiers()) {
      for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool2}) {
        const std::vector<SweepHit> got =
            sweep_topk(StreamSource{stream, /*pass=*/0}, table, /*k=*/5,
                       workers, excluded, tier);
        ASSERT_EQ(got.size(), reference.size()) << simd_tier_name(tier);
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(got[i].index, reference[i].index);
          EXPECT_EQ(bits(got[i].score), bits(reference[i].score));
          EXPECT_EQ(got[i].ordinal, reference[i].ordinal);
        }
      }
    }
  }
}

// -------------------------------- end-to-end: forced tiers, same tuner run

std::vector<std::uint64_t> forced_tier_run(SweepSource source) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 8;
  config.sweep_source = source;
  HiPerBOt tuner(ds.space_ptr(), config, 99);
  ThreadPool pool(2);
  tuner.set_sweep_pool(&pool);
  std::vector<std::uint64_t> seq;
  for (int t = 0; t < 25; ++t) {
    const Configuration c = tuner.suggest();
    seq.push_back(ds.space().ordinal_of(c));
    tuner.observe(c, ds.value_of(c));
  }
  seq.push_back(bits(tuner.history().best_value()));
  return seq;
}

TEST(StreamingTopk, SuggestionsIdenticalUnderEveryForcedTier) {
  SimdEnvGuard guard;
  guard.set("off");
  const auto pooled_reference = forced_tier_run(SweepSource::kPooled);
  const auto streamed_reference = forced_tier_run(SweepSource::kStreamed);
  // Streamed and pooled sweeps agree on a flat space (pinned elsewhere);
  // here both must also be tier-invariant.
  EXPECT_EQ(streamed_reference, pooled_reference);
  for (const SimdTier tier : runnable_simd_tiers()) {
    if (tier == SimdTier::kScalar) {
      continue;
    }
    guard.set(std::string(simd_tier_name(tier)));
    EXPECT_EQ(forced_tier_run(SweepSource::kPooled), pooled_reference)
        << simd_tier_name(tier);
    EXPECT_EQ(forced_tier_run(SweepSource::kStreamed), streamed_reference)
        << simd_tier_name(tier);
  }
}

}  // namespace
}  // namespace hpb::core
