// The level-domain validity check (space/level_rules.hpp) and the streamed
// generator built on it, against the per-index reference they replace:
//   - FixedDivisor: multiply-high division equals hardware division for
//     edge-case and random divisors and dividends;
//   - LevelRules: over every raw ordinal of the 500 seeded random
//     conditional spaces, a conditional-of-conditional chain with an opaque
//     predicate, kripke, lulesh and systolic_small, the compiled check
//     ParameterSpace::accepts_ordinal equals satisfies(configuration_at())
//     and decodes the same levels; on the random and hand-built spaces it
//     also equals validity re-derived from the registered structure alone;
//   - StreamedGeneration: CandidateStream's chunk output (exhaustive and
//     forced-Feistel passes, several chunk sizes) equals the old
//     configuration_at() + satisfies() loop at 1, 2, 7 and hardware worker
//     threads, including one sampled pass over the full systolic space.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "apps/kripke.hpp"
#include "apps/lulesh.hpp"
#include "apps/registry.hpp"
#include "apps/systolic.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "space/candidate_stream.hpp"
#include "space/level_rules.hpp"
#include "space/parameter_space.hpp"
#include "sweep_oracles.hpp"
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

// ------------------------------------------------------------ FixedDivisor

TEST(FixedDivisor, MatchesHardwareDivision) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> divisors = {1, 2, 3, 5, 6, 7, 10, 641, 1000,
                                         (1ULL << 32) - 1, 1ULL << 32,
                                         (1ULL << 32) + 1, kMax / 3, kMax - 1,
                                         kMax};
  Rng rng(0xD1F1DE);
  for (int t = 0; t < 200; ++t) {
    // Spread divisors over every magnitude, not just the low bits.
    const unsigned bits = 1 + static_cast<unsigned>(rng.index(64));
    const std::uint64_t d = rng.next_u64() >> (64 - bits);
    divisors.push_back(d == 0 ? 1 : d);
  }
  for (const std::uint64_t d : divisors) {
    SCOPED_TRACE("divisor " + std::to_string(d));
    const space::FixedDivisor div(d);
    // The largest multiple of d and its neighbours: where a magic number
    // rounded the wrong way first shows.
    const std::uint64_t top = kMax / d * d;
    std::vector<std::uint64_t> dividends = {
        0, 1, d - 1, d, d + 1, 2 * d - 1, top - 1, top, kMax - 1, kMax};
    for (int t = 0; t < 200; ++t) {
      const unsigned bits = 1 + static_cast<unsigned>(rng.index(64));
      dividends.push_back(rng.next_u64() >> (64 - bits));
    }
    for (const std::uint64_t n : dividends) {
      ASSERT_EQ(div.divide(n), n / d) << "dividend " << n;
    }
  }
  EXPECT_THROW(space::FixedDivisor(0), Error);
}

// ---------------------------------------------- independent reference

/// Mixed-radix levels of `ordinal` (last parameter fastest), decoded with
/// hardware division.
std::vector<std::size_t> radix_levels(const std::vector<std::size_t>& radix,
                                      std::uint64_t ordinal) {
  std::vector<std::size_t> levels(radix.size());
  for (std::size_t i = radix.size(); i-- > 0;) {
    levels[i] = static_cast<std::size_t>(ordinal % radix[i]);
    ordinal /= radix[i];
  }
  return levels;
}

/// Validity re-derived from what random_conditional_space registered:
/// activity resolves top-down through the parents, inactive parameters
/// must hold level 0, and 2^a divides 2^b exactly when a <= b.
bool spec_valid(const testutil::RandomSpaceSpec& spec,
                const std::vector<std::size_t>& levels) {
  const std::size_t n = spec.levels.size();
  std::vector<bool> active(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.parent[i] == SIZE_MAX) {
      continue;
    }
    bool activating = false;
    for (const std::size_t l : spec.active_levels[i]) {
      activating = activating || l == levels[spec.parent[i]];
    }
    active[i] = active[spec.parent[i]] && activating;
    if (!active[i] && levels[i] != 0) {
      return false;
    }
  }
  for (const auto& [a, b] : spec.divisibility) {
    if (active[a] && active[b] && levels[a] > levels[b]) {
      return false;
    }
  }
  return true;
}

/// The compiled check on every raw ordinal of `s`: equal to
/// satisfies(configuration_at(ordinal)), decoding the same levels on
/// acceptance, and equal to `reference(ordinal)` when one is given.
/// Returns the number of accepted ordinals.
std::uint64_t expect_compiled_check_matches(
    const ParameterSpace& s,
    const std::function<bool(std::uint64_t)>& reference = {}) {
  const std::uint64_t raw = s.cross_product_size();
  std::vector<std::uint32_t> levels(s.num_params());
  std::uint64_t accepted = 0;
  for (std::uint64_t ordinal = 0; ordinal < raw; ++ordinal) {
    const Configuration c = s.configuration_at(ordinal);
    const bool compiled = s.accepts_ordinal(ordinal, levels.data());
    EXPECT_EQ(compiled, s.satisfies(c)) << "ordinal " << ordinal;
    if (reference) {
      EXPECT_EQ(compiled, reference(ordinal)) << "ordinal " << ordinal;
    }
    if (compiled) {
      ++accepted;
      EXPECT_EQ(s.configuration_from_levels(levels.data()), c)
          << "ordinal " << ordinal;
    }
    if (::testing::Test::HasFailure()) {
      return accepted;  // one ordinal's report is enough
    }
  }
  return accepted;
}

// ---------------------------------------------------------- LevelRules

TEST(LevelRules, CompiledCheckMatchesOnRandomConditionalSpaces) {
  std::uint64_t accepted = 0;
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    testutil::RandomSpaceSpec spec;
    const SpacePtr s = testutil::random_conditional_space(0xA110'0000 + t,
                                                          &spec);
    accepted += expect_compiled_check_matches(*s, [&](std::uint64_t ord) {
      return spec_valid(spec, radix_levels(spec.levels, ord));
    });
    total += s->cross_product_size();
    ASSERT_FALSE(HasFailure());
  }
  // Both outcomes must be exercised in bulk.
  EXPECT_GT(accepted, kNumSpaces);
  EXPECT_LT(accepted, total / 2);
}

/// A conditional-of-conditional chain a -> b -> c -> d, a divisibility
/// rule across the chain, and an opaque predicate on top.
struct ChainSpace {
  SpacePtr space;
  static constexpr std::size_t kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

  ChainSpace() {
    auto s = std::make_shared<ParameterSpace>();
    s->add(Parameter::categorical_numeric("a", {1, 2, 4}));
    s->add_conditional(Parameter::categorical_numeric("b", {1, 2, 4, 8}), "a",
                       std::vector<double>{2, 4});
    s->add_conditional(Parameter::categorical_numeric("c", {1, 2, 3}), "b",
                       std::vector<double>{4, 8});
    s->add_conditional(Parameter::integer("d", 0, 1), "c",
                       std::vector<double>{2});
    s->add(Parameter::categorical_numeric("e", {1, 2, 4, 8, 6}));
    s->add_divisibility("c", "e");
    s->add_constraint(
        [](const ParameterSpace&, const Configuration& cfg) {
          return cfg.level(kA) + cfg.level(kE) <= 5;
        },
        "a + e levels at most 5");
    space = s;
  }

  /// Validity from first principles.
  static bool valid(const std::vector<std::size_t>& l) {
    const double e_values[] = {1, 2, 4, 8, 6};
    const double c_values[] = {1, 2, 3};
    const bool b_active = l[kA] == 1 || l[kA] == 2;
    const bool c_active = b_active && (l[kB] == 2 || l[kB] == 3);
    const bool d_active = c_active && l[kC] == 1;
    if ((!b_active && l[kB] != 0) || (!c_active && l[kC] != 0) ||
        (!d_active && l[kD] != 0)) {
      return false;
    }
    if (c_active && std::fmod(e_values[l[kE]], c_values[l[kC]]) != 0.0) {
      return false;
    }
    return l[kA] + l[kE] <= 5;
  }
};

TEST(LevelRules, CompiledCheckMatchesOnChainsAndOpaquePredicates) {
  const ChainSpace chain;
  const std::vector<std::size_t> radix = {3, 4, 3, 2, 5};
  const std::uint64_t accepted =
      expect_compiled_check_matches(*chain.space, [&](std::uint64_t ord) {
        return ChainSpace::valid(radix_levels(radix, ord));
      });
  EXPECT_GT(accepted, 10u);
  EXPECT_EQ(accepted, chain.space->enumerate().size());
}

TEST(LevelRules, CompiledCheckMatchesOnAppSpaces) {
  const SpacePtr spaces[] = {
      apps::kripke_exec_space(), apps::lulesh_space(),
      apps::dataset_by_name("systolic_small").make().space_ptr()};
  for (const SpacePtr& s : spaces) {
    SCOPED_TRACE("space with " + std::to_string(s->num_params()) +
                 " parameters");
    const std::uint64_t accepted = expect_compiled_check_matches(*s);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, s->cross_product_size());
  }
}

// ---------------------------------------------------- StreamedGeneration

/// Every pass candidate of `stream` at every worker count equals the
/// reference per-index loop, chunk by chunk, in order.
void expect_stream_matches_reference(const CandidateStream& stream,
                                     std::uint64_t pass) {
  static ThreadPool pool1(1), pool2(2), pool7(7), pool_hw(0);
  std::vector<CandidateStream::Candidate> reference;
  for (std::size_t chunk = 0; chunk < stream.num_chunks(); ++chunk) {
    for (auto& c : testutil::reference_chunk_candidates(stream, pass, chunk)) {
      reference.push_back(std::move(c));
    }
  }
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool2,
                           &pool7, &pool_hw}) {
    const auto got = stream.pass_candidates(pass, pool);
    ASSERT_EQ(got.size(), reference.size())
        << (pool != nullptr ? pool->size() : 0) << " workers";
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ordinal, reference[i].ordinal) << "candidate " << i;
      ASSERT_EQ(got[i].pass_index, reference[i].pass_index);
      ASSERT_EQ(got[i].config.values(), reference[i].config.values());
    }
  }
}

TEST(StreamedGeneration, ChunkOutputMatchesReferenceLoopOnRandomSpaces) {
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = testutil::random_conditional_space(0xA110'0000 + t);
    // Exhaustive identity pass, multi-chunk.
    expect_stream_matches_reference(
        CandidateStream(s, /*seed=*/t, StreamConfig{.chunk = 64}), 0);
    // Forced Feistel over the whole cross product.
    expect_stream_matches_reference(
        CandidateStream(s, /*seed=*/0xFE15 + t,
                        StreamConfig{.chunk = 256,
                                     .max_exhaustive = 0,
                                     .pass_raw_budget = 1ULL << 20}),
        t % 3);
    ASSERT_FALSE(HasFailure());
  }
}

TEST(StreamedGeneration, ChunkOutputMatchesReferenceLoopOnChainAndApps) {
  const SpacePtr spaces[] = {
      ChainSpace().space, apps::kripke_exec_space(), apps::lulesh_space(),
      apps::dataset_by_name("systolic_small").make().space_ptr()};
  for (const SpacePtr& s : spaces) {
    SCOPED_TRACE("space with " + std::to_string(s->num_params()) +
                 " parameters");
    expect_stream_matches_reference(CandidateStream(s, /*seed=*/5), 0);
    expect_stream_matches_reference(
        CandidateStream(s, /*seed=*/6,
                        StreamConfig{.chunk = 1000,
                                     .max_exhaustive = 0,
                                     .pass_raw_budget = 1ULL << 20}),
        1);
  }
}

TEST(StreamedGeneration, SampledSystolicPassMatchesReferenceLoop) {
  const apps::SystolicObjective objective;  // raw cross product ~2^33.9
  const CandidateStream stream(objective.space_ptr(), /*seed=*/11);
  ASSERT_FALSE(stream.exhaustive());
  expect_stream_matches_reference(stream, 2);

  // The column block itself: same survivors as the Candidate view.
  CandidateStream::ChunkColumns block;
  for (std::size_t chunk = 0; chunk < stream.num_chunks(); ++chunk) {
    stream.chunk_columns(2, chunk, block);
    const auto reference = testutil::reference_chunk_candidates(stream, 2,
                                                                chunk);
    ASSERT_EQ(block.size(), reference.size());
    for (std::size_t t = 0; t < block.size(); ++t) {
      EXPECT_EQ(block.ordinal(t), reference[t].ordinal);
      EXPECT_EQ(block.pass_index(t), reference[t].pass_index);
      for (std::size_t i = 0; i < objective.space().num_params(); ++i) {
        EXPECT_EQ(block.columns()[i][t], reference[t].config.level(i));
      }
    }
  }
}

}  // namespace
}  // namespace hpb
