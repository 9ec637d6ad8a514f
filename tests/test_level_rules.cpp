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
//   - PrefixFilter: the compiled bitset over the leading parameters never
//     rejects an ordinal accepts_ordinal accepts (every raw ordinal of the
//     random, chain and app spaces, a sampled pass of the full systolic
//     space), equals the prefix's rules re-derived from the registered
//     structure, and handles its edge cases: no rule in the prefix, a
//     prefix covering every parameter, a first parameter past the budget,
//     a continuous parameter, a space extended or copied after its filter
//     was built, and a first use from several threads at once;
//   - StreamedGeneration: CandidateStream's chunk output (exhaustive and
//     forced-Feistel passes, several chunk sizes) equals the old
//     configuration_at() + satisfies() loop at 1, 2, 7 and hardware worker
//     threads, including one sampled pass over the full systolic space,
//     with the prefix filter active wherever a rule lies in the prefix;
//   - StreamedGenerationTiers: the same chunks under every runnable SIMD
//     tier, forced through HPB_SIMD, equal the scalar tier's and the
//     reference loop's, column by column — on the random, chain and
//     systolic spaces, chunk and pass tails that are not a multiple of
//     eight, an inactive filter, opaque predicates, and spaces at and past
//     the vector decode's exactness bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
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
using space::PrefixFilter;
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
/// must hold level 0, and 2^a divides 2^b exactly when a <= b. Only the
/// rules over parameters below `prefix` count (all of them by default).
bool spec_valid(const testutil::RandomSpaceSpec& spec,
                const std::vector<std::size_t>& levels,
                std::size_t prefix = SIZE_MAX) {
  const std::size_t n = std::min(spec.levels.size(), prefix);
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
    if (a < n && b < n && active[a] && active[b] && levels[a] > levels[b]) {
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

  /// The conditionals and the divisibility rule, from first principles.
  static bool structurally_valid(const std::vector<std::size_t>& l) {
    const double e_values[] = {1, 2, 4, 8, 6};
    const double c_values[] = {1, 2, 3};
    const bool b_active = l[kA] == 1 || l[kA] == 2;
    const bool c_active = b_active && (l[kB] == 2 || l[kB] == 3);
    const bool d_active = c_active && l[kC] == 1;
    if ((!b_active && l[kB] != 0) || (!c_active && l[kC] != 0) ||
        (!d_active && l[kD] != 0)) {
      return false;
    }
    return !c_active || std::fmod(e_values[l[kE]], c_values[l[kC]]) == 0.0;
  }

  /// Validity from first principles: the structure and the predicate.
  static bool valid(const std::vector<std::size_t>& l) {
    return structurally_valid(l) && l[kA] + l[kE] <= 5;
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
  std::size_t filtered = 0;
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = testutil::random_conditional_space(0xA110'0000 + t);
    filtered += s->prefix_filter().active() ? 1 : 0;
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
  EXPECT_GT(filtered, kNumSpaces / 2);  // most passes ran filtered
}

TEST(StreamedGeneration, ChunkOutputMatchesReferenceLoopOnChainAndApps) {
  // The chain and systolic_small run filtered; kripke and lulesh, with
  // opaque predicates only, unfiltered.
  const SpacePtr spaces[] = {
      ChainSpace().space, apps::kripke_exec_space(), apps::lulesh_space(),
      apps::dataset_by_name("systolic_small").make().space_ptr()};
  EXPECT_TRUE(spaces[0]->prefix_filter().active());
  EXPECT_TRUE(spaces[3]->prefix_filter().active());
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
  ASSERT_TRUE(objective.space().prefix_filter().active());
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

// ---------------------------------------------------------- PrefixFilter

/// The prefix filter of `s` on every raw ordinal: never false where
/// accepts_ordinal() is true, equal to `prefix_rules(ordinal)` (the rules
/// inside the prefix, re-derived) when one is given, and passing exactly
/// passed() combinations of the prefix. Returns the ordinals it rejects.
std::uint64_t expect_filter_sound(
    const ParameterSpace& s,
    const std::function<bool(std::uint64_t)>& prefix_rules = {}) {
  const PrefixFilter& filter = s.prefix_filter();
  const std::uint64_t raw = s.cross_product_size();
  if (!filter.active()) {
    return 0;
  }
  EXPECT_LE(filter.num_params(), s.num_params());
  EXPECT_LE(filter.entries(), PrefixFilter::kMaxEntries);
  EXPECT_EQ(raw % filter.entries(), 0u);
  std::vector<std::uint32_t> levels(s.num_params());
  std::uint64_t rejected = 0;
  for (std::uint64_t ordinal = 0; ordinal < raw; ++ordinal) {
    const bool passes = filter.passes(ordinal);
    rejected += passes ? 0 : 1;
    if (s.accepts_ordinal(ordinal, levels.data())) {
      EXPECT_TRUE(passes) << "filter drops accepted ordinal " << ordinal;
    }
    if (prefix_rules) {
      EXPECT_EQ(passes, prefix_rules(ordinal)) << "ordinal " << ordinal;
    }
    if (::testing::Test::HasFailure()) {
      return rejected;
    }
  }
  EXPECT_EQ(raw - rejected, filter.passed() * (raw / filter.entries()));
  return rejected;
}

TEST(PrefixFilter, SoundAndExactOnRandomConditionalSpaces) {
  std::size_t filtered = 0;
  std::uint64_t rejected = 0;
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    testutil::RandomSpaceSpec spec;
    const SpacePtr s = testutil::random_conditional_space(0xA110'0000 + t,
                                                          &spec);
    const PrefixFilter& filter = s->prefix_filter();
    // Every random space fits the budget whole, so the prefix ends at the
    // last parameter a rule reads, and holds a rule iff the space does.
    const bool has_rules = s->has_conditionals() || !spec.divisibility.empty();
    ASSERT_EQ(filter.active(), has_rules);
    filtered += filter.active() ? 1 : 0;
    rejected += expect_filter_sound(*s, [&](std::uint64_t ord) {
      return spec_valid(spec, radix_levels(spec.levels, ord),
                        filter.num_params());
    });
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(filtered, kNumSpaces / 2);
  EXPECT_GT(rejected, kNumSpaces);
}

TEST(PrefixFilter, SoundOnChainAndAppSpaces) {
  // The chain's divisibility rule reads its last parameter, so the prefix
  // covers every parameter and the filter is the whole structure; the
  // opaque predicate stays out of it.
  const ChainSpace chain;
  const PrefixFilter& filter = chain.space->prefix_filter();
  ASSERT_TRUE(filter.active());
  EXPECT_EQ(filter.num_params(), chain.space->num_params());
  EXPECT_EQ(filter.entries(), chain.space->cross_product_size());
  EXPECT_EQ(filter.num_rules(), 4u);  // three conditionals, one divisibility
  const std::vector<std::size_t> radix = {3, 4, 3, 2, 5};
  EXPECT_GT(expect_filter_sound(*chain.space,
                                [&](std::uint64_t ord) {
                                  return ChainSpace::structurally_valid(
                                      radix_levels(radix, ord));
                                }),
            0u);

  // Kripke and lulesh hold opaque predicates only: nothing to compile.
  EXPECT_FALSE(apps::kripke_exec_space()->prefix_filter().active());
  EXPECT_FALSE(apps::lulesh_space()->prefix_filter().active());
  const SpacePtr small =
      apps::dataset_by_name("systolic_small").make().space_ptr();
  ASSERT_TRUE(small->prefix_filter().active());
  EXPECT_GT(expect_filter_sound(*small), 0u);
}

TEST(PrefixFilter, CoversSixSystolicParametersAndDropsMostRawIndices) {
  const apps::SystolicObjective objective;
  const ParameterSpace& s = objective.space();
  const PrefixFilter& filter = s.prefix_filter();
  // space_time (4) x part_i/j/k (10 each) x part2_i/j (10 each); part2_k
  // would take it to 4,000,000. Inside: part2_i/j's two conditionals and
  // their two divisibility rules.
  ASSERT_TRUE(filter.active());
  EXPECT_EQ(filter.num_params(), 6u);
  EXPECT_EQ(filter.entries(), 400'000u);
  EXPECT_EQ(filter.num_rules(), 4u);
  EXPECT_LE(filter.bytes(), PrefixFilter::kMaxEntries / 8);
  // row/col/grid: part2_i = part2_j = level 0, 3 x 1000 combinations;
  // grid_l2: part2 level <= part level on i and j, 55 x 55 x 10.
  EXPECT_EQ(filter.passed(), 3u * 1000 + 55 * 55 * 10);

  // Two sampled passes: the filter keeps every accepted ordinal and drops
  // about the share of the cross product it does not pass.
  const CandidateStream stream(objective.space_ptr(), /*seed=*/23);
  std::vector<std::uint32_t> levels(s.num_params());
  std::uint64_t rejected = 0;
  std::uint64_t total = 0;
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    for (std::uint64_t raw = 0; raw < stream.pass_length(); ++raw) {
      const std::uint64_t ordinal = stream.ordinal_at(pass, raw);
      const bool passes = filter.passes(ordinal);
      rejected += passes ? 0 : 1;
      ++total;
      if (s.accepts_ordinal(ordinal, levels.data())) {
        ASSERT_TRUE(passes) << "filter drops accepted ordinal " << ordinal;
      }
    }
  }
  const double expected = 1.0 - static_cast<double>(filter.passed()) /
                                    static_cast<double>(filter.entries());
  EXPECT_NEAR(static_cast<double>(rejected) / static_cast<double>(total),
              expected, 0.01);
}

TEST(PrefixFilter, InactiveWhenNoRuleLiesInThePrefix) {
  // 2048 x 1024 levels pass the budget, so the prefix is `wide` alone and
  // the only rule, on `child`, lies outside it.
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::integer("wide", 0, 2047));
  s->add(Parameter::integer("tall", 0, 1023));
  s->add_conditional(Parameter::categorical_numeric("child", {1, 2, 4}),
                     "tall", std::vector<double>{0, 1});
  EXPECT_FALSE(s->prefix_filter().active());
  expect_stream_matches_reference(CandidateStream(s, /*seed=*/3), 1);
}

TEST(PrefixFilter, InactiveWhenTheFirstParameterPassesTheBudget) {
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::integer("huge", 0, static_cast<std::int64_t>(
                                           PrefixFilter::kMaxEntries)));
  s->add(Parameter::categorical_numeric("a", {1, 2, 4, 8}));
  s->add_conditional(Parameter::categorical_numeric("b", {1, 2}), "a",
                     std::vector<double>{4, 8});
  s->add_divisibility("a", "huge");
  EXPECT_FALSE(s->prefix_filter().active());
  const CandidateStream stream(s, /*seed=*/4);
  ASSERT_FALSE(stream.exhaustive());
  expect_stream_matches_reference(stream, 0);
}

TEST(PrefixFilter, InactiveOnASpaceWithAContinuousParameter) {
  // No ordinals to divide: the stream refuses such a space, and the
  // filter stays empty rather than covering the discrete prefix.
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::categorical_numeric("a", {1, 2, 4}));
  s->add_conditional(Parameter::categorical_numeric("b", {1, 2}), "a",
                     std::vector<double>{2});
  s->add(Parameter::continuous("x", 0.0, 1.0));
  EXPECT_FALSE(s->prefix_filter().active());
  EXPECT_THROW(CandidateStream(s, /*seed=*/1), Error);
}

TEST(PrefixFilter, ExtendingOrCopyingASpaceRecompilesItsFilter) {
  auto s = std::make_shared<ParameterSpace>();
  s->add(Parameter::categorical_numeric("a", {1, 2, 4, 8}));
  s->add_conditional(Parameter::categorical_numeric("b", {1, 2, 4}), "a",
                     std::vector<double>{2, 4});
  s->add(Parameter::categorical_numeric("c", {1, 2, 4, 8}));
  {
    const PrefixFilter& filter = s->prefix_filter();
    ASSERT_TRUE(filter.active());
    EXPECT_EQ(filter.num_params(), 2u);  // c carries no rule yet
    EXPECT_EQ(filter.entries(), 12u);
    EXPECT_EQ(filter.passed(), 2u + 2 * 3);
  }
  // Built above, then extended: the rule on c must show, and the suffix
  // divisor must follow the new cross product.
  s->add_divisibility("c", "a");
  s->add(Parameter::categorical_numeric("d", {1, 3}));
  s->add_conditional(Parameter::categorical_numeric("e", {1, 2}), "d",
                     std::vector<double>{3});
  const PrefixFilter& extended = s->prefix_filter();
  EXPECT_EQ(extended.num_params(), 5u);
  EXPECT_EQ(extended.entries(), 4u * 3 * 4 * 2 * 2);
  EXPECT_GT(expect_filter_sound(*s), 0u);
  expect_stream_matches_reference(
      CandidateStream(s, /*seed=*/8, StreamConfig{.chunk = 16}), 0);

  // A copy compiles its own filter; extending it leaves the original's.
  auto copy = std::make_shared<ParameterSpace>(*s);
  copy->add_divisibility("e", "c");
  EXPECT_EQ(copy->prefix_filter().num_rules(), extended.num_rules() + 1);
  EXPECT_NE(&copy->prefix_filter(), &s->prefix_filter());
  EXPECT_EQ(&s->prefix_filter(), &extended);
  EXPECT_GT(expect_filter_sound(*copy), 0u);

  // Assigning over a space drops the filter it held.
  ParameterSpace assigned;
  assigned.add(Parameter::categorical_numeric("z", {1, 2}));
  EXPECT_FALSE(assigned.prefix_filter().active());
  assigned = *copy;
  EXPECT_EQ(assigned.prefix_filter().num_rules(),
            copy->prefix_filter().num_rules());
  EXPECT_NE(&assigned.prefix_filter(), &copy->prefix_filter());
}

TEST(PrefixFilter, ConcurrentFirstUseCompilesOneFilter) {
  // Sweep workers reach the filter of a fresh space together.
  const apps::SystolicObjective objective;
  const ParameterSpace& s = objective.space();
  std::vector<const PrefixFilter*> seen(4, nullptr);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      threads.emplace_back([&, t] { seen[t] = &s.prefix_filter(); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  for (const PrefixFilter* filter : seen) {
    EXPECT_EQ(filter, seen.front());
  }
  EXPECT_TRUE(seen.front()->active());

  // A pass generated in parallel on another fresh space, first use inside
  // the workers, equals the serial reference.
  const apps::SystolicObjective fresh;
  const CandidateStream stream(fresh.space_ptr(), /*seed=*/29);
  ThreadPool pool(4);
  const auto got = stream.pass_candidates(0, &pool);
  std::vector<std::uint64_t> reference;
  for (std::size_t chunk = 0; chunk < stream.num_chunks(); ++chunk) {
    for (const auto& c : testutil::reference_chunk_candidates(stream, 0,
                                                              chunk)) {
      reference.push_back(c.ordinal);
    }
  }
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ordinal, reference[i]) << "candidate " << i;
  }
}

// ------------------------------------------------ StreamedGenerationTiers

/// `got` holds exactly the candidates of `want`, in order, column by column.
void expect_columns_equal(const CandidateStream::ChunkColumns& got,
                          const std::vector<CandidateStream::Candidate>& want,
                          std::size_t num_params) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got.ordinal(t), want[t].ordinal) << "candidate " << t;
    ASSERT_EQ(got.pass_index(t), want[t].pass_index) << "candidate " << t;
    for (std::size_t i = 0; i < num_params; ++i) {
      ASSERT_EQ(got.columns()[i][t], want[t].config.level(i))
          << "candidate " << t << " param " << i;
    }
  }
}

/// Every chunk of `pass`, generated under every runnable SIMD tier forced
/// through HPB_SIMD, equals the scalar tier's chunk and the reference loop,
/// column by column. Returns the candidates of the pass.
std::size_t expect_tiers_match(const CandidateStream& stream,
                               std::uint64_t pass) {
  const std::size_t n = stream.space().num_params();
  std::vector<std::vector<CandidateStream::Candidate>> reference;
  std::size_t total = 0;
  for (std::size_t chunk = 0; chunk < stream.num_chunks(); ++chunk) {
    reference.push_back(
        testutil::reference_chunk_candidates(stream, pass, chunk));
    total += reference.back().size();
  }
  testutil::SimdEnvGuard guard;
  CandidateStream::ChunkColumns got;
  CandidateStream::ChunkColumns scalar;
  for (const SimdTier tier : testutil::runnable_simd_tiers()) {
    guard.force(tier);
    for (std::size_t chunk = 0; chunk < stream.num_chunks(); ++chunk) {
      SCOPED_TRACE(std::string(simd_tier_name(tier)) + " tier, pass " +
                   std::to_string(pass) + ", chunk " + std::to_string(chunk));
      stream.chunk_columns(pass, chunk, got);  // the forced tier
      stream.chunk_columns(pass, chunk, scalar, SimdTier::kScalar);
      expect_columns_equal(got, reference[chunk], n);
      expect_columns_equal(scalar, reference[chunk], n);
      if (::testing::Test::HasFailure()) {
        return total;  // one chunk's report is enough
      }
    }
  }
  return total;
}

/// True when this binary and CPU run the AVX-512 generator.
bool avx512_runnable() { return simd_tier_available(SimdTier::kAvx512); }

TEST(StreamedGenerationTiers, EveryTierMatchesScalarOnRandomSpaces) {
  std::size_t vector_passes = 0;
  for (std::size_t t = 0; t < kNumSpaces; ++t) {
    SCOPED_TRACE("space seed " + std::to_string(t));
    const SpacePtr s = testutil::random_conditional_space(0xA110'0000 + t);
    // Exhaustive identity pass, multi-chunk, and a forced Feistel pass
    // over the whole cross product.
    const CandidateStream exhaustive(s, /*seed=*/t, StreamConfig{.chunk = 64});
    const CandidateStream feistel(
        s, /*seed=*/0xFE15 + t,
        StreamConfig{.chunk = 256, .max_exhaustive = 0,
                     .pass_raw_budget = 1ULL << 20});
    ASSERT_TRUE(exhaustive.exhaustive());
    ASSERT_FALSE(feistel.exhaustive());
    expect_tiers_match(exhaustive, 0);
    expect_tiers_match(feistel, t % 3);
    vector_passes +=
        feistel.generation_tier(SimdTier::kAvx512) == SimdTier::kAvx512;
    ASSERT_FALSE(HasFailure());
  }
  // Every random space is far inside the exactness bound.
  EXPECT_EQ(vector_passes, avx512_runnable() ? kNumSpaces : 0);
}

TEST(StreamedGenerationTiers, EveryTierMatchesScalarOnChainAndSystolic) {
  const SpacePtr spaces[] = {
      ChainSpace().space,
      apps::dataset_by_name("systolic_small").make().space_ptr()};
  for (const SpacePtr& s : spaces) {
    SCOPED_TRACE("space with " + std::to_string(s->num_params()) +
                 " parameters");
    EXPECT_GT(expect_tiers_match(CandidateStream(s, /*seed=*/5), 0), 0u);
    EXPECT_GT(expect_tiers_match(
                  CandidateStream(s, /*seed=*/6,
                                  StreamConfig{.chunk = 1000,
                                               .max_exhaustive = 0,
                                               .pass_raw_budget = 1ULL << 20}),
                  1),
              0u);
  }
  // Sampled passes of the full ~2^34 systolic space.
  const apps::SystolicObjective objective;
  const CandidateStream stream(objective.space_ptr(), /*seed=*/23);
  ASSERT_FALSE(stream.exhaustive());
  EXPECT_EQ(stream.generation_tier(SimdTier::kAvx512),
            avx512_runnable() ? SimdTier::kAvx512 : SimdTier::kScalar);
  EXPECT_EQ(stream.generation_tier(SimdTier::kAvx2), SimdTier::kScalar);
  EXPECT_EQ(stream.generation_tier(SimdTier::kScalar), SimdTier::kScalar);
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    EXPECT_GT(expect_tiers_match(stream, pass), 0u);
  }
}

TEST(StreamedGenerationTiers, TailsThatAreNotAMultipleOfEight) {
  // Chunks of 1, 13 and 300 raw indices (one 256-index block and a tail
  // of 44), and pass lengths that end mid-vector, on a filtered space.
  const SpacePtr s = apps::dataset_by_name("systolic_small").make().space_ptr();
  ASSERT_TRUE(s->prefix_filter().active());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13},
                                  std::size_t{300}}) {
    for (const std::uint64_t budget : {std::uint64_t{5}, std::uint64_t{1003},
                                       std::uint64_t{4099}}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", pass length " +
                   std::to_string(budget));
      const CandidateStream stream(
          s, /*seed=*/budget,
          StreamConfig{.chunk = chunk, .max_exhaustive = 0,
                       .pass_raw_budget = budget});
      ASSERT_EQ(stream.pass_length(), budget);
      expect_tiers_match(stream, 0);
    }
  }
  // An exhaustive pass whose last chunk is a few indices long.
  const CandidateStream exhaustive(s, /*seed=*/1, StreamConfig{.chunk = 1001});
  ASSERT_TRUE(exhaustive.exhaustive());
  ASSERT_NE(exhaustive.raw_size() % 1001 % 8, 0u);
  expect_tiers_match(exhaustive, 0);
}

TEST(StreamedGenerationTiers, InactiveFilterAndNoRules) {
  // A rule outside the prefix only, then no rule at all.
  auto outside = std::make_shared<ParameterSpace>();
  outside->add(Parameter::integer("wide", 0, 2047));
  outside->add(Parameter::integer("tall", 0, 1023));
  outside->add_conditional(Parameter::categorical_numeric("child", {1, 2, 4}),
                           "tall", std::vector<double>{0, 1});
  ASSERT_FALSE(outside->prefix_filter().active());
  EXPECT_GT(expect_tiers_match(CandidateStream(outside, /*seed=*/3), 1), 0u);

  auto flat = std::make_shared<ParameterSpace>();
  flat->add(Parameter::integer("x", 0, 99));
  flat->add(Parameter::categorical_numeric("y", {1, 2, 4}));
  ASSERT_FALSE(flat->prefix_filter().active());
  const CandidateStream exhaustive(flat, /*seed=*/2, StreamConfig{.chunk = 37});
  EXPECT_EQ(expect_tiers_match(exhaustive, 0), 300u);
  EXPECT_EQ(expect_tiers_match(
                CandidateStream(flat, /*seed=*/4,
                                StreamConfig{.chunk = 64, .max_exhaustive = 0,
                                             .pass_raw_budget = 300}),
                2),
            300u);
}

TEST(StreamedGenerationTiers, OpaquePredicatesOnForcedStreamedSpaces) {
  // The chain's predicate and kripke's and lulesh's run per accepted lane,
  // after the compiled rules, as in the scalar path.
  const SpacePtr spaces[] = {ChainSpace().space, apps::kripke_exec_space(),
                             apps::lulesh_space()};
  for (const SpacePtr& s : spaces) {
    SCOPED_TRACE("space with " + std::to_string(s->num_params()) +
                 " parameters");
    ASSERT_TRUE(s->has_predicates());
    const CandidateStream stream(
        s, /*seed=*/17,
        StreamConfig{.chunk = 100, .max_exhaustive = 0,
                     .pass_raw_budget = 1ULL << 20});
    ASSERT_FALSE(stream.exhaustive());
    EXPECT_GT(expect_tiers_match(stream, 0), 0u);
  }

  // Forty parameters: a lane's levels outgrow LevelBuffer's inline slots
  // before the predicate sees them, and each survivor decodes forty levels.
  const auto name = [](int i) {
    std::string n = "w";
    n += std::to_string(i);
    return n;
  };
  auto wide = std::make_shared<ParameterSpace>();
  for (int i = 0; i < 40; ++i) {
    if (i % 5 == 4) {
      wide->add_conditional(Parameter::categorical_numeric(name(i), {1, 2}),
                            name(i - 1), std::vector<double>{2});
    } else {
      wide->add(Parameter::categorical_numeric(name(i), {1, 2}));
    }
  }
  wide->add_divisibility("w0", "w1");
  wide->add_constraint(
      [](const ParameterSpace& s, const Configuration& c) {
        std::size_t set = 0;
        for (std::size_t i = 0; i < s.num_params(); ++i) {
          set += c.level(i);
        }
        return set % 3 != 0;
      },
      "level sum not a multiple of 3");
  const CandidateStream stream(wide, /*seed=*/40);
  ASSERT_FALSE(stream.exhaustive());
  EXPECT_GT(expect_tiers_match(stream, 0), 0u);
}

TEST(StreamedGenerationTiers, SpacesAtAndPastTheExactnessBound) {
  // Small parameters with rules first, so the filter covers them; huge
  // plain ones after, so ordinals and strides reach the bound.
  auto make = [](std::int64_t last_levels) {
    auto s = std::make_shared<ParameterSpace>();
    s->add(Parameter::categorical_numeric("a", {1, 2, 4, 8}));
    s->add_conditional(Parameter::categorical_numeric("b", {1, 2}), "a",
                       std::vector<double>{2, 8});
    s->add(Parameter::categorical_numeric("c", {1, 2, 3, 4, 6, 12, 16, 24}));
    s->add_divisibility("a", "c");
    s->add_divisibility("b", "c");
    s->add(Parameter::integer("big1", 0, (1 << 22) - 1));
    s->add(Parameter::integer("big0", 0, last_levels - 1));
    return s;
  };
  const std::uint64_t bound = space::RuleTables::kMaxExactSize;
  // 4 * 2 * 8 * 2^22 * 2^25 = 2^53 exactly; one more level of big0
  // passes the bound; one fewer (an odd stride) stays below it.
  struct Case {
    std::int64_t last_levels;
    bool vector;
  };
  for (const Case& c : {Case{1 << 25, true}, Case{(1 << 25) + 1, false},
                        Case{(1 << 25) - 1, true}}) {
    SCOPED_TRACE("big0 levels " + std::to_string(c.last_levels));
    const SpacePtr s = make(c.last_levels);
    const std::uint64_t size = s->cross_product_size();
    EXPECT_EQ(size <= bound, c.vector);
    EXPECT_EQ(size == bound, c.last_levels == (1 << 25));
    ASSERT_TRUE(s->prefix_filter().active());
    EXPECT_EQ(s->prefix_filter().num_params(), 3u);
    const CandidateStream stream(
        s, /*seed=*/c.last_levels,
        StreamConfig{.chunk = 1000, .pass_raw_budget = 1ULL << 13});
    EXPECT_EQ(stream.generation_tier(SimdTier::kAvx512),
              c.vector && avx512_runnable() ? SimdTier::kAvx512
                                            : SimdTier::kScalar);
    for (std::uint64_t pass = 0; pass < 2; ++pass) {
      EXPECT_GT(expect_tiers_match(stream, pass), 0u);
    }
  }
  // A space whose strides are not powers of two, just below the bound:
  // 48e6 * 187649984 = 9007199232000000 < 2^53.
  auto odd = std::make_shared<ParameterSpace>();
  odd->add(Parameter::categorical_numeric("a", {1, 2, 4, 8}));
  odd->add_conditional(Parameter::categorical_numeric("b", {1, 2}), "a",
                       std::vector<double>{2, 8});
  odd->add(Parameter::categorical_numeric("c", {1, 2, 3, 4, 6, 12}));
  odd->add_divisibility("a", "c");
  odd->add(Parameter::integer("mid", 0, 999'999));
  odd->add(Parameter::integer("big", 0, 187'649'983));
  ASSERT_LT(odd->cross_product_size(), bound);
  ASSERT_GT(odd->cross_product_size(), bound - (bound >> 20));
  const CandidateStream stream(
      odd, /*seed=*/77,
      StreamConfig{.chunk = 777, .pass_raw_budget = 1ULL << 13});
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    EXPECT_GT(expect_tiers_match(stream, pass), 0u);
  }
}

}  // namespace
}  // namespace hpb
