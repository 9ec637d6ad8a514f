// CandidateStream's AVX-512 generator: generate_scalar's three stages on
// eight raw indices at a time.
//
//   1. Permute: the four Feistel rounds in 64-bit lanes (splitmix64's
//      multiplies are vpmullq); lanes whose image lands at or past the
//      cross product are packed eight to a step and re-apply the network,
//      masked to the lanes still out of range, until every lane is in
//      range — the scalar cycle-walk, lane by lane.
//   2. Filter: the prefix index floor(ordinal / stride) by a double
//      division rounded down, the filter word by gather, the bit by a
//      variable shift; survivors are compressed, in raw-index order, into
//      a block buffer.
//   3. Check: eight survivors' levels decoded at once (the same
//      round-down divisions), then every compiled rule on all eight lanes
//      without a branch — activation masks and accept tables read by
//      gather from ParameterSpace::rule_tables(). Opaque predicates, when
//      registered, run per accepted lane on its levels, as in the scalar
//      path. Accepted lanes are compressed into the ChunkColumns.
//
// The divisions are exact because chunk_columns calls this only on spaces
// whose cross product is within RuleTables::kMaxExactSize (see RuleTables).
// Every function here carries its own target attribute; nothing outside
// this file is compiled for AVX-512, and the file is empty without the
// HPB_SIMD_AVX512 compiler probe.
#include "space/candidate_stream.hpp"

#if defined(HPB_SIMD_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <vector>

#define HPB_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))

namespace hpb::space {
namespace {

constexpr std::size_t kLanes = 8;
constexpr int kRoundDown = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
// GCC 12's unmasked forms of several intrinsics below pass an undefined
// source vector that -Wmaybe-uninitialized flags once inlined; their
// zero-masked forms with every lane enabled are the same instructions.
constexpr __mmask8 kAll = 0xFF;

HPB_TARGET_AVX512 inline __m512i broadcast(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

/// The first min(count, 8) lanes.
inline __mmask8 lanes_below(std::size_t count) {
  return static_cast<__mmask8>(count >= kLanes ? 0xFF : (1u << count) - 1);
}

/// splitmix64 (common/rng.hpp) in every lane.
HPB_TARGET_AVX512 inline __m512i splitmix64_x8(__m512i x) {
  x = _mm512_add_epi64(x, broadcast(0x9e3779b97f4a7c15ULL));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_maskz_srli_epi64(kAll, x, 30)),
      broadcast(0xbf58476d1ce4e5b9ULL));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_maskz_srli_epi64(kAll, x, 27)),
      broadcast(0x94d049bb133111ebULL));
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(kAll, x, 31));
}

/// One pass's Feistel network (CandidateStream::feistel_once) in every lane.
struct FeistelX8 {
  __m512i key[4];
  __m512i mask;  // low half_bits set
  __m128i half;  // shift count: half_bits
};

HPB_TARGET_AVX512 inline __m512i feistel_x8(const FeistelX8& f, __m512i v) {
  __m512i left = _mm512_maskz_srl_epi64(kAll, v, f.half);
  __m512i right = _mm512_and_si512(v, f.mask);
  for (const __m512i& key : f.key) {
    const __m512i mixed =
        _mm512_and_si512(splitmix64_x8(_mm512_xor_si512(key, right)), f.mask);
    const __m512i next = _mm512_xor_si512(left, mixed);
    left = right;
    right = next;
  }
  return _mm512_or_si512(_mm512_maskz_sll_epi64(kAll, left, f.half), right);
}

/// floor(x / d) for integer-valued doubles below 2^53: the quotient
/// rounded toward minus infinity lies in [floor(x / d), x / d], so its
/// floor is exact.
HPB_TARGET_AVX512 inline __m512d floor_div(__m512d x, double d) {
  return _mm512_maskz_roundscale_pd(
      kAll, _mm512_maskz_div_round_pd(kAll, x, _mm512_set1_pd(d), kRoundDown),
      kRoundDown);
}

/// The eight 32-bit levels of parameter i, widened to 64-bit lanes.
HPB_TARGET_AVX512 inline __m512i level_x8(const std::uint32_t* levels,
                                          std::size_t i) {
  return _mm512_maskz_cvtepu32_epi64(
      kAll, _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(levels + i * kLanes)));
}

/// Lanes whose byte at table[at] is non-zero (a 32-bit gather per lane;
/// the table is padded so the last byte's gather stays inside it).
HPB_TARGET_AVX512 inline __mmask8 byte_set(__mmask8 lanes, __m512i at,
                                           const std::uint8_t* table) {
  const __m256i word = _mm512_mask_i64gather_epi32(_mm256_setzero_si256(),
                                                   lanes, at, table, 1);
  return _mm256_mask_test_epi32_mask(lanes, word, _mm256_set1_epi32(0xFF));
}

}  // namespace

HPB_TARGET_AVX512
void CandidateStream::generate_avx512(const FeistelKeys& keys,
                                      std::uint64_t begin, std::uint64_t end,
                                      ChunkColumns& out) const {
  const ParameterSpace& space = *space_;
  const std::size_t n = space.num_params();
  const PrefixFilter& filter = space.prefix_filter();
  const RuleTables& rules = space.rule_tables();
  const bool predicates = space.has_predicates();

  const FeistelX8 feistel{
      {broadcast(keys.round[0]), broadcast(keys.round[1]),
       broadcast(keys.round[2]), broadcast(keys.round[3])},
      broadcast((std::uint64_t{1} << half_bits_) - 1),
      _mm_cvtsi32_si128(static_cast<int>(half_bits_))};
  const __m512i raw_size = broadcast(raw_size_);
  const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m256i lane32 = _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  const double filter_stride =
      filter.active() ? rules.stride[filter.num_params()] : 1.0;

  // One 256-index block's ordinals, compacted in place to its filter
  // survivors, and the survivors' raw indices; the ordinals still walking
  // and their block offsets. All with room for a full-width store past
  // the last entry.
  std::uint64_t ordinals[kGenerateBlock + kLanes] = {};
  std::uint64_t raws[kGenerateBlock + kLanes] = {};
  std::uint64_t walk[kGenerateBlock + kLanes] = {};
  std::uint32_t walk_at[kGenerateBlock + kLanes] = {};
  std::vector<std::uint32_t> levels(n * kLanes);  // [i * kLanes + lane]
  std::vector<__mmask8> active(n, 0xFF);          // lanes where i is active
  LevelBuffer lane_levels(n);                     // one lane, for predicates

  for (std::uint64_t block = begin; block < end; block += kGenerateBlock) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(kGenerateBlock, end - block));

    // Stage 1: permute the block, eight lanes per step. The steps are
    // independent, so the core overlaps their multiply chains. Then the
    // cycle-walk: lanes at or past the cross product are packed, with
    // their block offsets, eight to a step, and go through the network
    // again, round after round, each until it lands below the cross
    // product and is scattered back to its offset. Every lane walks the
    // cycle the scalar path walks; packing keeps the ~7% of systolic lanes
    // that walk from dragging whole steps through the rounds.
    std::size_t num_walk = 0;
    for (std::size_t j = 0; j < count; j += kLanes) {
      const __m512i raw = _mm512_add_epi64(broadcast(block + j), lane);
      if (exhaustive_) {
        _mm512_storeu_si512(ordinals + j, raw);
        continue;
      }
      const __m512i ordinal = feistel_x8(feistel, raw);
      _mm512_storeu_si512(ordinals + j, ordinal);
      const __mmask8 out = _mm512_mask_cmpge_epu64_mask(
          lanes_below(count - j), ordinal, raw_size);
      _mm512_storeu_si512(walk + num_walk,
                          _mm512_maskz_compress_epi64(out, ordinal));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(walk_at + num_walk),
          _mm256_maskz_compress_epi32(
              out, _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(j)),
                                    lane32)));
      num_walk += static_cast<std::size_t>(std::popcount(out));
    }
    while (num_walk > 0) {
      std::size_t still = 0;  // compacted in place, like stage 2
      for (std::size_t t = 0; t < num_walk; t += kLanes) {
        const __mmask8 valid = lanes_below(num_walk - t);
        const __m512i ordinal = feistel_x8(
            feistel, _mm512_maskz_loadu_epi64(valid, walk + t));
        const __m256i at = _mm256_maskz_loadu_epi32(valid, walk_at + t);
        const __mmask8 again =
            _mm512_mask_cmpge_epu64_mask(valid, ordinal, raw_size);
        _mm512_mask_i32scatter_epi64(
            ordinals, static_cast<__mmask8>(valid & ~again), at, ordinal, 8);
        _mm512_storeu_si512(walk + still,
                            _mm512_maskz_compress_epi64(again, ordinal));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(walk_at + still),
                            _mm256_maskz_compress_epi32(again, at));
        still += static_cast<std::size_t>(std::popcount(again));
      }
      num_walk = still;
    }

    // Stage 2: filter eight ordinals per step, compressing the survivors
    // in place (a step writes no further than it has read).
    std::size_t num_kept = 0;
    for (std::size_t j = 0; j < count; j += kLanes) {
      const __mmask8 valid = lanes_below(count - j);
      const __m512i ordinal = _mm512_loadu_si512(ordinals + j);
      __mmask8 keep = valid;
      if (filter.active()) {
        const __m512i p = _mm512_cvttpd_epu64(
            floor_div(_mm512_cvtepu64_pd(ordinal), filter_stride));
        const __m512i word = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), valid,
            _mm512_maskz_srli_epi64(kAll, p, 6), filter.words(), 8);
        const __m512i bit = _mm512_maskz_srlv_epi64(
            kAll, word, _mm512_and_si512(p, broadcast(63)));
        keep = _mm512_mask_test_epi64_mask(valid, bit, broadcast(1));
      }
      _mm512_storeu_si512(ordinals + num_kept,
                          _mm512_maskz_compress_epi64(keep, ordinal));
      _mm512_storeu_si512(
          raws + num_kept,
          _mm512_maskz_compress_epi64(
              keep, _mm512_add_epi64(broadcast(block + j), lane)));
      num_kept += static_cast<std::size_t>(std::popcount(keep));
    }

    // Stage 3: decode and check eight survivors per step.
    for (std::size_t t = 0; t < num_kept; t += kLanes) {
      const __mmask8 valid = lanes_below(num_kept - t);
      const __m512i ordinal = _mm512_maskz_loadu_epi64(valid, ordinals + t);
      const __m512d x = _mm512_cvtepu64_pd(ordinal);
      // level i = floor(x / stride[i+1]) - floor(x / stride[i]) * radix[i];
      // floor(x / stride[0]) is 0 and floor(x / stride[n]) is x.
      __m512d above = _mm512_setzero_pd();
      for (std::size_t i = 0; i < n; ++i) {
        const __m512d below = i + 1 < n ? floor_div(x, rules.stride[i + 1]) : x;
        const __m512d level =
            _mm512_fnmadd_pd(above, _mm512_set1_pd(rules.radix[i]), below);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(levels.data() + i * kLanes),
            _mm512_maskz_cvttpd_epu32(kAll, level));
        above = below;
      }

      __mmask8 ok = valid;
      for (const RuleTables::Conditional& c : rules.conditionals) {
        const __m512i at =
            _mm512_add_epi64(level_x8(levels.data(), c.parent),
                             broadcast(c.mask));
        active[c.param] = active[c.parent] &
                          byte_set(ok, at, rules.activates.data());
        const __m256i own = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(levels.data() +
                                             c.param * kLanes));
        // The sentinel rule: level 0, or active.
        ok &= _mm256_testn_epi32_mask(own, own) | active[c.param];
      }
      for (const RuleTables::Divisibility& d : rules.divisibility) {
        const __m512i at = _mm512_add_epi64(
            broadcast(d.table),
            _mm512_add_epi64(
                _mm512_maskz_mul_epu32(kAll, level_x8(levels.data(), d.a),
                                       broadcast(d.radix_b)),
                level_x8(levels.data(), d.b)));
        ok &= byte_set(ok, at, rules.accept.data()) |
              static_cast<__mmask8>(~active[d.a]) |
              static_cast<__mmask8>(~active[d.b]);
      }
      if (predicates) {
        std::uint32_t* lane_level = lane_levels.data();
        for (unsigned m = ok; m != 0; m &= m - 1) {
          const unsigned l = static_cast<unsigned>(std::countr_zero(m));
          for (std::size_t i = 0; i < n; ++i) {
            lane_level[i] = levels[i * kLanes + l];
          }
          if (!space.accepts_predicates(lane_level)) {
            ok &= static_cast<__mmask8>(~(1u << l));
          }
        }
      }
      if (ok == 0) {
        continue;
      }

      out.reserve(out.size_ + kLanes);
      for (std::size_t i = 0; i < n; ++i) {
        const __m256i level = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(levels.data() + i * kLanes));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out.columns_[i] + out.size_),
            _mm256_maskz_compress_epi32(ok, level));
      }
      _mm512_storeu_si512(out.pass_index_.data() + out.size_,
                          _mm512_maskz_compress_epi64(
                              ok, _mm512_maskz_loadu_epi64(valid, raws + t)));
      _mm512_storeu_si512(out.ordinal_.data() + out.size_,
                          _mm512_maskz_compress_epi64(ok, ordinal));
      out.size_ += static_cast<std::size_t>(std::popcount(ok));
    }
  }
}

}  // namespace hpb::space

#endif  // HPB_SIMD_AVX512
