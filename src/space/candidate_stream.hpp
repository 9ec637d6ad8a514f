// CandidateStream: deterministic, chunked generation of valid configurations
// from a finite ParameterSpace, without materializing the cross product.
//
// The stream walks *passes*. Within a pass, raw indices 0..pass_length-1 are
// mapped through a bijection over [0, cross_product_size) — the identity for
// small spaces (so a pass reproduces enumerate() in ordinal order, bitwise),
// a seeded 4-round Feistel permutation with cycle-walking for huge ones (so
// no ordinal repeats within a pass). Each raw index's ordinal first meets
// the space's prefix filter (ParameterSpace::prefix_filter, one bit test
// that drops most invalid ordinals), then the survivors are checked on
// levels by the space's compiled rules (ParameterSpace::accepts_ordinal,
// equal to satisfies() of the decoded configuration) and only the survivors'
// levels are written out, straight into per-parameter columns: every
// streamed candidate is canonical and constraint-clean by construction, and
// no Configuration exists for a rejected index.
//
// At the AVX-512 SIMD tier (common/simd_tier.hpp) every stage runs on
// eight raw indices at once: the Feistel rounds in 64-bit lanes, the
// filter's bit test by gather, and the decode and the compiled rules of
// eight filter survivors together (ParameterSpace::rule_tables). Each lane
// computes exactly what the scalar path computes for its index, so the
// output is the same bit for bit; the scalar path is the reference, and
// the only one on other tiers and on spaces past the vector decode's
// exactness bound (RuleTables::kMaxExactSize).
//
// Determinism contract: chunk_candidates(pass, chunk) is a pure function of
// (space, seed, pass, chunk) with a fixed chunk size, so generating a pass
// with 1 thread or N threads yields the same candidate sequence, and a
// chunk-local top-k reduction merged in chunk order is thread-count
// independent (see core/acquisition.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/simd_tier.hpp"
#include "common/thread_pool.hpp"
#include "space/parameter_space.hpp"

namespace hpb::space {

/// Generation knobs. The defaults match HiPerBOt's pooled sweep so a
/// streamed sweep over a flat unconstrained space is bitwise-identical to
/// the materialized-pool path.
struct StreamConfig {
  /// Raw indices per chunk; must equal core::kSweepChunk for pooled parity.
  std::size_t chunk = 8192;

  /// Spaces with cross product <= this use the identity permutation and a
  /// full-enumeration pass (streaming == enumerate()); larger spaces sample
  /// pass_raw_budget raw points per pass through the Feistel permutation.
  std::uint64_t max_exhaustive = 1ULL << 20;

  /// Raw indices visited per sampled pass on huge spaces. The number of
  /// *valid* candidates per pass is this times the space's acceptance rate.
  std::uint64_t pass_raw_budget = 1ULL << 16;
};

class CandidateStream {
 public:
  /// One streamed candidate: the decoded configuration, its raw position
  /// within the pass (the deterministic tie-break key for top-k merges),
  /// and its stable cross-product ordinal (the dedup identity).
  struct Candidate {
    Configuration config;
    std::uint64_t pass_index = 0;
    std::uint64_t ordinal = 0;
  };

  /// One chunk's valid candidates in column layout, written straight by
  /// chunk_columns(): columns()[i][t] is candidate t's level of parameter i
  /// (the layout AcquisitionTable::score_block consumes), next to each
  /// candidate's pass index and ordinal. Reuse one block across chunks: its
  /// columns grow with the largest chunk seen and are kept.
  class ChunkColumns {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const std::uint32_t* const* columns() const noexcept {
      return columns_.data();
    }
    [[nodiscard]] std::uint64_t pass_index(std::size_t t) const noexcept {
      return pass_index_[t];
    }
    [[nodiscard]] std::uint64_t ordinal(std::size_t t) const noexcept {
      return ordinal_[t];
    }
    /// The pass indices and ordinals as columns of size() entries.
    [[nodiscard]] const std::uint64_t* pass_index_data() const noexcept {
      return pass_index_.data();
    }
    [[nodiscard]] const std::uint64_t* ordinal_data() const noexcept {
      return ordinal_.data();
    }
    /// Candidate t, with its Configuration built.
    [[nodiscard]] Candidate candidate(std::size_t t) const;

   private:
    friend class CandidateStream;
    /// Empty the block for candidates of `num_params` parameters.
    void reset(std::size_t num_params);
    void push(const std::uint32_t* levels, std::uint64_t pass_index,
              std::uint64_t ordinal);
    /// Double the rows of every column, keeping the candidates held.
    void grow();
    /// Grow until every column holds at least `rows` rows.
    void reserve(std::size_t rows);

    std::size_t size_ = 0;
    std::size_t rows_ = 0;                // capacity of each column
    std::vector<std::uint32_t> levels_;   // column i at offset i * rows_
    std::vector<std::uint32_t*> columns_;  // into levels_
    std::vector<std::uint64_t> pass_index_;
    std::vector<std::uint64_t> ordinal_;
  };

  /// The space must be finite and its cross product must fit in 64 bits
  /// (cross_product_size() throws SpaceTooLargeError otherwise).
  CandidateStream(SpacePtr space, std::uint64_t seed, StreamConfig config = {});

  [[nodiscard]] const ParameterSpace& space() const noexcept { return *space_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// True when passes cover the whole cross product via the identity
  /// permutation (pass == enumerate() in ordinal order).
  [[nodiscard]] bool exhaustive() const noexcept { return exhaustive_; }

  /// Unconstrained cross-product size of the space.
  [[nodiscard]] std::uint64_t raw_size() const noexcept { return raw_size_; }

  /// Raw indices visited per pass (before validity filtering).
  [[nodiscard]] std::uint64_t pass_length() const noexcept {
    return pass_length_;
  }

  /// Number of fixed-size chunks a pass is split into.
  [[nodiscard]] std::size_t num_chunks() const noexcept { return num_chunks_; }

  /// Cross-product ordinal visited at raw position `raw` of `pass`.
  [[nodiscard]] std::uint64_t ordinal_at(std::uint64_t pass,
                                         std::uint64_t raw) const;

  /// Valid candidates of one chunk of one pass, in raw-index order, as
  /// level columns. Pure in (space, seed, pass, chunk): thread-count and
  /// tier independent; `tier` (which must be runnable) only picks the
  /// generator, see generation_tier().
  void chunk_columns(std::uint64_t pass, std::size_t chunk, ChunkColumns& out,
                     SimdTier tier = active_simd_tier()) const;

  /// The generator chunk_columns() runs at `tier`: kAvx512 when this
  /// binary carries the AVX-512 generator, `tier` is kAvx512 and the cross
  /// product is within RuleTables::kMaxExactSize; kScalar otherwise.
  [[nodiscard]] SimdTier generation_tier(SimdTier tier) const noexcept;

  /// The same candidates with their Configurations built.
  void chunk_candidates(std::uint64_t pass, std::size_t chunk,
                        std::vector<Candidate>& out) const;

  /// All valid candidates of a pass, in raw-index order. Chunks are
  /// generated in parallel on `pool` (serial when null) and concatenated in
  /// chunk order, so the sequence is identical for every thread count.
  [[nodiscard]] std::vector<Candidate> pass_candidates(
      std::uint64_t pass, ThreadPool* pool = nullptr) const;

  /// First k distinct valid configurations drawn from passes 0, 1, ... —
  /// a seeded, deterministic stand-in pool for pool-bound tuners on spaces
  /// too large to enumerate. Dedups by ordinal across passes; throws if
  /// `max_passes` passes cannot produce k distinct candidates.
  [[nodiscard]] std::vector<Configuration> sample_pool(
      std::size_t k, std::uint64_t max_passes = 64) const;

 private:
  struct FeistelKeys {
    std::uint64_t round[4] = {0, 0, 0, 0};
  };

  /// Raw indices permuted ahead of validation (see generate_scalar).
  static constexpr std::size_t kGenerateBlock = 256;

  [[nodiscard]] FeistelKeys keys_for(std::uint64_t pass) const;
  [[nodiscard]] std::uint64_t feistel_once(const FeistelKeys& keys,
                                           std::uint64_t v) const noexcept;
  /// Bijection over [0, raw_size): identity when exhaustive, otherwise the
  /// Feistel permutation cycle-walked back into range.
  [[nodiscard]] std::uint64_t permute(const FeistelKeys& keys,
                                      std::uint64_t raw) const noexcept;

  /// chunk_columns() over raw indices [begin, end) of the pass keyed by
  /// `keys`, one index at a time (the reference) or eight at a time
  /// (candidate_stream_avx512.cpp; defined only behind HPB_SIMD_AVX512).
  void generate_scalar(const FeistelKeys& keys, std::uint64_t begin,
                       std::uint64_t end, ChunkColumns& out) const;
  void generate_avx512(const FeistelKeys& keys, std::uint64_t begin,
                       std::uint64_t end, ChunkColumns& out) const;

  SpacePtr space_;
  std::uint64_t seed_ = 0;
  StreamConfig config_;
  std::uint64_t raw_size_ = 0;
  bool exhaustive_ = false;
  std::uint64_t pass_length_ = 0;
  std::size_t num_chunks_ = 0;
  unsigned half_bits_ = 0;  // Feistel half-width; domain is 2^(2*half_bits_)
};

}  // namespace hpb::space
