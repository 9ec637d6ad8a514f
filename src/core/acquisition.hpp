// Fast acquisition engine for the Ranking strategy's candidate sweep.
//
// The Ranking strategy (§III-D, the configuration used for every figure in
// the paper) rescores the entire candidate pool on every suggest. The
// direct path — TpeSurrogate::acquisition per candidate — walks every
// marginal through variant dispatch and computes two log() calls per
// parameter per candidate; with pools up to 2^24 that sweep dominates a
// tuning session's wall-clock. This module makes the sweep a streaming
// table scan instead:
//
//   - PoolColumns: a structure-of-arrays mirror of the candidate pool.
//     One contiguous per-parameter column of small indices (the level for
//     discrete parameters, the rank of the candidate's value among the
//     pool's distinct values for continuous ones), built once per pool, so
//     the sweep streams through cache instead of chasing heap-allocated
//     Configuration vectors.
//   - AcquisitionTable: per-fit score tables. For every discrete parameter
//     a `level -> (log pg, log pb)` table computed once per surrogate fit;
//     for every continuous parameter the same memo over the pool's
//     distinct values. Scoring a candidate becomes num_params table
//     lookups per accumulator, added in the same order as
//     FactorizedDensity::log_density — the resulting doubles are
//     bitwise-identical to the direct path's. score_block() runs the same
//     gathers through the runtime-dispatched SIMD kernel (core/simd.hpp):
//     lane-per-candidate, so vectorized scores are also bitwise-identical.
//   - acquisition_topk / acquisition_topk_table: deterministic chunked
//     argmax/top-k over the shared common::ThreadPool. Chunk boundaries
//     are fixed (independent of worker count) and ties break toward the
//     lowest candidate index, so the result is identical for any thread
//     count. The table variants are streaming: each chunk scores through
//     score_block() into a chunk-local buffer of at most kSweepChunk
//     doubles and reduces immediately to a sorted list of at most k hits —
//     a full pool-sized score vector is never materialized, so the sweep's
//     working set is O(threads * kSweepChunk + num_chunks * k) regardless
//     of pool size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/simd.hpp"
#include "core/surrogate.hpp"
#include "space/candidate_stream.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Structure-of-arrays mirror of a candidate pool (built once per pool).
class PoolColumns {
 public:
  PoolColumns(const space::ParameterSpace& space,
              std::span<const space::Configuration> pool);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return columns_.size();
  }

  /// Per-candidate index column of parameter i: the level index for
  /// discrete parameters, the distinct-value rank for continuous ones.
  [[nodiscard]] std::span<const std::uint32_t> column(
      std::size_t param) const {
    return columns_[param];
  }

  /// Per-parameter column base pointers (the layout score_block consumes).
  [[nodiscard]] std::span<const std::uint32_t* const> column_data()
      const noexcept {
    return column_ptrs_;
  }

  /// Sorted distinct values of a continuous parameter's column (empty for
  /// discrete parameters). column(i)[j] indexes into this.
  [[nodiscard]] std::span<const double> distinct_values(
      std::size_t param) const {
    return distinct_[param];
  }

  /// Rows of the score table for parameter i: the level count for discrete
  /// parameters, the distinct-value count for continuous ones.
  [[nodiscard]] std::size_t table_size(std::size_t param) const {
    return table_sizes_[param];
  }

  [[nodiscard]] bool is_continuous(std::size_t param) const {
    return continuous_[param] != 0;
  }

  /// Per-candidate space ordinals (exclusion checks); empty unless the
  /// space is finite.
  [[nodiscard]] std::span<const std::uint64_t> ordinals() const noexcept {
    return ordinals_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::vector<const std::uint32_t*> column_ptrs_;  // columns_[i].data()
  std::vector<std::vector<double>> distinct_;  // continuous params only
  std::vector<std::size_t> table_sizes_;
  std::vector<char> continuous_;  // per-param kind (char: vector<bool> races)
  std::vector<std::uint64_t> ordinals_;
};

/// Per-fit `index -> (log pg, log pb)` tables over a PoolColumns layout.
///
/// Consecutive fits usually change only a few marginals — the good group in
/// particular is identical between fits whenever the new observations all
/// land below the α-quantile. Passing the previous fit's table as `prev`
/// rebuilds only the columns whose marginal actually changed: each column is
/// keyed by the bitwise state of the marginal density that produced it
/// (histogram counts + smoothing, or KDE centers + weights + bandwidth +
/// support), and an unchanged key means the recomputation would be
/// bitwise-identical, so the old column is memcpy'd straight into the flat
/// table instead (no temporaries — the reuse path must beat a recompute at
/// every size, which a copy-through-vector did not; see
/// BENCH_acquisition.json's refit_results). Scores are therefore
/// bitwise-identical with or without `prev`. A `prev` whose pool layout
/// differs is ignored entirely — the automatic fallback to a full build.
class AcquisitionTable {
 public:
  AcquisitionTable(const TpeSurrogate& surrogate, const PoolColumns& columns,
                   const AcquisitionTable* prev = nullptr);

  /// Pool-independent table over a finite (all-discrete) space, for
  /// streamed sweeps whose candidates are generated on the fly and never
  /// live in a pool. Each column is the histogram's log_pmf_table() — the
  /// exact doubles the pooled constructor stores for a discrete parameter —
  /// so a streamed score equals the pooled (and direct) score bit for bit.
  AcquisitionTable(const TpeSurrogate& surrogate,
                   const space::ParameterSpace& space,
                   const AcquisitionTable* prev = nullptr);

  [[nodiscard]] std::size_t num_params() const noexcept {
    return offsets_.size();
  }

  /// Acquisition score of pool candidate j: bitwise-identical to
  /// surrogate.acquisition(pool[j]) — both log-density accumulators add
  /// the per-parameter terms in parameter order before subtracting.
  [[nodiscard]] double score(const PoolColumns& columns,
                             std::size_t j) const {
    double log_good = 0.0;
    double log_bad = 0.0;
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      const std::size_t at = offsets_[i] + columns.column(i)[j];
      log_good += log_good_[at];
      log_bad += log_bad_[at];
    }
    return log_good - log_bad;
  }

  /// Acquisition score of an arbitrary configuration, by level lookup (so
  /// every parameter must be discrete — true for any table built by the
  /// space constructor, and for pooled tables over all-discrete spaces).
  /// Accumulates per-parameter terms in the same order as score().
  [[nodiscard]] double score_config(const space::Configuration& c) const {
    double log_good = 0.0;
    double log_bad = 0.0;
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      const std::size_t at = offsets_[i] + c.level(i);
      log_good += log_good_[at];
      log_bad += log_bad_[at];
    }
    return log_good - log_bad;
  }

  /// Scores pool candidates [begin, end) into out[0 .. end-begin) through
  /// the runtime-dispatched SIMD kernel. Every tier's output is
  /// bitwise-identical to calling score() per candidate.
  void score_block(const PoolColumns& columns, std::size_t begin,
                   std::size_t end, double* out,
                   SimdTier tier = active_simd_tier()) const;

  /// Same kernel over caller-built index columns (cols[i][0 .. count) for
  /// each of num_params() parameters) — the streamed sweep scores each
  /// chunk's freshly generated candidates through this.
  void score_block_cols(const std::uint32_t* const* cols, std::size_t count,
                        double* out,
                        SimdTier tier = active_simd_tier()) const;

  /// Per-side columns copied from `prev` instead of recomputed (0..2 per
  /// parameter). Exposed for the sweep span and the incremental bench.
  [[nodiscard]] std::size_t reused_columns() const noexcept {
    return reused_columns_;
  }

 private:
  /// Bitwise fingerprint of the marginal density behind one table column.
  struct MarginalKey {
    bool continuous = false;
    double smoothing = 0.0;  // histogram
    double bandwidth = 0.0;  // KDE
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> values;   // histogram counts / KDE centers
    std::vector<double> weights;  // KDE per-center weights

    [[nodiscard]] bool matches(const MarginalKey& other) const noexcept;
  };

  /// Fill parameter i's rows of both flat tables in place: memcpy from
  /// `prev` when the marginal key is unchanged, recompute via `rebuild`
  /// otherwise. Shared by both constructors.
  template <class RebuildGood, class RebuildBad>
  void fill_column(std::size_t i, std::size_t rows,
                   const AcquisitionTable* prev, const RebuildGood& good,
                   const RebuildBad& bad);

  std::vector<std::size_t> offsets_;  // per-param start into the flat tables
  std::vector<double> log_good_;
  std::vector<double> log_bad_;
  std::vector<MarginalKey> good_keys_;  // per-param, for the next fit's diff
  std::vector<MarginalKey> bad_keys_;
  std::size_t reused_columns_ = 0;
};

/// One sweep result: a candidate index and its acquisition score.
struct SweepHit {
  std::size_t index = 0;
  double score = 0.0;
};

/// Strict ordering of the sweep: descending score, ties broken by lowest
/// candidate index (indices are unique, so this is a total order).
[[nodiscard]] inline bool sweep_better(const SweepHit& a,
                                       const SweepHit& b) noexcept {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// Fixed sweep chunk size. Chunk boundaries depend only on the pool size,
/// never on the worker count, so chunk-local results — and therefore the
/// final reduction — are identical for any thread count.
inline constexpr std::size_t kSweepChunk = 8192;

namespace detail {

/// Insert `hit` into the sorted bounded list `best` (capacity k) under the
/// strict total order `better`. The caller pre-checks the reject case
/// (full list, hit not better than the tail) so StreamHit insertions can
/// defer building their Configuration until the hit is known to survive.
template <class Hit, class Better>
inline void bounded_sorted_insert(std::vector<Hit>& best, Hit&& hit,
                                  std::size_t k, const Better& better) {
  std::size_t pos = best.size();
  while (pos > 0 && better(hit, best[pos - 1])) {
    --pos;
  }
  best.insert(best.begin() + static_cast<std::ptrdiff_t>(pos),
              std::move(hit));
  if (best.size() > k) {
    best.pop_back();
  }
}

/// Merge one chunk's sorted hit list into the running bounded top-k.
/// Chunk lists are sorted under the same total order, so the first hit
/// that cannot enter a full merged list ends the chunk — the merge never
/// concatenates, keeping the reduction's working set at k+1 hits. Called
/// serially in chunk order, so the result is scheduling-independent and
/// equals a global sort of all chunk hits truncated to k.
template <class Hit, class Better>
inline void merge_sorted_bounded(std::vector<Hit>& merged,
                                 std::vector<Hit>& chunk, std::size_t k,
                                 const Better& better) {
  for (Hit& hit : chunk) {
    if (merged.size() == k && !better(hit, merged.back())) {
      break;
    }
    bounded_sorted_insert(merged, std::move(hit), k, better);
  }
}

}  // namespace detail

/// Deterministic chunked top-k sweep over candidates 0..n-1. `score(j)`
/// must be a pure function of j; `excluded(j)` hides a candidate from the
/// result. Chunks run on `pool` (serial when null or single-threaded); the
/// per-chunk winners are reduced serially in chunk order under
/// sweep_better, so the result is independent of scheduling. Returns at
/// most k hits, best first; fewer when the unexcluded pool is smaller.
/// This generic form scores through a per-candidate callback (the direct
/// path's reference sweep); table sweeps use acquisition_topk_table.
template <class ScoreFn, class ExcludedFn>
[[nodiscard]] std::vector<SweepHit> acquisition_topk(std::size_t n,
                                                     std::size_t k,
                                                     ThreadPool* pool,
                                                     const ScoreFn& score,
                                                     const ExcludedFn& excluded) {
  if (n == 0 || k == 0) {
    return {};
  }
  const std::size_t num_chunks = (n + kSweepChunk - 1) / kSweepChunk;
  std::vector<std::vector<SweepHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * kSweepChunk;
    const std::size_t end = std::min(begin + kSweepChunk, n);
    std::vector<SweepHit>& best = chunk_best[chunk];
    best.reserve(std::min(k, end - begin));
    for (std::size_t j = begin; j < end; ++j) {
      if (excluded(j)) {
        continue;
      }
      const SweepHit hit{j, score(j)};
      if (best.size() == k && !sweep_better(hit, best.back())) {
        continue;
      }
      detail::bounded_sorted_insert(best, SweepHit{hit}, k, sweep_better);
    }
  });
  std::vector<SweepHit> merged;
  merged.reserve(k + 1);
  for (auto& best : chunk_best) {
    detail::merge_sorted_bounded(merged, best, k, sweep_better);
  }
  return merged;
}

/// Streaming table top-k over a column-mirrored pool: each chunk is scored
/// in one score_block() call (vectorized under the active SIMD tier) into
/// a chunk-local buffer, reduced to at most k hits immediately, and the
/// buffer is reused for the next chunk — the full score vector never
/// exists. Result is bitwise-identical to the generic acquisition_topk
/// over table.score(), for any thread count and any SIMD tier.
template <class ExcludedFn>
[[nodiscard]] std::vector<SweepHit> acquisition_topk_table(
    const AcquisitionTable& table, const PoolColumns& columns, std::size_t k,
    ThreadPool* pool, const ExcludedFn& excluded,
    SimdTier tier = active_simd_tier()) {
  const std::size_t n = columns.size();
  if (n == 0 || k == 0) {
    return {};
  }
  const std::size_t num_chunks = (n + kSweepChunk - 1) / kSweepChunk;
  std::vector<std::vector<SweepHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * kSweepChunk;
    const std::size_t end = std::min(begin + kSweepChunk, n);
    std::vector<double> scores(end - begin);
    table.score_block(columns, begin, end, scores.data(), tier);
    std::vector<SweepHit>& best = chunk_best[chunk];
    best.reserve(std::min(k, end - begin));
    for (std::size_t j = begin; j < end; ++j) {
      // Cheap cut first: a hit enters iff it is unexcluded AND beats the
      // tail, so testing the (almost always false) tail compare before the
      // exclusion probe keeps the hot loop branch-predictable without
      // changing the result.
      const SweepHit hit{j, scores[j - begin]};
      if (best.size() == k && !sweep_better(hit, best.back())) {
        continue;
      }
      if (excluded(j)) {
        continue;
      }
      detail::bounded_sorted_insert(best, SweepHit{hit}, k, sweep_better);
    }
  });
  std::vector<SweepHit> merged;
  merged.reserve(k + 1);
  for (auto& best : chunk_best) {
    detail::merge_sorted_bounded(merged, best, k, sweep_better);
  }
  return merged;
}

/// One streamed-sweep result. Streamed candidates have no pool to index
/// back into, so the hit carries the configuration itself, plus its raw
/// in-pass position (the deterministic tie-break key) and its cross-product
/// ordinal (the dedup identity).
struct StreamHit {
  space::Configuration config;
  double score = 0.0;
  std::uint64_t pass_index = 0;
  std::uint64_t ordinal = 0;
};

/// Strict ordering of a streamed sweep: descending score, ties broken by
/// lowest in-pass index (unique within a pass, so this is a total order).
/// On a flat unconstrained space swept exhaustively, pass indices equal
/// pool indices, so this matches sweep_better's tie-break exactly.
[[nodiscard]] inline bool stream_better(const StreamHit& a,
                                        const StreamHit& b) noexcept {
  return a.score > b.score ||
         (a.score == b.score && a.pass_index < b.pass_index);
}

/// Deterministic chunked top-k sweep over one pass of a CandidateStream,
/// through the vectorized table kernel. Each chunk's valid candidates are
/// generated straight into level columns (streamed spaces are
/// all-discrete) and scored in one score_block_cols() call; chunk-local
/// top-k lists are merged serially in chunk order under stream_better, so
/// the result is identical for any thread count and SIMD tier, and equals
/// scoring every candidate's Configuration with table.score_config(). A
/// candidate's Configuration is built only once its score would enter the
/// chunk's top-k: `excluded(candidate)` runs on those candidates alone
/// (typically testing the ordinal). The column block is reused per thread,
/// so the per-chunk working set stays O(chunk * num_params) without
/// reallocation. With stream.config().chunk == kSweepChunk and an
/// exhaustive identity pass over a flat unconstrained space, the winners
/// are bitwise-identical to the pooled sweep's.
template <class ExcludedFn>
[[nodiscard]] std::vector<StreamHit> acquisition_topk_stream_table(
    const space::CandidateStream& stream, std::uint64_t pass, std::size_t k,
    ThreadPool* pool, const AcquisitionTable& table,
    const ExcludedFn& excluded, SimdTier tier = active_simd_tier()) {
  const std::size_t num_chunks = stream.num_chunks();
  if (num_chunks == 0 || k == 0) {
    return {};
  }
  std::vector<std::vector<StreamHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t chunk) {
    thread_local space::CandidateStream::ChunkColumns block;
    stream.chunk_columns(pass, chunk, block);
    const std::size_t m = block.size();
    std::vector<StreamHit>& best = chunk_best[chunk];
    if (m == 0) {
      return;
    }
    std::vector<double> scores(m);
    table.score_block_cols(block.columns(), m, scores.data(), tier);
    best.reserve(std::min(k, m));
    for (std::size_t t = 0; t < m; ++t) {
      // Same cheap-cut ordering as acquisition_topk_table: tail compare
      // before the exclusion probe, identical result either way.
      StreamHit hit{space::Configuration{}, scores[t], block.pass_index(t),
                    block.ordinal(t)};
      if (best.size() == k && !stream_better(hit, best.back())) {
        continue;
      }
      space::CandidateStream::Candidate candidate = block.candidate(t);
      if (excluded(candidate)) {
        continue;
      }
      hit.config = std::move(candidate.config);
      detail::bounded_sorted_insert(best, std::move(hit), k, stream_better);
    }
  });
  std::vector<StreamHit> merged;
  merged.reserve(k + 1);
  for (auto& best : chunk_best) {
    detail::merge_sorted_bounded(merged, best, k, stream_better);
  }
  return merged;
}

}  // namespace hpb::core
