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
//   - PoolColumns (space/candidate_pool.hpp): a structure-of-arrays mirror
//     of the candidate pool, one contiguous per-parameter column of small
//     indices. A space::CandidatePool builds it on its first sweep and
//     every tuner sharing the pool reads that one copy, so a dataset's
//     sessions build it once between them.
//   - AcquisitionTable: per-fit score tables. For every discrete parameter
//     a `level -> (log pg, log pb)` table computed once per surrogate fit;
//     for every continuous parameter the same memo over the pool's
//     distinct values. Scoring a candidate becomes num_params table
//     lookups per accumulator, added in the same order as
//     FactorizedDensity::log_density — the resulting doubles are
//     bitwise-identical to the direct path's. score_block() runs the same
//     gathers through the runtime-dispatched SIMD kernel (core/simd.hpp):
//     lane-per-candidate, so vectorized scores are also bitwise-identical.
//   - sweep_topk: the one deterministic chunked top-k sweep over the shared
//     common::ThreadPool. A source yields fixed chunks of candidates in
//     column layout — kSweepChunk-row slices of PoolColumns (PoolSource),
//     or the valid candidates of one CandidateStream pass chunk
//     (StreamSource) — each chunk is scored through score_block() into a
//     chunk-local buffer and reduced at once to a sorted list of at most k
//     SweepHits, and the chunk lists are merged serially in chunk order.
//     Chunk boundaries never depend on the worker count and ties break
//     toward the lowest candidate index, so the result is identical for
//     any thread count; a full score vector is never materialized, so the
//     working set is O(threads * kSweepChunk + num_chunks * k) regardless
//     of how many candidates the source holds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/simd.hpp"
#include "core/surrogate.hpp"
#include "space/candidate_pool.hpp"
#include "space/candidate_stream.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

using space::ColumnBlock;
using space::PoolColumns;

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

  /// Scores rows [first, first + count) of `cols` into out[0 .. count)
  /// through the runtime-dispatched SIMD kernel. Every tier's output is
  /// bitwise-identical to calling score() per candidate.
  void score_block(const ColumnBlock& cols, std::size_t first,
                   std::size_t count, double* out,
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

  std::vector<std::size_t> offsets_;  // per-param start into the flat tables
  std::vector<double> log_good_;
  std::vector<double> log_bad_;
  std::vector<MarginalKey> good_keys_;  // per-param, for the next fit's diff
  std::vector<MarginalKey> bad_keys_;
  std::size_t reused_columns_ = 0;
};

/// One sweep result. `index` is the candidate's position in its source —
/// the pool index, or the raw in-pass index of a streamed candidate — and
/// the deterministic tie-break key; `ordinal` is its cross-product ordinal
/// (the dedup identity; 0 for pools over non-finite spaces).
struct SweepHit {
  std::uint64_t index = 0;
  double score = 0.0;
  std::uint64_t ordinal = 0;
};

/// Strict ordering of the sweep: descending score, ties broken by lowest
/// candidate index (indices are unique within a source, so this is a total
/// order). On a flat unconstrained space swept exhaustively, in-pass indices
/// equal pool indices, so pooled and streamed sweeps pick the same winners.
[[nodiscard]] inline bool sweep_better(const SweepHit& a,
                                       const SweepHit& b) noexcept {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// Fixed sweep chunk size. Chunk boundaries depend only on the pool size,
/// never on the worker count, so chunk-local results — and therefore the
/// final reduction — are identical for any thread count.
inline constexpr std::size_t kSweepChunk = 8192;

/// One chunk of a sweep source: rows [first, first + count) of `cols`. Row
/// r's tie-break index is index[r] (r itself when null) and its ordinal is
/// ordinal[r] (0 when null).
struct SweepChunk {
  ColumnBlock cols;
  std::size_t first = 0;
  std::size_t count = 0;
  const std::uint64_t* index = nullptr;
  const std::uint64_t* ordinal = nullptr;
};

/// Sweep source over a column-mirrored pool: kSweepChunk-row slices.
struct PoolSource {
  const PoolColumns& columns;

  [[nodiscard]] std::size_t num_chunks() const noexcept {
    return (columns.size() + kSweepChunk - 1) / kSweepChunk;
  }
  [[nodiscard]] SweepChunk chunk(std::size_t c) const noexcept {
    const std::size_t first = c * kSweepChunk;
    return {columns.block(), first,
            std::min(kSweepChunk, columns.size() - first), nullptr,
            columns.ordinals().empty() ? nullptr : columns.ordinals().data()};
  }
};

/// Sweep source over one pass of a CandidateStream: each chunk's valid
/// candidates, generated straight into level columns (streamed spaces are
/// all-discrete). The chunk lives in a per-thread block, valid until the
/// calling thread asks for its next chunk.
struct StreamSource {
  const space::CandidateStream& stream;
  std::uint64_t pass = 0;

  [[nodiscard]] std::size_t num_chunks() const noexcept {
    return stream.num_chunks();
  }
  [[nodiscard]] SweepChunk chunk(std::size_t c) const;
};

namespace detail {

/// Insert `hit` into the sorted bounded list `best` (capacity k). The
/// caller pre-checks the reject case (full list, hit not better than the
/// tail).
inline void bounded_sorted_insert(std::vector<SweepHit>& best,
                                  const SweepHit& hit, std::size_t k) {
  std::size_t pos = best.size();
  while (pos > 0 && sweep_better(hit, best[pos - 1])) {
    --pos;
  }
  best.insert(best.begin() + static_cast<std::ptrdiff_t>(pos), hit);
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
inline void merge_sorted_bounded(std::vector<SweepHit>& merged,
                                 const std::vector<SweepHit>& chunk,
                                 std::size_t k) {
  for (const SweepHit& hit : chunk) {
    if (merged.size() == k && !sweep_better(hit, merged.back())) {
      break;
    }
    bounded_sorted_insert(merged, hit, k);
  }
}

}  // namespace detail

/// Deterministic chunked top-k sweep of `source` (PoolSource or
/// StreamSource) under `table`. Each chunk is scored in one score_block()
/// call (vectorized under `tier`) into a chunk-local buffer and reduced to
/// at most k hits at once; `excluded(hit)` hides a candidate (typically
/// testing hit.ordinal). Chunks run on `pool` (serial when null or
/// single-threaded) and their lists are merged serially in chunk order
/// under sweep_better, so the result is identical for any thread count and
/// SIMD tier, and equals scoring every candidate with table.score().
/// Returns at most k hits, best first; fewer when the source holds fewer
/// unexcluded candidates.
template <class Source, class ExcludedFn>
[[nodiscard]] std::vector<SweepHit> sweep_topk(
    const Source& source, const AcquisitionTable& table, std::size_t k,
    ThreadPool* pool, const ExcludedFn& excluded,
    SimdTier tier = active_simd_tier()) {
  const std::size_t num_chunks = source.num_chunks();
  if (num_chunks == 0 || k == 0) {
    return {};
  }
  std::vector<std::vector<SweepHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t c) {
    const SweepChunk chunk = source.chunk(c);
    if (chunk.count == 0) {
      return;
    }
    std::vector<double> scores(chunk.count);
    table.score_block(chunk.cols, chunk.first, chunk.count, scores.data(),
                      tier);
    std::vector<SweepHit>& best = chunk_best[c];
    best.reserve(std::min(k, chunk.count));
    for (std::size_t t = 0; t < chunk.count; ++t) {
      // Score-only cut first: once the list is full, almost every candidate
      // scores below its tail, and rejecting those without touching the
      // index or ordinal columns keeps the hot loop cheap. Equal scores go
      // on to the full compare (the index breaks the tie), then the
      // exclusion probe — the result is the same in any order.
      const double score = scores[t];
      if (best.size() == k && score < best.back().score) {
        continue;
      }
      const std::size_t row = chunk.first + t;
      const SweepHit hit{chunk.index != nullptr ? chunk.index[row] : row,
                         score,
                         chunk.ordinal != nullptr ? chunk.ordinal[row] : 0};
      if (best.size() == k && !sweep_better(hit, best.back())) {
        continue;
      }
      if (excluded(hit)) {
        continue;
      }
      detail::bounded_sorted_insert(best, hit, k);
    }
  });
  std::vector<SweepHit> merged;
  merged.reserve(k + 1);
  for (const auto& best : chunk_best) {
    detail::merge_sorted_bounded(merged, best, k);
  }
  return merged;
}

}  // namespace hpb::core
