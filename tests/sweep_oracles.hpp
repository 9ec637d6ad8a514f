// Reference implementations the sweep and streamed-generation suites
// compare against:
//   - reference_chunk_candidates: the per-index generator, decoding every
//     raw index's ordinal into a Configuration with configuration_at() and
//     filtering it with satisfies();
//   - core::acquisition_topk: the generic per-candidate top-k over
//     candidates 0..n-1, scoring each one through a callback;
//   - core::acquisition_topk_stream: the per-Configuration streamed top-k,
//     scoring each reference candidate through a callback.
// All are deliberately the plain loops; the product's sweep_topk must match
// them hit for hit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "space/candidate_stream.hpp"

namespace hpb {
namespace testutil {

/// Valid candidates of one chunk of one pass, one configuration_at() +
/// satisfies() per raw index, in raw-index order.
inline std::vector<space::CandidateStream::Candidate>
reference_chunk_candidates(const space::CandidateStream& stream,
                           std::uint64_t pass, std::size_t chunk) {
  const std::uint64_t chunk_size = stream.config().chunk;
  const std::uint64_t begin = static_cast<std::uint64_t>(chunk) * chunk_size;
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + chunk_size, stream.pass_length());
  std::vector<space::CandidateStream::Candidate> out;
  for (std::uint64_t raw = begin; raw < end; ++raw) {
    const std::uint64_t ordinal = stream.ordinal_at(pass, raw);
    space::Configuration c = stream.space().configuration_at(ordinal);
    if (stream.space().satisfies(c)) {
      out.push_back({std::move(c), raw, ordinal});
    }
  }
  return out;
}

}  // namespace testutil

namespace core {

/// Offer `hit` to the bounded sorted list `best` (capacity k).
inline void offer_hit(std::vector<SweepHit>& best, const SweepHit& hit,
                      std::size_t k) {
  if (best.size() == k && !sweep_better(hit, best.back())) {
    return;
  }
  detail::bounded_sorted_insert(best, hit, k);
}

/// Chunk-local lists merged serially in chunk order, like sweep_topk.
inline std::vector<SweepHit> merge_chunks(
    const std::vector<std::vector<SweepHit>>& chunk_best, std::size_t k) {
  std::vector<SweepHit> merged;
  for (const auto& best : chunk_best) {
    detail::merge_sorted_bounded(merged, best, k);
  }
  return merged;
}

/// Deterministic chunked top-k over candidates 0..n-1: `score(j)` per
/// candidate, `excluded(j)` hides one; ties toward the lowest index.
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
    for (std::size_t j = begin; j < end; ++j) {
      if (!excluded(j)) {
        offer_hit(chunk_best[chunk], SweepHit{j, score(j), 0}, k);
      }
    }
  });
  return merge_chunks(chunk_best, k);
}

/// Deterministic chunked top-k over one pass of reference candidates:
/// `score(config)` per candidate, `excluded(hit)` hides one; a hit's index
/// is the candidate's raw in-pass index.
template <class ScoreFn, class ExcludedFn>
[[nodiscard]] std::vector<SweepHit> acquisition_topk_stream(
    const space::CandidateStream& stream, std::uint64_t pass, std::size_t k,
    ThreadPool* pool, const ScoreFn& score, const ExcludedFn& excluded) {
  const std::size_t num_chunks = stream.num_chunks();
  if (num_chunks == 0 || k == 0) {
    return {};
  }
  std::vector<std::vector<SweepHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t chunk) {
    for (const auto& candidate :
         testutil::reference_chunk_candidates(stream, pass, chunk)) {
      const SweepHit hit{candidate.pass_index, score(candidate.config),
                         candidate.ordinal};
      if (!excluded(hit)) {
        offer_hit(chunk_best[chunk], hit, k);
      }
    }
  });
  return merge_chunks(chunk_best, k);
}

}  // namespace core
}  // namespace hpb
