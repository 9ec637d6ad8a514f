// Reference implementations the streamed-generation suites compare against:
//   - reference_chunk_candidates: the per-index generator, decoding every
//     raw index's ordinal into a Configuration with configuration_at() and
//     filtering it with satisfies();
//   - core::acquisition_topk_stream: the per-Configuration streamed top-k,
//     scoring each reference candidate through a callback.
// Both are deliberately the plain loops; the product code must match them
// candidate for candidate.
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

/// Deterministic chunked top-k over one pass of reference candidates:
/// `score(config)` per candidate, `excluded(candidate)` hides one.
/// Chunk-local lists are merged in chunk order under stream_better, like
/// acquisition_topk_stream_table.
template <class ScoreFn, class ExcludedFn>
[[nodiscard]] std::vector<StreamHit> acquisition_topk_stream(
    const space::CandidateStream& stream, std::uint64_t pass, std::size_t k,
    ThreadPool* pool, const ScoreFn& score, const ExcludedFn& excluded) {
  const std::size_t num_chunks = stream.num_chunks();
  if (num_chunks == 0 || k == 0) {
    return {};
  }
  std::vector<std::vector<StreamHit>> chunk_best(num_chunks);
  parallel_for_indexed(pool, num_chunks, [&](std::size_t chunk) {
    std::vector<space::CandidateStream::Candidate> candidates =
        testutil::reference_chunk_candidates(stream, pass, chunk);
    std::vector<StreamHit>& best = chunk_best[chunk];
    best.reserve(std::min(k, candidates.size()));
    for (auto& candidate : candidates) {
      if (excluded(candidate)) {
        continue;
      }
      StreamHit hit{space::Configuration{}, score(candidate.config),
                    candidate.pass_index, candidate.ordinal};
      if (best.size() == k && !stream_better(hit, best.back())) {
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

}  // namespace core
}  // namespace hpb
