#include "space/candidate_stream.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/rng.hpp"

namespace hpb::space {

CandidateStream::Candidate CandidateStream::ChunkColumns::candidate(
    std::size_t t) const {
  std::vector<double> values(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    values[i] = static_cast<double>(columns_[i][t]);
  }
  return Candidate{Configuration(std::move(values)), pass_index_[t],
                   ordinal_[t]};
}

void CandidateStream::ChunkColumns::reset(std::size_t num_params) {
  size_ = 0;
  if (columns_.size() != num_params) {
    rows_ = 0;
    levels_.clear();
    columns_.assign(num_params, nullptr);
  }
}

void CandidateStream::ChunkColumns::push(const std::uint32_t* levels,
                                         std::uint64_t pass_index,
                                         std::uint64_t ordinal) {
  if (size_ == rows_) {
    grow();
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    columns_[i][size_] = levels[i];
  }
  pass_index_[size_] = pass_index;
  ordinal_[size_] = ordinal;
  ++size_;
}

void CandidateStream::ChunkColumns::reserve(std::size_t rows) {
  while (rows_ < rows) {
    grow();
  }
}

void CandidateStream::ChunkColumns::grow() {
  const std::size_t rows = std::max<std::size_t>(2 * rows_, 64);
  std::vector<std::uint32_t> levels(columns_.size() * rows);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::copy_n(columns_[i], size_, levels.data() + i * rows);
    columns_[i] = levels.data() + i * rows;
  }
  levels_ = std::move(levels);
  pass_index_.resize(rows);
  ordinal_.resize(rows);
  rows_ = rows;
}

CandidateStream::CandidateStream(SpacePtr space, std::uint64_t seed,
                                 StreamConfig config)
    : space_(std::move(space)), seed_(seed), config_(config) {
  HPB_REQUIRE(space_ != nullptr, "CandidateStream: null space");
  HPB_REQUIRE(space_->is_finite(),
              "CandidateStream: space must be finite (all-discrete)");
  HPB_REQUIRE(config_.chunk > 0, "CandidateStream: chunk must be positive");
  HPB_REQUIRE(config_.pass_raw_budget > 0,
              "CandidateStream: pass_raw_budget must be positive");
  raw_size_ = space_->cross_product_size();  // throws on 2^64 overflow
  exhaustive_ = raw_size_ <= config_.max_exhaustive;
  pass_length_ =
      exhaustive_ ? raw_size_ : std::min(raw_size_, config_.pass_raw_budget);
  num_chunks_ = static_cast<std::size_t>(
      (pass_length_ + config_.chunk - 1) / config_.chunk);
  // Smallest balanced Feistel domain 2^(2*half_bits_) covering raw_size_.
  half_bits_ = 1;
  while (half_bits_ < 32 && (1ULL << (2 * half_bits_)) < raw_size_) {
    ++half_bits_;
  }
}

CandidateStream::FeistelKeys CandidateStream::keys_for(
    std::uint64_t pass) const {
  const std::uint64_t key = hash_combine(seed_, pass);
  FeistelKeys keys;
  for (std::uint64_t r = 0; r < 4; ++r) {
    keys.round[r] = hash_combine(key, r + 1);
  }
  return keys;
}

std::uint64_t CandidateStream::feistel_once(const FeistelKeys& keys,
                                            std::uint64_t v) const noexcept {
  const std::uint64_t mask = (1ULL << half_bits_) - 1;
  std::uint64_t left = v >> half_bits_;
  std::uint64_t right = v & mask;
  for (const std::uint64_t round_key : keys.round) {
    const std::uint64_t mixed = splitmix64(round_key ^ right) & mask;
    const std::uint64_t next = left ^ mixed;
    left = right;
    right = next;
  }
  return (left << half_bits_) | right;
}

std::uint64_t CandidateStream::permute(const FeistelKeys& keys,
                                       std::uint64_t raw) const noexcept {
  if (exhaustive_) {
    return raw;
  }
  // Cycle-walk: the Feistel network permutes [0, 2^(2*half_bits_)); re-apply
  // until the image lands below raw_size_. Since the domain is < 4x the
  // range, this needs ~1.3 applications on average and always terminates
  // (it walks a cycle of a permutation that contains `raw`).
  std::uint64_t v = raw;
  do {
    v = feistel_once(keys, v);
  } while (v >= raw_size_);
  return v;
}

std::uint64_t CandidateStream::ordinal_at(std::uint64_t pass,
                                          std::uint64_t raw) const {
  HPB_REQUIRE(raw < pass_length_, "ordinal_at: raw index out of range");
  return permute(keys_for(pass), raw);
}

SimdTier CandidateStream::generation_tier(SimdTier tier) const noexcept {
#if defined(HPB_SIMD_AVX512)
  if (tier == SimdTier::kAvx512 && raw_size_ <= RuleTables::kMaxExactSize) {
    return SimdTier::kAvx512;
  }
#else
  (void)tier;
#endif
  return SimdTier::kScalar;
}

void CandidateStream::chunk_columns(std::uint64_t pass, std::size_t chunk,
                                    ChunkColumns& out, SimdTier tier) const {
  HPB_REQUIRE(chunk < num_chunks_, "chunk_columns: chunk out of range");
  out.reset(space_->num_params());
  const FeistelKeys keys = keys_for(pass);
  const std::uint64_t begin = static_cast<std::uint64_t>(chunk) * config_.chunk;
  const std::uint64_t end = std::min<std::uint64_t>(
      begin + config_.chunk, pass_length_);
  if (generation_tier(tier) == SimdTier::kAvx512) {
#if defined(HPB_SIMD_AVX512)
    generate_avx512(keys, begin, end, out);
    return;
#endif
  }
  generate_scalar(keys, begin, end, out);
}

void CandidateStream::generate_scalar(const FeistelKeys& keys,
                                      std::uint64_t begin, std::uint64_t end,
                                      ChunkColumns& out) const {
  const PrefixFilter& filter = space_->prefix_filter();
  LevelBuffer buffer(space_->num_params());
  std::uint32_t* levels = buffer.data();
  std::uint64_t ordinals[kGenerateBlock];
  std::uint32_t kept[kGenerateBlock];  // block offsets left to validate
  for (std::uint64_t block = begin; block < end; block += kGenerateBlock) {
    // Permute a whole block before validating any of it: the Feistel rounds
    // of neighbouring raw indices are independent, so this loop keeps
    // several in flight, where interleaving them with the rules' hard to
    // predict rejections would serialize them.
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(kGenerateBlock,
                                                         end - block));
    for (std::size_t j = 0; j < count; ++j) {
      ordinals[j] = permute(keys, block + j);
    }
    // The prefix filter drops most invalid ordinals with one bit test each,
    // compacting the rest without a branch; only those reach the full
    // check, which the filter's rules are a part of.
    std::size_t num_kept = 0;
    for (std::size_t j = 0; j < count; ++j) {
      kept[num_kept] = static_cast<std::uint32_t>(j);
      num_kept += !filter.active() || filter.passes(ordinals[j]) ? 1 : 0;
    }
    for (std::size_t t = 0; t < num_kept; ++t) {
      const std::uint32_t j = kept[t];
      if (space_->accepts_ordinal(ordinals[j], levels)) {
        out.push(levels, block + j, ordinals[j]);
      }
    }
  }
}

void CandidateStream::chunk_candidates(std::uint64_t pass, std::size_t chunk,
                                       std::vector<Candidate>& out) const {
  ChunkColumns block;
  chunk_columns(pass, chunk, block);
  out.clear();
  out.reserve(block.size());
  for (std::size_t t = 0; t < block.size(); ++t) {
    out.push_back(block.candidate(t));
  }
}

std::vector<CandidateStream::Candidate> CandidateStream::pass_candidates(
    std::uint64_t pass, ThreadPool* pool) const {
  std::vector<std::vector<Candidate>> chunks(num_chunks_);
  parallel_for_indexed(pool, num_chunks_, [&](std::size_t i) {
    chunk_candidates(pass, i, chunks[i]);
  });
  std::size_t total = 0;
  for (const auto& chunk : chunks) {
    total += chunk.size();
  }
  std::vector<Candidate> out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    for (auto& candidate : chunk) {
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

std::vector<Configuration> CandidateStream::sample_pool(
    std::size_t k, std::uint64_t max_passes) const {
  HPB_REQUIRE(k > 0, "sample_pool: k must be positive");
  std::vector<Configuration> out;
  out.reserve(k);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(k * 2);
  const std::uint64_t passes = exhaustive_ ? 1 : max_passes;
  ChunkColumns block;
  for (std::uint64_t pass = 0; pass < passes && out.size() < k; ++pass) {
    for (std::size_t ci = 0; ci < num_chunks_ && out.size() < k; ++ci) {
      chunk_columns(pass, ci, block);
      for (std::size_t t = 0; t < block.size() && out.size() < k; ++t) {
        if (seen.insert(block.ordinal(t)).second) {
          out.push_back(block.candidate(t).config);
        }
      }
    }
  }
  HPB_REQUIRE(out.size() == k,
              "sample_pool: space yielded only " +
                  std::to_string(out.size()) + " of " + std::to_string(k) +
                  " distinct valid configurations");
  return out;
}

}  // namespace hpb::space
