#include "core/acquisition.hpp"

#include <cmath>
#include <cstring>

namespace hpb::core {

namespace {

/// Bitwise equality of double vectors (memcmp: distinguishes -0.0 from 0.0
/// and never equates NaNs, so a "match" can only mean an identical
/// recomputation — mismatches merely cost a recompute).
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool scalar_bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool AcquisitionTable::MarginalKey::matches(
    const MarginalKey& other) const noexcept {
  return continuous == other.continuous &&
         scalar_bits_equal(smoothing, other.smoothing) &&
         scalar_bits_equal(bandwidth, other.bandwidth) &&
         scalar_bits_equal(lo, other.lo) && scalar_bits_equal(hi, other.hi) &&
         bits_equal(values, other.values) &&
         bits_equal(weights, other.weights);
}

AcquisitionTable::AcquisitionTable(const TpeSurrogate& surrogate,
                                   const PoolColumns& columns,
                                   const AcquisitionTable* prev) {
  const std::size_t n_params = columns.num_params();
  HPB_REQUIRE(surrogate.good().num_params() == n_params,
              "AcquisitionTable: parameter count mismatch");
  offsets_.resize(n_params);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_params; ++i) {
    offsets_[i] = total;
    total += columns.table_size(i);
  }
  // An incremental rebuild requires the previous table to cover the same
  // pool layout; anything else falls back to a full build.
  if (prev != nullptr &&
      (prev->offsets_ != offsets_ || prev->log_good_.size() != total)) {
    prev = nullptr;
  }
  log_good_.resize(total);
  log_bad_.resize(total);
  good_keys_.resize(n_params);
  bad_keys_.resize(n_params);
  auto key_of = [&](const FactorizedDensity& density, std::size_t i) {
    MarginalKey key;
    if (columns.is_continuous(i)) {
      const stats::KernelDensity& k = density.kernel(i);
      key.continuous = true;
      key.bandwidth = k.bandwidth();
      key.lo = k.lo();
      key.hi = k.hi();
      key.values.assign(k.centers().begin(), k.centers().end());
      key.weights.assign(k.kernel_weights().begin(), k.kernel_weights().end());
    } else {
      const stats::HistogramDensity& h = density.histogram(i);
      key.smoothing = h.smoothing();
      key.values.assign(h.counts().begin(), h.counts().end());
    }
    return key;
  };
  for (std::size_t i = 0; i < n_params; ++i) {
    good_keys_[i] = key_of(surrogate.good(), i);
    bad_keys_[i] = key_of(surrogate.bad(), i);
    const std::size_t rows = columns.table_size(i);
    if (rows == 0) {
      continue;
    }
    // A column reused from `prev` was computed from a bitwise-identical
    // marginal, so it is the same doubles either way — copy it straight
    // into the flat table. The recompute path also writes in place: the
    // old build-into-temporaries-then-append flow cost one allocation plus
    // a second copy per column, which made the incremental path *slower*
    // than a full build on all-discrete tables (refit speedup 0.91 at pool
    // 2^20). Entries are computed by the exact marginal calls the direct
    // path makes (log_pmf / log_pdf), so a table lookup reproduces the
    // direct score bit for bit.
    const auto fill = [&](const FactorizedDensity& density,
                          std::vector<double>& table, const MarginalKey& key,
                          const MarginalKey* prev_key,
                          const std::vector<double>* prev_table) {
      double* dst = table.data() + offsets_[i];
      if (prev_key != nullptr && key.matches(*prev_key)) {
        std::memcpy(dst, prev_table->data() + offsets_[i],
                    rows * sizeof(double));
        ++reused_columns_;
      } else if (columns.is_continuous(i)) {
        density.kernel(i).log_pdf_many(columns.distinct_values(i),
                                       std::span<double>(dst, rows));
      } else {
        density.histogram(i).log_pmf_table(std::span<double>(dst, rows));
      }
    };
    fill(surrogate.good(), log_good_, good_keys_[i],
         prev != nullptr ? &prev->good_keys_[i] : nullptr,
         prev != nullptr ? &prev->log_good_ : nullptr);
    fill(surrogate.bad(), log_bad_, bad_keys_[i],
         prev != nullptr ? &prev->bad_keys_[i] : nullptr,
         prev != nullptr ? &prev->log_bad_ : nullptr);
  }
}

void AcquisitionTable::score_block(const ColumnBlock& cols,
                                   std::size_t first, std::size_t count,
                                   double* out, SimdTier tier) const {
  HPB_REQUIRE(cols.data.size() == offsets_.size(),
              "AcquisitionTable::score_block: parameter count mismatch");
  HPB_REQUIRE(first <= cols.rows && count <= cols.rows - first,
              "AcquisitionTable::score_block: range out of bounds");
  core::score_block(tier, log_good_.data(), log_bad_.data(), offsets_.data(),
                    cols.data.data(), offsets_.size(), first, first + count,
                    out);
}

SweepChunk StreamSource::chunk(std::size_t c) const {
  thread_local space::CandidateStream::ChunkColumns block;
  stream.chunk_columns(pass, c, block);
  return {{std::span(block.columns(), stream.space().num_params()),
           block.size()},
          0,
          block.size(),
          block.pass_index_data(),
          block.ordinal_data()};
}

}  // namespace hpb::core
