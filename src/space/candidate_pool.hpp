// CandidatePool: an enumerated list of valid configurations, shared by
// every tuner over one dataset, and its structure-of-arrays column mirror.
//
// The Ranking strategy (§III-D) rescores the whole pool on every fitted
// suggest. Its sweep (core/acquisition.hpp) reads the pool through
// PoolColumns: one contiguous per-parameter column of small indices (the
// level for discrete parameters, the rank of the candidate's value among
// the pool's distinct values for continuous ones), so the sweep streams
// through cache instead of chasing heap-allocated Configuration vectors.
//
// Both halves are immutable once built, so one copy serves every session
// over a dataset: the list is held by a shared pointer, and the mirror is
// built by the first columns() call — from whichever thread gets there
// first, exactly once — and read by every later one. Nothing is built
// when the pool is made; a dataset whose sessions never fit never pays for
// the mirror.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "space/parameter_space.hpp"

namespace hpb::space {

/// Candidates in column layout: data[i][r] is candidate r's table row for
/// parameter i, for every row r < rows (the layout score_block consumes).
struct ColumnBlock {
  std::span<const std::uint32_t* const> data;
  std::size_t rows = 0;
};

/// Structure-of-arrays mirror of a candidate pool. With an empty pool it is
/// just the space's table layout, which is what a streamed sweep's
/// AcquisitionTable is built over.
class PoolColumns {
 public:
  PoolColumns(const ParameterSpace& space, std::span<const Configuration> pool);

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

  /// Every column, as one block of size() rows.
  [[nodiscard]] ColumnBlock block() const noexcept {
    return {column_ptrs_, size_};
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

/// A shared candidate pool: the configuration list and its column mirror,
/// built on first use. Hold it by shared pointer; every tuner holding the
/// same pool reads the same mirror.
class CandidatePool {
 public:
  /// `configs` must hold only valid configurations of `space`.
  CandidatePool(SpacePtr space,
                std::shared_ptr<const std::vector<Configuration>> configs);

  CandidatePool(const CandidatePool&) = delete;
  CandidatePool& operator=(const CandidatePool&) = delete;

  [[nodiscard]] const std::vector<Configuration>& configs() const noexcept {
    return *configs_;
  }
  /// The list itself, for tuners that take a plain configuration list.
  [[nodiscard]] const std::shared_ptr<const std::vector<Configuration>>&
  shared_configs() const noexcept {
    return configs_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return configs_->size(); }

  /// The column mirror: built by the first call, under a lock, and shared
  /// by every later call from any thread. The reference stays valid for
  /// the pool's lifetime.
  [[nodiscard]] const PoolColumns& columns() const;

  /// Whether columns() has built the mirror yet.
  [[nodiscard]] bool has_columns() const;

 private:
  SpacePtr space_;
  std::shared_ptr<const std::vector<Configuration>> configs_;
  mutable std::mutex mutex_;  // guards the one build of columns_
  mutable std::optional<PoolColumns> columns_;
};

}  // namespace hpb::space
