#include "space/candidate_pool.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace hpb::space {

PoolColumns::PoolColumns(const ParameterSpace& space,
                         std::span<const Configuration> pool)
    : size_(pool.size()) {
  const std::size_t n_params = space.num_params();
  for (const auto& c : pool) {
    HPB_REQUIRE(c.size() == n_params,
                "PoolColumns: configuration size mismatch");
  }
  columns_.resize(n_params);
  distinct_.resize(n_params);
  table_sizes_.assign(n_params, 0);
  continuous_.assign(n_params, 0);
  for (std::size_t i = 0; i < n_params; ++i) {
    std::vector<std::uint32_t>& col = columns_[i];
    col.resize(size_);
    const Parameter& p = space.param(i);
    if (p.is_discrete()) {
      const std::size_t levels = p.num_levels();
      table_sizes_[i] = levels;
      for (std::size_t j = 0; j < size_; ++j) {
        const std::size_t level = pool[j].level(i);
        HPB_REQUIRE(level < levels, "PoolColumns: level out of range");
        col[j] = static_cast<std::uint32_t>(level);
      }
    } else {
      continuous_[i] = 1;
      std::vector<double>& distinct = distinct_[i];
      distinct.reserve(size_);
      for (std::size_t j = 0; j < size_; ++j) {
        const double v = pool[j][i];
        HPB_REQUIRE(std::isfinite(v),
                    "PoolColumns: non-finite continuous value");
        distinct.push_back(v);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      table_sizes_[i] = distinct.size();
      for (std::size_t j = 0; j < size_; ++j) {
        const auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                         pool[j][i]);
        col[j] = static_cast<std::uint32_t>(it - distinct.begin());
      }
    }
  }
  column_ptrs_.resize(n_params);
  for (std::size_t i = 0; i < n_params; ++i) {
    column_ptrs_[i] = columns_[i].data();
  }
  if (space.is_finite()) {
    ordinals_.resize(size_);
    for (std::size_t j = 0; j < size_; ++j) {
      ordinals_[j] = space.ordinal_of(pool[j]);
    }
  }
}

CandidatePool::CandidatePool(
    SpacePtr space, std::shared_ptr<const std::vector<Configuration>> configs)
    : space_(std::move(space)), configs_(std::move(configs)) {
  HPB_REQUIRE(space_ != nullptr, "CandidatePool: null space");
  HPB_REQUIRE(configs_ != nullptr, "CandidatePool: null configuration list");
}

const PoolColumns& CandidatePool::columns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!columns_) {
    columns_.emplace(*space_, *configs_);
  }
  return *columns_;
}

bool CandidatePool::has_columns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return columns_.has_value();
}

}  // namespace hpb::space
