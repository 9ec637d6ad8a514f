#include "space/level_rules.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"

namespace hpb::space {

FixedDivisor::FixedDivisor(std::uint64_t divisor) {
  HPB_REQUIRE(divisor > 0, "FixedDivisor: division by zero");
  const unsigned log2_floor = 63u - static_cast<unsigned>(
                                        std::countl_zero(divisor));
  shift_ = log2_floor;
  if (std::has_single_bit(divisor)) {
    return;  // magic_ == 0: a plain shift
  }
  // m = floor(2^(64+l) / d) fits in 64 bits because d > 2^l.
  __extension__ using Wide = unsigned __int128;
  const Wide power = Wide{1} << (64 + log2_floor);
  const auto m = static_cast<std::uint64_t>(power / divisor);
  const std::uint64_t rem = static_cast<std::uint64_t>(power % divisor);
  if (divisor - rem < (std::uint64_t{1} << log2_floor)) {
    // Rounding 2^(64+l) up to a multiple of d overshoots by less than 2^l,
    // so m + 1 is an exact magic number for every 64-bit dividend.
    magic_ = m + 1;
    return;
  }
  // Otherwise the exact magic number is ceil(2^(65+l) / d) = 2m + 1 (the
  // doubled remainder stays below d, as rem <= d - 2^l here), which needs
  // 65 bits: keep the low 64 and let divide() add the dividend back in for
  // the missing top bit.
  magic_ = 2 * m + 1;
  wide_ = true;
}

void LevelRules::add_parameter(std::size_t levels) {
  HPB_REQUIRE(levels <= std::numeric_limits<std::uint32_t>::max(),
              "LevelRules: too many levels");
  radix_.push_back(static_cast<std::uint32_t>(levels));
  parent_.push_back(kNoParent);
  mask_.push_back(0);
  compile();
}

void LevelRules::add_conditional(std::size_t child, std::size_t parent,
                                 const std::vector<char>& active_at) {
  HPB_REQUIRE(child < radix_.size() && parent < child &&
                  active_at.size() == radix_[parent],
              "LevelRules: malformed conditional");
  parent_[child] = static_cast<std::uint32_t>(parent);
  mask_[child] = static_cast<std::uint32_t>(activates_.size());
  activates_.insert(activates_.end(), active_at.begin(), active_at.end());
  compile();
}

void LevelRules::add_divisibility(std::size_t divisor, std::size_t dividend,
                                  std::vector<char> accept) {
  HPB_REQUIRE(divisor < radix_.size() && dividend < radix_.size() &&
                  accept.size() == std::size_t{radix_[divisor]} *
                                       radix_[dividend],
              "LevelRules: malformed divisibility rule");
  divisibility_.push_back({static_cast<std::uint32_t>(divisor),
                           static_cast<std::uint32_t>(dividend),
                           static_cast<std::uint32_t>(accept_.size())});
  accept_.insert(accept_.end(), accept.begin(), accept.end());
  compile();
}

void LevelRules::compile() {
  const std::size_t n = radix_.size();

  // Strides, when every parameter is discrete and the product fits.
  block_.clear();
  std::vector<std::uint64_t> block(n + 1, 1);
  bool decodable = true;
  for (std::size_t i = n; i-- > 0 && decodable;) {
    decodable = radix_[i] > 0 &&
                block[i + 1] <= std::numeric_limits<std::uint64_t>::max() /
                                    radix_[i];
    block[i] = decodable ? block[i + 1] * radix_[i] : 0;
  }
  if (decodable) {
    for (const std::uint64_t b : block) {
      block_.emplace_back(b);
    }
  }

  // Rule order: activity rules in parameter order, then divisibility rules
  // in registration order. Each rule's decode range holds the levels it
  // reads — its parameters and their ancestor chains — that no earlier
  // rule decoded.
  rules_.clear();
  decode_order_.clear();
  std::vector<char> decoded(n, 0);
  auto decode = [&](std::uint32_t i) {
    if (decoded[i] == 0) {
      decoded[i] = 1;
      decode_order_.push_back(i);
    }
  };
  auto decode_chain = [&](std::uint32_t i) {
    for (; i != kNoParent; i = parent_[i]) {
      decode(i);
    }
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (parent_[i] != kNoParent) {
      decode_chain(i);
      rules_.push_back({i, 0, kActivityRule,
                        static_cast<std::uint32_t>(decode_order_.size())});
    }
  }
  for (const Divisibility& d : divisibility_) {
    decode_chain(d.divisor);
    decode_chain(d.dividend);
    rules_.push_back({d.divisor, d.dividend, d.table,
                      static_cast<std::uint32_t>(decode_order_.size())});
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    decode(i);
  }

  filter_cache_.drop();
}

const PrefixFilter& LevelRules::prefix_filter() const {
  const std::lock_guard lock(filter_cache_.mutex);
  if (filter_cache_.filter == nullptr) {
    filter_cache_.filter =
        std::make_unique<const PrefixFilter>(compile_prefix_filter());
  }
  return *filter_cache_.filter;
}

const RuleTables& LevelRules::rule_tables() const {
  const std::lock_guard lock(filter_cache_.mutex);
  if (filter_cache_.tables == nullptr) {
    filter_cache_.tables =
        std::make_unique<const RuleTables>(compile_rule_tables());
  }
  return *filter_cache_.tables;
}

RuleTables LevelRules::compile_rule_tables() const {
  RuleTables tables;
  if (block_.empty()) {
    return tables;  // no ordinals to decode
  }
  const std::size_t n = radix_.size();
  std::vector<std::uint64_t> stride(n + 1, 1);
  for (std::size_t i = n; i-- > 0;) {
    stride[i] = stride[i + 1] * radix_[i];
  }
  for (const std::uint64_t s : stride) {
    tables.stride.push_back(static_cast<double>(s));
  }
  for (const std::uint32_t r : radix_) {
    tables.radix.push_back(static_cast<double>(r));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (parent_[i] != kNoParent) {
      tables.conditionals.push_back({i, parent_[i], mask_[i]});
    }
  }
  for (const Divisibility& d : divisibility_) {
    tables.divisibility.push_back(
        {d.divisor, d.dividend, d.table, radix_[d.dividend]});
  }
  tables.activates.assign(activates_.begin(), activates_.end());
  tables.activates.resize(activates_.size() + RuleTables::kGatherPad, 0);
  tables.accept.assign(accept_.begin(), accept_.end());
  tables.accept.resize(accept_.size() + RuleTables::kGatherPad, 0);
  return tables;
}

PrefixFilter LevelRules::compile_prefix_filter() const {
  PrefixFilter filter;
  if (block_.empty()) {
    return filter;  // no ordinals to divide
  }
  // The longest prefix that fits the budget (entries stays below 2^20 and
  // a level count below 2^32, so the product cannot overflow).
  const std::size_t n = radix_.size();
  std::size_t fits = 0;
  for (std::uint64_t entries = 1;
       fits < n && entries * radix_[fits] <= PrefixFilter::kMaxEntries;
       ++fits) {
    entries *= radix_[fits];
  }
  // Every rule inside it, keyed by the last parameter it reads: a rule
  // reads its parameters and their ancestor chains, and parents precede
  // children, so that is its highest parameter index.
  std::vector<std::vector<const Rule*>> checked_at(fits);
  std::size_t depth = 0;
  for (const Rule& r : rules_) {
    const std::uint32_t last =
        r.table == kActivityRule ? r.a : std::max(r.a, r.b);
    if (last < fits) {
      checked_at[last].push_back(&r);
      ++filter.num_rules_;
      depth = std::max<std::size_t>(depth, last + 1);
    }
  }
  if (depth == 0) {
    return filter;
  }
  // Parameters past the deepest rule would only repeat each bit: leave
  // them out of the prefix.
  filter.num_params_ = depth;
  std::uint64_t entries = 1;
  for (std::size_t i = 0; i < depth; ++i) {
    entries *= radix_[i];
  }
  filter.entries_ = entries;
  filter.suffix_ = block_[depth];
  filter.bits_.assign((entries + 63) / 64, 0);

  // Depth-first over the prefix levels in mixed-radix order, checking each
  // rule as soon as its last parameter is fixed. A failed rule prunes the
  // whole subtree, whose bits stay clear.
  std::vector<std::uint32_t> levels(depth, 0);
  auto visit = [&](auto& self, std::size_t d, std::uint64_t index) -> void {
    const bool leaf = d + 1 == depth;
    for (std::uint32_t l = 0; l < radix_[d]; ++l) {
      levels[d] = l;
      bool ok = true;
      for (const Rule* r : checked_at[d]) {
        if (!passes(*r, levels.data())) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        continue;
      }
      const std::uint64_t next = index * radix_[d] + l;
      if (leaf) {
        filter.bits_[next >> 6] |= std::uint64_t{1} << (next & 63);
        ++filter.passed_;
      } else {
        self(self, d + 1, next);
      }
    }
  };
  visit(visit, 0, 0);
  return filter;
}

}  // namespace hpb::space
