// LevelRules: a ParameterSpace's structural validity compiled onto level
// indices, so a candidate can be checked without building a Configuration.
//
// Three kinds of structure are compiled as the space is built:
//   - the mixed-radix strides of the cross product, each with a fixed
//     multiply-high divisor, so any one level of an ordinal decodes with two
//     independent multiplications instead of a dependent chain of divisions;
//   - every conditional parameter's parent and its mask of activating parent
//     levels (the canonical-sentinel rule: an inactive parameter must hold
//     level 0);
//   - every divisibility rule as two indices plus an accept table over their
//     level pairs, so the check is one byte lookup instead of an opaque
//     predicate over level values.
//
// accepts() evaluates the rules in a fixed order — activity rules in
// parameter order, then divisibility rules in registration order — and
// decodes each level of the ordinal only when the first rule that reads it
// comes up, so most invalid candidates are rejected after a couple of
// decodes. The rules are a conjunction, so evaluation order never changes
// the answer, only how soon a rejection is found.
//
// On top of the rules sits a PrefixFilter: every rule that reads only the
// leading parameters, evaluated once for every combination of their levels
// and stored as one bit per combination. An ordinal's leading levels form
// the combined index ordinal / (product of the remaining level counts), so
// the filter rejects most invalid ordinals with one multiply-high and one
// bit test, before any level is decoded or any rule branch is taken. It is
// compiled on first use, once per set of rules, and dropped whenever a
// parameter or rule is added.
//
// Beside the filter, and under the same lazy cache, sit the RuleTables:
// the same rules laid out for a generator that checks eight candidates at
// once (CandidateStream's AVX-512 path): strides as doubles, each
// conditional's parent and mask, each divisibility rule's operands, and
// the activation and accept tables as byte arrays padded for gathers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hpb::space {

/// Exact unsigned 64-bit division by a divisor fixed at construction, as a
/// multiply-high and shifts (Granlund & Montgomery, "Division by invariant
/// integers using multiplication", PLDI 1994).
class FixedDivisor {
 public:
  /// Divides by 1.
  FixedDivisor() = default;
  explicit FixedDivisor(std::uint64_t divisor);

  [[nodiscard]] std::uint64_t divide(std::uint64_t n) const noexcept {
    if (magic_ == 0) {
      return n >> shift_;  // power of two
    }
    __extension__ using Wide = unsigned __int128;
    const auto hi =
        static_cast<std::uint64_t>((static_cast<Wide>(n) * magic_) >> 64);
    // A 65-bit magic number keeps only its low 64 bits; adding n back
    // (halved first, so the sum cannot overflow) supplies the top bit.
    return wide_ ? (((n - hi) >> 1) + hi) >> shift_ : hi >> shift_;
  }

 private:
  std::uint64_t magic_ = 0;
  unsigned shift_ = 0;
  bool wide_ = false;
};

/// Level buffer for one configuration: on the stack for up to 32
/// parameters, on the heap beyond that.
class LevelBuffer {
 public:
  explicit LevelBuffer(std::size_t num_params)
      : heap_(num_params > kInline ? num_params : 0) {}

  [[nodiscard]] std::uint32_t* data() noexcept {
    return heap_.empty() ? inline_ : heap_.data();
  }

 private:
  static constexpr std::size_t kInline = 32;
  std::uint32_t inline_[kInline];
  std::vector<std::uint32_t> heap_;
};

/// The rules over a space's leading parameters as a bitset (see the file
/// comment): bit p is set iff every compiled rule whose parameters all lie
/// in the prefix passes on the prefix levels whose combined mixed-radix
/// index is p. Every rule is part of the full check, so passes() is false
/// only for ordinals LevelRules::accepts() rejects too. Built by
/// LevelRules::prefix_filter(); inactive when no rule lies in the prefix.
class PrefixFilter {
 public:
  /// Largest prefix cross product compiled: 2^20 bits, 128 KB, small
  /// enough to stay in a core's L2 cache while a sweep streams past it.
  static constexpr std::uint64_t kMaxEntries = 1ULL << 20;

  /// True when the filter holds a rule; passes() needs an active filter.
  [[nodiscard]] bool active() const noexcept { return !bits_.empty(); }

  /// Leading parameters the bitset covers.
  [[nodiscard]] std::size_t num_params() const noexcept { return num_params_; }

  /// Compiled rules that lie wholly in the prefix.
  [[nodiscard]] std::size_t num_rules() const noexcept { return num_rules_; }

  /// Bits in the set: the prefix's cross product.
  [[nodiscard]] std::uint64_t entries() const noexcept { return entries_; }

  /// Bits set, out of entries(): the filter's pass count. Every prefix
  /// combination has the same number of completions, so passed() /
  /// entries() is also the share of the full cross product that passes.
  [[nodiscard]] std::uint64_t passed() const noexcept { return passed_; }

  /// Bytes the bitset occupies.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

  /// The bitset as 64-bit words: bit p is bit p % 64 of word p / 64.
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return bits_.data();
  }

  /// False when a rule over the prefix rejects the configuration at
  /// `ordinal` (an active filter; `ordinal` below the cross product).
  [[nodiscard]] bool passes(std::uint64_t ordinal) const noexcept {
    const std::uint64_t p = suffix_.divide(ordinal);
    return ((bits_[p >> 6] >> (p & 63)) & 1) != 0;
  }

 private:
  friend class LevelRules;

  FixedDivisor suffix_;  // product of the level counts after the prefix
  std::vector<std::uint64_t> bits_;
  std::size_t num_params_ = 0;
  std::size_t num_rules_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t passed_ = 0;
};

/// The compiled rules laid out for lane-parallel evaluation (see the file
/// comment). Built by LevelRules::rule_tables() for decodable spaces (all
/// discrete, cross product within 64 bits); empty otherwise. Levels
/// decoded from strides held as doubles are exact while the cross product
/// stays within kMaxExactSize: every ordinal and stride is then an exact
/// double, and a division rounded toward minus infinity cannot reach the
/// next integer, so its floor is the exact quotient.
struct RuleTables {
  static constexpr std::uint64_t kMaxExactSize = 1ULL << 53;
  /// Zero bytes after each byte table, so a 32-bit gather at its last
  /// entry stays inside it.
  static constexpr std::size_t kGatherPad = 3;

  /// A conditional parameter: active iff its parent is active and
  /// activates[mask + parent level] != 0.
  struct Conditional {
    std::uint32_t param = 0;
    std::uint32_t parent = 0;
    std::uint64_t mask = 0;
  };
  /// A divisibility rule: accept[table + level(a) * radix_b + level(b)]
  /// != 0, or either side inactive.
  struct Divisibility {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint64_t table = 0;
    std::uint64_t radix_b = 0;
  };

  /// stride[i]: product of the level counts of parameters i..n-1
  /// (stride[0]: the cross product; stride[n]: 1), so level i is
  /// floor(ordinal / stride[i+1]) - floor(ordinal / stride[i]) * radix[i].
  std::vector<double> stride;
  std::vector<double> radix;
  std::vector<Conditional> conditionals;  // parameter order
  std::vector<Divisibility> divisibility;  // registration order
  std::vector<std::uint8_t> activates;     // activation masks, padded
  std::vector<std::uint8_t> accept;        // accept tables, padded
};

/// A space's structural validity over level indices (see the file
/// comment). ParameterSpace builds it as parameters and rules are
/// registered.
class LevelRules {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  /// Append a parameter; `levels` is 0 for a continuous parameter (which
  /// takes part only through the sentinel rule, as pseudo-level 0 when it
  /// holds its lower bound and 1 otherwise).
  void add_parameter(std::size_t levels);

  /// Make parameter `child` conditional on the earlier parameter `parent`:
  /// active iff the parent is active and active_at[parent level] != 0.
  void add_conditional(std::size_t child, std::size_t parent,
                       const std::vector<char>& active_at);

  /// Register "divisor divides dividend": accept[a * levels(b) + b] != 0
  /// for level a of the divisor and level b of the dividend. Vacuous when
  /// either side is inactive.
  void add_divisibility(std::size_t divisor, std::size_t dividend,
                        std::vector<char> accept);

  [[nodiscard]] std::uint32_t parent(std::size_t i) const noexcept {
    return parent_[i];
  }

  /// Whether parent level `level` activates conditional parameter i.
  [[nodiscard]] bool activated_by(std::size_t i,
                                  std::size_t level) const noexcept {
    return level < radix_[parent_[i]] && activates_[mask_[i] + level] != 0;
  }

  /// Every structural rule over fully known, in-range levels.
  [[nodiscard]] bool accepts_levels(const std::uint32_t* levels) const noexcept {
    for (const Rule& r : rules_) {
      if (!passes(r, levels)) {
        return false;
      }
    }
    return true;
  }

  /// Every structural rule on the configuration at `ordinal`, decoding its
  /// levels into `levels` lazily and stopping at the first failed rule. On
  /// true, every level has been decoded.
  [[nodiscard]] bool accepts(std::uint64_t ordinal,
                             std::uint32_t* levels) const noexcept {
    std::size_t next = 0;
    for (const Rule& r : rules_) {
      for (; next < r.decode_end; ++next) {
        levels[decode_order_[next]] = level_at(ordinal, decode_order_[next]);
      }
      if (!passes(r, levels)) {
        return false;
      }
    }
    for (; next < decode_order_.size(); ++next) {
      levels[decode_order_[next]] = level_at(ordinal, decode_order_[next]);
    }
    return true;
  }

  /// The prefix filter of the rules registered so far, compiled on the
  /// first call after the last add_* and shared by every later call; safe
  /// to call from several threads at once. The prefix is the longest run
  /// of leading parameters whose cross product fits
  /// PrefixFilter::kMaxEntries, cut back to the last parameter a rule
  /// inside it reads. Inactive when the space is not decodable (a
  /// continuous parameter, or a cross product past 64 bits) or no rule
  /// lies in the prefix. The reference stays valid until the next add_*.
  [[nodiscard]] const PrefixFilter& prefix_filter() const;

  /// The rules laid out for lane-parallel evaluation, compiled like
  /// prefix_filter(): once, on the first call after the last add_*, and
  /// safe to call from several threads at once. The reference stays valid
  /// until the next add_*.
  [[nodiscard]] const RuleTables& rule_tables() const;

 private:
  static constexpr std::uint32_t kActivityRule = 0xFFFFFFFFu;

  /// Level of parameter i in the configuration at `ordinal` (finite spaces
  /// whose cross product fits in 64 bits; `ordinal` below it).
  [[nodiscard]] std::uint32_t level_at(std::uint64_t ordinal,
                                       std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(
        block_[i + 1].divide(ordinal) -
        block_[i].divide(ordinal) * radix_[i]);
  }

  /// True when parameter i is active: its whole ancestor chain is active
  /// and each parent's level activates its child.
  [[nodiscard]] bool active(const std::uint32_t* levels,
                            std::size_t i) const noexcept {
    for (std::uint32_t p = parent_[i]; p != kNoParent; p = parent_[i]) {
      if (activates_[mask_[i] + levels[p]] == 0) {
        return false;
      }
      i = p;
    }
    return true;
  }

  /// One compiled rule. Activity: parameter `a` holds level 0 or is
  /// active. Divisibility (table != kActivityRule): the accept table at
  /// offset `table` admits (level a, level b), or either side is inactive.
  struct Rule {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t table = kActivityRule;
    std::uint32_t decode_end = 0;  // decode_order_ prefix read by this rule
  };

  [[nodiscard]] bool passes(const Rule& r,
                            const std::uint32_t* levels) const noexcept {
    if (r.table == kActivityRule) {
      return levels[r.a] == 0 || active(levels, r.a);
    }
    return accept_[r.table + levels[r.a] * radix_[r.b] + levels[r.b]] != 0 ||
           !active(levels, r.a) || !active(levels, r.b);
  }

  /// Rebuild the strides, the rule order and the lazy decode order, and
  /// drop the prefix filter.
  void compile();

  /// Compile the prefix filter of the current rules (prefix_filter()).
  [[nodiscard]] PrefixFilter compile_prefix_filter() const;

  /// Lay out the current rules for rule_tables().
  [[nodiscard]] RuleTables compile_rule_tables() const;

  std::vector<std::uint32_t> radix_;   // levels per parameter (0: continuous)
  std::vector<std::uint32_t> parent_;  // kNoParent when unconditional
  std::vector<std::uint32_t> mask_;    // offset of the activation mask
  std::vector<char> activates_;        // activation masks, by parent level
  struct Divisibility {
    std::uint32_t divisor = 0;
    std::uint32_t dividend = 0;
    std::uint32_t table = 0;
  };
  std::vector<Divisibility> divisibility_;  // registration order
  std::vector<char> accept_;                // divisibility accept tables

  /// block_[i] divides by the product of the level counts of parameters
  /// i..n-1 (block_[0]: the cross-product size; block_[n]: 1), so
  /// level i = ordinal / block_[i+1] - ordinal / block_[i] * radix_[i].
  /// Empty unless the space is finite and its cross product fits 64 bits.
  std::vector<FixedDivisor> block_;
  std::vector<Rule> rules_;                  // evaluation order
  std::vector<std::uint32_t> decode_order_;  // rule prefixes, then the rest

  /// prefix_filter()'s and rule_tables()' results, each compiled on first
  /// use. A copy of the rules starts without them and compiles its own.
  struct FilterCache {
    FilterCache() = default;
    FilterCache(const FilterCache& /*other*/) noexcept {}
    FilterCache& operator=(const FilterCache& other) {
      if (this != &other) {
        drop();
      }
      return *this;
    }
    void drop() {
      const std::lock_guard lock(mutex);
      filter.reset();
      tables.reset();
    }

    std::mutex mutex;
    std::unique_ptr<const PrefixFilter> filter;  // guarded by mutex
    std::unique_ptr<const RuleTables> tables;    // guarded by mutex
  };
  mutable FilterCache filter_cache_;
};

}  // namespace hpb::space
