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
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Rebuild the strides, the rule order and the lazy decode order.
  void compile();

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
};

}  // namespace hpb::space
