// Shared pieces of the perfbench harness: what one measured phase reports,
// order statistics, seed derivation, and the output digest that proves two
// phases drove the program through identical work.
#pragma once

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// Options every workload receives from the command line. Workloads run
/// inside a working directory of their own and may create files there.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Fewest samples a window needs to count: its p90 then rests on at least
/// ten samples beyond it.
inline constexpr std::size_t kMinWindowSamples = 100;

/// One named measurement and its sample count. A metric summarizing
/// several values (one per window, set-up repeat or tuning run) keeps them,
/// and `how` says how they were summarized, e.g. "median of 12 tuning runs".
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::vector<double> values{};
  std::string how{};
};

/// One timed wait as its caller saw it.
struct Timing {
  std::uint64_t end_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Everything one phase (untraced or traced) of a workload reports.
struct PhaseResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // traced phases only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable descriptions of failed output checks; empty = correct.
  std::vector<std::string> check_failures;
  /// Digest of the program's outputs over the deterministic prefix of the
  /// phase (identical for every phase and repeat with the same seed).
  std::string digest;
  /// Host CPU steal ticks (from /proc/stat) over the measured interval.
  std::uint64_t steal_ticks = 0;
  /// Timings that arrived for a window already summarized, and dropped.
  std::uint64_t late_samples = 0;
  /// Span file lines of a traced phase: the spans of its deterministic
  /// prefix (the full span set of a long phase is too large to keep).
  std::vector<std::string> trace_lines;
  /// Extra workload-specific JSON members (without braces), e.g. the layer
  /// accounting table; appended verbatim to the results document.
  std::string detail_json;
};

/// End-to-end observations of a phase, folded into windows as they arrive.
/// A window is a unit of like work, so that windows differ only in how the
/// host treated them: one wave of serve_churn (every session of both
/// clients through all its rounds), or 100 consecutive fitted suggests of
/// one tune_streamed run. A window's samples are dropped once it is
/// summarized, so the
/// benchmark's own memory stays flat and peak_rss_mb measures the program.
/// Thread-safe.
class EndToEnd {
 public:
  /// A suggest a caller waited for, in window `window`.
  void add_suggest(std::size_t window, const Timing& t);
  /// A suggest -> observe step: the caller's wait for the suggest plus its
  /// wait for the observe of the results.
  void add_step(std::size_t window, const Timing& t);
  /// `count` evaluations accepted at `end_ns`.
  void add_evaluations(std::size_t window, std::uint64_t end_ns,
                       std::size_t count);
  /// Close the interval: windows [0, windows) are complete, later ones are
  /// dropped.
  void finish(std::size_t windows);

  /// The end_to_end metrics of BENCHMARK.json, in its order (peak RSS is
  /// read at the call). Timings, throughput and set-up time report the
  /// quietest window or repeat (lowest time, highest rate): host
  /// interference only ever adds time, in bursts and regimes of seconds to
  /// minutes that a median or mean over windows follows.
  [[nodiscard]] std::vector<Metric> metrics() const;
  /// Timings dropped because their window was already summarized.
  [[nodiscard]] std::uint64_t late_samples() const;

  std::vector<double> setup_s;     // one per set-up repeat
  std::vector<double> best_ratio;  // one per run or session of the prefix

 private:
  struct Summary {
    double p50 = 0.0;
    double p90 = 0.0;
    std::size_t samples = 0;
  };
  /// Timings of one kind: an open window keeps its samples until a window
  /// two later receives one; then only its summary stays, and a sample
  /// arriving for it later is dropped and counted. Windows may overlap as
  /// long as each one's samples arrive before the next-but-one window's.
  struct Series {
    std::map<std::size_t, std::vector<double>> open;
    std::vector<Summary> closed;  // indexed by window
    std::size_t closed_below = 0;  // windows below this are summarized
    std::uint64_t late = 0;
  };
  struct Throughput {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    double completions = 0.0;
  };

  static void add(Series& series, std::size_t window, const Timing& t);
  static void close_before(Series& series, std::size_t window);
  [[nodiscard]] Metric summarize(const char* name, const Series& series,
                                 bool p90) const;

  mutable std::mutex mutex_;
  std::size_t windows_ = 0;  // complete windows, known after finish()
  Series suggest_;
  Series step_;
  std::vector<Throughput> evals_;
};

/// Pins the calling thread to one CPU of its original set at a time and
/// restores the original set when destroyed; threads it starts meanwhile
/// inherit the pin. On a shared VM each vCPU has slow stretches of its own
/// (for instance while the host runs other work on its sibling
/// hyperthread) that can last a whole run; moving from repeat to repeat
/// over every vCPU lets the quietest repeat or window find one that is not
/// slowed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move to the `index`-th CPU of the set, cyclically.
  void pin(std::size_t index) const;
  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Per-layer means of a traced phase. A layer the workload does not
/// exercise stays 0 (see README.md for which metric applies where).
struct Layers {
  double server_self_us = 0.0;
  double wire_suggest_us = 0.0;
  double wire_observe_us = 0.0;
  double wire_self_us = 0.0;
  double build_us = 0.0;
  double resumes_per_suggest = 0.0;
  double journal_bytes_per_eval = 0.0;
  double tuner_suggest_us = 0.0;
  double tuner_observe_us = 0.0;
  double tuner_calls_per_suggest = 0.0;
  double sweep_us = 0.0;
  double table_build_us = 0.0;
  double fit_self_us = 0.0;
  double ns_per_candidate = 0.0;
  double table_reuse = 0.0;
  double engine_self_us = 0.0;
};

/// The per_layer metrics of BENCHMARK.json, in its order.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Layers& layers);

/// Independent 64-bit seed for item `index` of stream `stream` of a run.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream,
                                               std::uint64_t index) {
  return hpb::splitmix64(hpb::splitmix64(seed ^ hpb::splitmix64(stream)) +
                         index);
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive fingerprint.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xffU;
      state_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = digits[(state_ >> (4 * i)) & 0xfU];
    }
    return out;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Percentile q in [0, 1] by linear interpolation between order statistics
/// (the "linear" method of numpy). Sorts `v`. Empty input gives 0.
[[nodiscard]] inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(v, 0.5);
}

/// How a metric summarizes its values.
enum class Pick {
  kMedian,
  kLowest,
  kHighest,
};

/// A metric summarizing `values`, one per `what` (e.g. "windows").
[[nodiscard]] Metric summary_metric(std::string name, std::string unit,
                                    std::vector<double> values,
                                    std::size_t samples, Pick pick,
                                    const char* what);

/// Number in its shortest round-trip form (obs::json_double), so no digit
/// is lost; non-finite values render as null.
[[nodiscard]] std::string json_number(double v);

/// Host-wide CPU steal ticks so far (field 8 of the `cpu` line of
/// /proc/stat); 0 when unavailable.
[[nodiscard]] std::uint64_t steal_ticks_now();

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
