// Low-overhead metrics registry: named counters, gauges, and fixed-bucket
// histograms.
//
// The hot path (increment / set / record) is lock-free — a relaxed atomic
// op on a pre-registered handle — so the engine and the tuners can meter
// every evaluation without perturbing timing-sensitive runs. Registration
// and snapshotting are cold paths and take a mutex. Handles returned by the
// registry are stable for the registry's lifetime (instruments are heap-
// allocated and never moved), so callers register once and keep the
// reference.
//
// Snapshots are deterministic: instruments are serialized in name order,
// with doubles printed in shortest round-trip form, so two identical runs
// write byte-identical metrics files.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace hpb::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double (stored as IEEE-754 bits; atomic<double> is not
/// guaranteed lock-free everywhere, atomic<uint64_t> is on every target we
/// build for).
class Gauge {
 public:
  void set(double v) noexcept;
  [[nodiscard]] double value() const noexcept;

 private:
  std::atomic<std::uint64_t> bits_{0};  // bits of 0.0
};

/// Fixed-bucket histogram: counts per bucket plus a running count/sum, all
/// relaxed atomics. Bucket i counts samples <= bounds[i]; one overflow
/// bucket catches the rest. Bounds are fixed at registration — no resizing
/// or locking on record().
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void record(double sample) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // CAS-accumulated double
};

/// Default bucket bounds for millisecond latencies (sub-ms to minutes).
[[nodiscard]] std::span<const double> default_latency_buckets_ms();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Re-registering an existing name returns the
  /// same instrument; registering a name under a different kind throws.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `upper_bounds` must be non-empty and strictly increasing; it is
  /// ignored (the original bounds stand) when the histogram already exists.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::span<const double> upper_bounds);

  /// Deterministic JSON snapshot: one object keyed by instrument name, in
  /// lexicographic order.
  [[nodiscard]] std::string to_json() const;

  /// Atomically (tmp + rename) write to_json() to `path`.
  void write_json(const std::string& path) const;

  /// Process-unique and never reused, unlike the registry's address: a
  /// cache of handles keyed by it cannot mistake a new registry for a
  /// destroyed one that lived at the same address.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  [[nodiscard]] static std::uint64_t next_serial() noexcept;

  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;  // registration + snapshot only
  std::map<std::string, Instrument> instruments_;
  std::uint64_t serial_ = next_serial();
};

}  // namespace hpb::obs
