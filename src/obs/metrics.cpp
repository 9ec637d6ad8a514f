#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "obs/json_util.hpp"

namespace hpb::obs {

void Gauge::set(double v) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  HPB_REQUIRE(!bounds_.empty(), "Histogram: bucket bounds must be non-empty");
  HPB_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "Histogram: bucket bounds must be strictly increasing");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::record(double sample) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // size() == overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free double accumulation: CAS on the bit pattern.
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double updated = std::bit_cast<double>(expected) + sample;
    if (sum_bits_.compare_exchange_weak(
            expected, std::bit_cast<std::uint64_t>(updated),
            std::memory_order_relaxed, std::memory_order_relaxed)) {
      return;
    }
  }
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::span<const double> default_latency_buckets_ms() {
  static constexpr std::array<double, 14> kBuckets = {
      0.01, 0.05, 0.1, 0.5,  1.0,   5.0,   10.0,
      50.0, 100., 500., 1e3, 5e3,   1e4,   6e4};
  return kBuckets;
}

std::uint64_t MetricsRegistry::next_serial() noexcept {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  HPB_REQUIRE(!slot.gauge && !slot.histogram,
              "MetricsRegistry: '" + name + "' already registered with a "
              "different kind");
  if (!slot.counter) {
    slot.counter = std::make_unique<Counter>();
  }
  return *slot.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  HPB_REQUIRE(!slot.counter && !slot.histogram,
              "MetricsRegistry: '" + name + "' already registered with a "
              "different kind");
  if (!slot.gauge) {
    slot.gauge = std::make_unique<Gauge>();
  }
  return *slot.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& slot = instruments_[name];
  HPB_REQUIRE(!slot.counter && !slot.gauge,
              "MetricsRegistry: '" + name + "' already registered with a "
              "different kind");
  if (!slot.histogram) {
    slot.histogram = std::make_unique<Histogram>(upper_bounds);
  }
  return *slot.histogram;
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\n";
  bool first = true;
  for (const auto& [name, slot] : instruments_) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "  \"" << name << "\": ";
    if (slot.counter) {
      out << "{\"type\":\"counter\",\"value\":" << slot.counter->value()
          << '}';
    } else if (slot.gauge) {
      out << "{\"type\":\"gauge\",\"value\":"
          << json_double(slot.gauge->value()) << '}';
    } else {
      const Histogram& h = *slot.histogram;
      out << "{\"type\":\"histogram\",\"count\":" << h.count()
          << ",\"sum\":" << json_double(h.sum()) << ",\"buckets\":[";
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i > 0) {
          out << ',';
        }
        out << "{\"le\":"
            << (i < h.bounds().size() ? json_double(h.bounds()[i])
                                      : std::string("\"inf\""))
            << ",\"count\":" << h.bucket_count(i) << '}';
      }
      out << "]}";
    }
  }
  out << "\n}\n";
  return out.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  fs::write_file_atomic(path, to_json());
}

}  // namespace hpb::obs
