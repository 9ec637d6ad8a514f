// Benchmark-side tracing: spans recorded from outside the program, around
// the calls into each of its layers, kept in memory and written out when
// the run ends.
//
// A span has a name, start and end on the program's own monotonic clock
// (obs::SystemClock, so benchmark spans and the spans the program emits
// share one timeline), the span that caused it, and the id of the request
// it belongs to. Children learn their parent and request from a
// thread-local context that the enclosing span installs: every layer call
// below a request runs on the thread that handles the request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/tuner.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return hpb::obs::SystemClock::instance().now_ns();
}

/// Span names are string literals; `verb` refines client and handler spans.
struct Span {
  const char* name = "";
  const char* verb = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root of its request
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
};

/// Parent span and request id inherited by spans opened on this thread.
struct SpanContext {
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// The calling thread's current context.
[[nodiscard]] SpanContext& current_context();

/// Installs a context for its lifetime and restores the previous one.
class ScopedContext {
 public:
  explicit ScopedContext(SpanContext context)
      : saved_(current_context()) {
    current_context() = context;
  }
  ~ScopedContext() { current_context() = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  [[nodiscard]] std::uint64_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  /// Move out everything recorded so far.
  [[nodiscard]] std::vector<Span> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
  }

 private:
  std::atomic<std::uint64_t> next_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Every call into a tuner's suggest and observe entry points, as a caller
/// of the tuner waits for it.
struct TunerCallTimes {
  std::vector<Timing> suggests;
  std::vector<Timing> observes;
};

/// Forwarding Tuner decorator that times every call into the wrapped tuner
/// from outside. Durations go to `times` (when set) and spans named
/// core.tuner.* to `spans` (when set), parented to the thread's context.
///
/// Tuner::set_recorder is not virtual: a Session or TuningEngine installs
/// its recorder on this decorator, and the decorator passes it on to the
/// wrapped tuner before every call, so the wrapped tuner exports exactly
/// what it would export undecorated.
class TimedTuner final : public hpb::core::Tuner {
 public:
  TimedTuner(std::unique_ptr<hpb::core::Tuner> inner, TunerCallTimes* times,
             SpanLog* spans);

  [[nodiscard]] hpb::space::Configuration suggest() override;
  void observe(const hpb::space::Configuration& config, double y) override;
  void observe_failure(const hpb::space::Configuration& config,
                       hpb::core::EvalStatus status) override;
  void abandon(const hpb::space::Configuration& config) override;
  [[nodiscard]] std::vector<hpb::space::Configuration> suggest_batch(
      std::size_t k) override;
  void observe_batch(
      std::span<const hpb::core::Observation> observations) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  enum class Call { kSuggest, kObserve, kAbandon };
  class Timer;

  std::unique_ptr<hpb::core::Tuner> inner_;
  TunerCallTimes* times_;
  SpanLog* spans_;
};

/// One hiperbot.sweep span emitted by the program, with the attributes the
/// acquisition layer metrics need.
struct SweepEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool streamed = false;
  std::uint64_t excluded = 0;     // evaluated + pending at sweep time
  std::uint64_t pass_length = 0;  // raw indices per streamed pass
  std::uint64_t table_build_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t reused_columns = 0;
};

/// Benchmark-owned in-memory obs::TraceSink. Keeps the hiperbot.sweep spans
/// and counts every other event the program emits.
class SweepSink final : public hpb::obs::TraceSink {
 public:
  [[nodiscard]] std::uint64_t next_id() override {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void emit(const hpb::obs::TraceEvent& event) override;

  [[nodiscard]] std::vector<SweepEvent> take_sweeps() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(sweeps_, {});
  }
  [[nodiscard]] std::uint64_t other_events() const {
    return other_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> next_{1};
  std::atomic<std::uint64_t> other_{0};
  std::mutex mutex_;
  std::vector<SweepEvent> sweeps_;  // guarded by mutex_
};

/// One JSON line per span: {"id":..,"parent":..,"request":..,"name":..,
/// "verb":..,"ts":..,"dur":..} with times in nanoseconds.
[[nodiscard]] std::string span_json(const Span& span);

}  // namespace perfbench
