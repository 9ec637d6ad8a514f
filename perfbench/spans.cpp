#include "spans.hpp"

#include <string_view>

namespace perfbench {

SpanContext& current_context() {
  thread_local SpanContext context;
  return context;
}

/// Times one call: forwards the installed recorder to the wrapped tuner,
/// then records the call's duration (and span) when it returns or throws.
class TimedTuner::Timer {
 public:
  Timer(TimedTuner& owner, Call call)
      : owner_(owner), call_(call) {
    owner_.inner_->set_recorder(owner_.recorder_);
    start_ = now_ns();
  }
  ~Timer() {
    const std::uint64_t end = now_ns();
    if (owner_.times_ != nullptr && call_ != Call::kAbandon) {
      (call_ == Call::kSuggest ? owner_.times_->suggests
                               : owner_.times_->observes)
          .push_back({.end_ns = end, .duration_ns = end - start_});
    }
    if (owner_.spans_ != nullptr) {
      const SpanContext& context = current_context();
      const char* name = call_ == Call::kSuggest   ? "core.tuner.suggest"
                         : call_ == Call::kObserve ? "core.tuner.observe"
                                                   : "core.tuner.abandon";
      owner_.spans_->add({.name = name,
                          .id = owner_.spans_->next_id(),
                          .parent = context.parent,
                          .request = context.request,
                          .start_ns = start_,
                          .end_ns = end});
    }
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  TimedTuner& owner_;
  Call call_;
  std::uint64_t start_ = 0;
};

TimedTuner::TimedTuner(std::unique_ptr<hpb::core::Tuner> inner,
                       TunerCallTimes* times, SpanLog* spans)
    : inner_(std::move(inner)), times_(times), spans_(spans) {}

hpb::space::Configuration TimedTuner::suggest() {
  const Timer timer(*this, Call::kSuggest);
  return inner_->suggest();
}

void TimedTuner::observe(const hpb::space::Configuration& config, double y) {
  const Timer timer(*this, Call::kObserve);
  inner_->observe(config, y);
}

void TimedTuner::observe_failure(const hpb::space::Configuration& config,
                                 hpb::core::EvalStatus status) {
  const Timer timer(*this, Call::kObserve);
  inner_->observe_failure(config, status);
}

void TimedTuner::abandon(const hpb::space::Configuration& config) {
  const Timer timer(*this, Call::kAbandon);
  inner_->abandon(config);
}

std::vector<hpb::space::Configuration> TimedTuner::suggest_batch(
    std::size_t k) {
  const Timer timer(*this, Call::kSuggest);
  return inner_->suggest_batch(k);
}

void TimedTuner::observe_batch(
    std::span<const hpb::core::Observation> observations) {
  const Timer timer(*this, Call::kObserve);
  inner_->observe_batch(observations);
}

void SweepSink::emit(const hpb::obs::TraceEvent& event) {
  if (event.name != "hiperbot.sweep") {
    other_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SweepEvent sweep{.start_ns = event.start_ns, .end_ns = event.end_ns};
  for (const hpb::obs::TraceAttr& attr : event.attrs) {
    if (attr.key == "mode") {
      sweep.streamed = attr.string_value == "stream";
    } else if (attr.key == "excluded") {
      sweep.excluded = attr.uint_value;
    } else if (attr.key == "pass_length") {
      sweep.pass_length = attr.uint_value;
    } else if (attr.key == "table_build_ns") {
      sweep.table_build_ns = attr.uint_value;
    } else if (attr.key == "sweep_ns") {
      sweep.sweep_ns = attr.uint_value;
    } else if (attr.key == "reused_columns") {
      sweep.reused_columns = attr.uint_value;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  sweeps_.push_back(sweep);
}

std::string span_json(const Span& span) {
  std::string line = "{\"id\":" + std::to_string(span.id);
  line += ",\"parent\":" + std::to_string(span.parent);
  line += ",\"request\":" + std::to_string(span.request);
  line += ",\"name\":\"";
  line += span.name;
  line += '"';
  if (*span.verb != '\0') {
    line += ",\"verb\":\"";
    line += span.verb;
    line += '"';
  }
  line += ",\"ts\":" + std::to_string(span.start_ns);
  line += ",\"dur\":" + std::to_string(span.duration()) + "}";
  return line;
}

}  // namespace perfbench
