#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json_util.hpp"

namespace perfbench {

std::string json_number(double v) {
  return std::isfinite(v) ? hpb::obs::json_double(v) : "null";
}

void EndToEnd::add_suggest(std::size_t window, const Timing& t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  add(suggest_, window, t);
}

void EndToEnd::add_step(std::size_t window, const Timing& t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  add(step_, window, t);
}

void EndToEnd::add_evaluations(std::size_t window, std::uint64_t end_ns,
                               std::size_t count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (evals_.size() <= window) {
    evals_.resize(window + 1);
  }
  Throughput& t = evals_[window];
  t.first = t.completions == 0.0 ? end_ns : std::min(t.first, end_ns);
  t.last = std::max(t.last, end_ns);
  t.completions += static_cast<double>(count);
}

void EndToEnd::add(Series& series, std::size_t window, const Timing& t) {
  if (window < series.closed_below) {
    ++series.late;  // its window's summary is final
    return;
  }
  // Threads report slightly out of order, so the previous window stays open.
  if (window >= 2) {
    close_before(series, window - 1);
  }
  series.open[window].push_back(static_cast<double>(t.duration_ns) / 1e6);
}

void EndToEnd::close_before(Series& series, std::size_t window) {
  series.closed_below = std::max(series.closed_below, window);
  while (!series.open.empty() && series.open.begin()->first < window) {
    auto& [w, samples] = *series.open.begin();
    if (series.closed.size() <= w) {
      series.closed.resize(w + 1);
    }
    series.closed[w] = {.p50 = percentile(samples, 0.5),
                        .p90 = percentile(samples, 0.9),
                        .samples = samples.size()};
    series.open.erase(series.open.begin());
  }
}

void EndToEnd::finish(std::size_t windows) {
  const std::lock_guard<std::mutex> lock(mutex_);
  windows_ = windows;
  close_before(suggest_, windows_);
  close_before(step_, windows_);
  suggest_.open.clear();  // incomplete windows
  step_.open.clear();
}

std::uint64_t EndToEnd::late_samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return suggest_.late + step_.late;
}

Metric EndToEnd::summarize(const char* name, const Series& series,
                           bool p90) const {
  std::vector<double> values;
  std::size_t samples = 0;
  for (std::size_t w = 0; w < std::min(windows_, series.closed.size()); ++w) {
    const Summary& s = series.closed[w];
    if (s.samples >= kMinWindowSamples) {
      values.push_back(p90 ? s.p90 : s.p50);
      samples += s.samples;
    }
  }
  return summary_metric(name, "ms", std::move(values), samples, Pick::kLowest,
                        "windows");
}

std::vector<Metric> EndToEnd::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Throughput of a window: completions after its first one, over the time
  // from its first completion to its last (a count over the window length
  // would be quantized to whole evaluations).
  std::vector<double> evals;
  std::size_t counted = 0;
  for (std::size_t w = 0; w < std::min(windows_, evals_.size()); ++w) {
    const Throughput& t = evals_[w];
    if (t.completions >= static_cast<double>(kMinWindowSamples) &&
        t.last > t.first) {
      counted += static_cast<std::size_t>(t.completions);
      evals.push_back((t.completions - 1.0) * 1e9 /
                      static_cast<double>(t.last - t.first));
    }
  }
  return {
      summary_metric("setup_s", "s", setup_s, setup_s.size(), Pick::kLowest,
                     "set-ups"),
      summarize("suggest_p50_ms", suggest_, false),
      summarize("suggest_p90_ms", suggest_, true),
      summarize("step_p50_ms", step_, false),
      summarize("step_p90_ms", step_, true),
      summary_metric("evals_per_s", "1/s", std::move(evals), counted,
                     Pick::kHighest, "windows"),
      summary_metric("best_ratio_50", "ratio", best_ratio, best_ratio.size(),
                     Pick::kMedian, "tuning runs"),
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

Metric summary_metric(std::string name, std::string unit,
                      std::vector<double> values, std::size_t samples,
                      Pick pick, const char* what) {
  double value = median(values);
  const char* how = "median";
  if (pick != Pick::kMedian && !values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    value = pick == Pick::kLowest ? *lo : *hi;
    how = "quietest";
  }
  std::string described = std::string(how) + " of " +
                          std::to_string(values.size()) + " " + what;
  return {std::move(name), value, std::move(unit), samples, std::move(values),
          std::move(described)};
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof(original_), &original_);
  }
}

void CpuRotation::pin(std::size_t index) const {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[index % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::vector<Metric> per_layer_metrics(const Layers& l) {
  return {
      {"service.server.self_us", l.server_self_us, "us"},
      {"service.wire.suggest_us", l.wire_suggest_us, "us"},
      {"service.wire.observe_us", l.wire_observe_us, "us"},
      {"service.wire.self_us", l.wire_self_us, "us"},
      {"core.session_manager.build_us", l.build_us, "us"},
      {"core.session_manager.resumes_per_suggest", l.resumes_per_suggest,
       "ratio"},
      {"core.journal.bytes_per_eval", l.journal_bytes_per_eval, "B"},
      {"core.tuner.suggest_us", l.tuner_suggest_us, "us"},
      {"core.tuner.observe_us", l.tuner_observe_us, "us"},
      {"core.tuner.calls_per_suggest", l.tuner_calls_per_suggest, "ratio"},
      {"core.hiperbot.sweep_us", l.sweep_us, "us"},
      {"core.hiperbot.table_build_us", l.table_build_us, "us"},
      {"core.hiperbot.fit_self_us", l.fit_self_us, "us"},
      {"core.acquisition.ns_per_candidate", l.ns_per_candidate, "ns"},
      {"core.acquisition.table_reuse", l.table_reuse, "ratio"},
      {"core.engine.self_us", l.engine_self_us, "us"},
  };
}

std::uint64_t steal_ticks_now() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) {
    return 0;
  }
  // cpu user nice system idle iowait irq softirq steal ...
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) {
      return 0;
    }
  }
  return value;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec (the launching interpreter).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
