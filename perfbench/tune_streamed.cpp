// tune_streamed: HiPerBOt driven in process by core::TuningEngine::run on the
// full systolic space, with batch 1, no journal, and a serial sweep (as in
// production, where nothing calls set_sweep_pool). A TimedTuner times each
// suggest_batch / observe_batch the engine makes; traced phases also route
// the program's own spans into a benchmark-owned SweepSink, whose
// hiperbot.sweep spans split each fitted suggest into sweep and fit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/systolic.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "eval/metrics.hpp"
#include "space/candidate_stream.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hpb::space::Configuration;

constexpr std::size_t kBudget = 200;
/// best_ratio_50 looks at this prefix of every run.
constexpr std::size_t kQualityEvals = 50;
/// Evaluations of each run drawn at random before HiPerBOt fits; they take
/// microseconds and lie outside every window.
const std::size_t kInitialSamples = hpb::core::HiPerBOtConfig{}.initial_samples;
/// A window is this many consecutive fitted evaluations of one run, so its
/// p90 rests on ten samples beyond it. Windows start every kWindowStride
/// evaluations (five per run, overlapping), so that a run of 1.3-2.5 s gives
/// several windows and one of them can fall in a fast stretch of the host.
constexpr std::size_t kWindowEvals = 100;
constexpr std::size_t kWindowStride = 20;
/// A set-up takes ~20 ms, so 45 repeats sample ~1 s of the host.
constexpr int kSetupRepeats = 45;
/// Runs every phase completes whatever --seconds says, so that the digest
/// and best_ratio_50 cover the same runs on every machine: 12 runs, enough
/// for the median ratio to hold still across seeds.
constexpr std::size_t kPrefixRuns = 12;
/// Traced phases write the spans of this many leading runs to the span file.
constexpr std::size_t kSpanFileRuns = 5;
/// Seed used by bench/systolic for its 4096-configuration reference pool.
constexpr std::uint64_t kSystolicPoolSeed = 0x5157011C;
constexpr std::size_t kSystolicPoolSize = 4096;

enum SeedStream : std::uint64_t { kTunerSeed = 2 };

/// What set-up builds: the systolic objective and the value best_ratio_50
/// divides by, the best cost in the seeded sample pool bench/systolic gives
/// its baselines. The space alone builds in microseconds; the reference
/// pool is the streamed workload's analogue of a table build.
struct Fixture {
  std::unique_ptr<hpb::apps::SystolicObjective> systolic;
  double reference = std::numeric_limits<double>::infinity();
};

Fixture build_fixture() {
  Fixture f;
  f.systolic = std::make_unique<hpb::apps::SystolicObjective>();
  const hpb::space::CandidateStream stream(f.systolic->space_ptr(),
                                           kSystolicPoolSeed, {});
  for (const Configuration& c : stream.sample_pool(kSystolicPoolSize)) {
    f.reference = std::min(f.reference, f.systolic->cost(c));
  }
  return f;
}

/// Layer sums of a traced phase, accumulated run by run.
struct LayerSums {
  double suggest_ns = 0.0;
  double suggest_calls = 0.0;
  double observe_ns = 0.0;
  double observe_calls = 0.0;
  double fitted_suggest_ns = 0.0;
  double fitted_suggests = 0.0;
  double sweep_inside_ns = 0.0;
  double fit_self_ns = 0.0;
  double sweeps = 0.0;
  std::size_t unmatched_sweeps = 0;
  std::size_t overlapping_sweeps = 0;
  double table_build_ns = 0.0;
  double sweep_attr_ns = 0.0;
  double candidates = 0.0;
  double reused_columns = 0.0;
  double parameters = 0.0;
  double run_ns = 0.0;
  double evaluations = 0.0;
};

/// Attribute one run's spans: every hiperbot.sweep span must lie inside one
/// core.tuner.suggest span, and the sweeps inside a suggest must not
/// overlap each other. The suggest's fit self time is its duration minus the
/// sweeps inside it.
void attribute_run(const std::vector<Span>& spans,
                   const std::vector<SweepEvent>& sweeps,
                   std::size_t num_params, LayerSums& sums) {
  std::size_t next_sweep = 0;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    if (name == "core.tuner.observe") {
      sums.observe_ns += static_cast<double>(span.duration());
      sums.observe_calls += 1.0;
    } else if (name == "core.engine.run") {
      sums.run_ns += static_cast<double>(span.duration());
    }
    if (name != "core.tuner.suggest") {
      continue;
    }
    sums.suggest_ns += static_cast<double>(span.duration());
    sums.suggest_calls += 1.0;
    std::uint64_t inside = 0;
    std::uint64_t previous_end = 0;
    std::size_t count = 0;
    // Spans are recorded when they end; sweeps too, and the run is serial,
    // so both lists are in time order.
    while (next_sweep < sweeps.size() &&
           sweeps[next_sweep].end_ns <= span.end_ns) {
      const SweepEvent& s = sweeps[next_sweep++];
      if (s.start_ns < span.start_ns) {
        ++sums.unmatched_sweeps;
        continue;
      }
      if (s.start_ns < previous_end) {
        ++sums.overlapping_sweeps;
      }
      previous_end = s.end_ns;
      inside += s.end_ns - s.start_ns;
      ++count;
    }
    if (count > 0) {
      sums.fitted_suggest_ns += static_cast<double>(span.duration());
      sums.fitted_suggests += 1.0;
      sums.sweep_inside_ns += static_cast<double>(inside);
      sums.fit_self_ns += static_cast<double>(span.duration()) -
                          static_cast<double>(inside);
    }
  }
  sums.unmatched_sweeps += sweeps.size() - next_sweep;
  for (const SweepEvent& s : sweeps) {
    sums.sweeps += 1.0;
    sums.table_build_ns += static_cast<double>(s.table_build_ns);
    sums.sweep_attr_ns += static_cast<double>(s.sweep_ns);
    sums.candidates += static_cast<double>(s.pass_length);
    sums.reused_columns += static_cast<double>(s.reused_columns);
    sums.parameters += static_cast<double>(num_params);
  }
}

std::string sweep_json(const SweepEvent& s, std::uint64_t request) {
  return "{\"request\":" + std::to_string(request) +
         ",\"name\":\"hiperbot.sweep\",\"ts\":" + std::to_string(s.start_ns) +
         ",\"dur\":" + std::to_string(s.end_ns - s.start_ns) +
         ",\"attrs\":{\"mode\":\"" + (s.streamed ? "stream" : "table") +
         "\",\"excluded\":" + std::to_string(s.excluded) +
         ",\"pass_length\":" + std::to_string(s.pass_length) +
         ",\"table_build_ns\":" + std::to_string(s.table_build_ns) +
         ",\"sweep_ns\":" + std::to_string(s.sweep_ns) +
         ",\"reused_columns\":" + std::to_string(s.reused_columns) + "}}";
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

PhaseResult run_tune_streamed(const RunOptions& opts, bool traced) {
  PhaseResult out;
  EndToEnd e2e;
  const CpuRotation rotation;

  Fixture fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture = Fixture{};  // tear down the previous repeat first
    rotation.pin(static_cast<std::size_t>(i));
    const std::uint64_t t0 = now_ns();
    fixture = build_fixture();
    e2e.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  hpb::apps::SystolicObjective& objective = *fixture.systolic;
  const std::size_t windows_per_run =
      (kBudget - kInitialSamples - kWindowEvals) / kWindowStride + 1;

  TunerCallTimes times;
  SpanLog spans;
  SweepSink sink;
  LayerSums sums;
  Digest digest;
  std::string prefix_ratios;  // best_ratio_50 of each prefix run

  const std::uint64_t steal_before = steal_ticks_now();
  const std::uint64_t start = now_ns();
  std::size_t run = 0;
  for (;; ++run) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (elapsed >= opts.seconds && run >= kPrefixRuns) {
      break;
    }
    rotation.pin(run);
    const std::uint64_t tuner_seed = derive_seed(opts.seed, kTunerSeed, run);
    TimedTuner tuner(
        std::make_unique<hpb::core::HiPerBOt>(
            objective.space_ptr(), hpb::core::HiPerBOtConfig{}, tuner_seed),
        &times, traced ? &spans : nullptr);
    hpb::core::EngineConfig config;
    config.batch_size = 1;
    if (traced) {
      config.recorder.trace = &sink;
    }
    const hpb::core::TuningEngine engine(config);
    const std::uint64_t request = run + 1;
    const std::uint64_t run_id = traced ? spans.next_id() : 0;
    const ScopedContext context({.parent = run_id, .request = request});

    out.attempted += kBudget;
    hpb::core::TuneResult result;
    double ratio = 0.0;
    times = {};
    const std::uint64_t t0 = now_ns();
    try {
      result = engine.run(tuner, objective, kBudget);
      ratio = hpb::eval::best_of_first(result.history, kQualityEvals) /
              fixture.reference;
    } catch (const std::exception& e) {
      out.failed += kBudget;
      out.check_failures.push_back("run " + std::to_string(run) +
                                   " threw: " + e.what());
      continue;
    }
    const std::uint64_t t1 = now_ns();
    out.failed += result.num_failed;
    if (result.history.size() != kBudget || result.num_failed != 0) {
      out.check_failures.push_back(
          "run " + std::to_string(run) + " evaluated " +
          std::to_string(result.history.size()) + " (" +
          std::to_string(result.num_failed) + " failed), expected " +
          std::to_string(kBudget) + " successes");
    }
    // Batch 1: the engine made one suggest_batch and one observe_batch per
    // evaluation, in order.
    if (times.suggests.size() != result.history.size() ||
        times.observes.size() != result.history.size()) {
      out.check_failures.push_back("run " + std::to_string(run) +
                                   " made unpaired tuner calls");
    }
    const std::size_t paired =
        std::min(times.suggests.size(), times.observes.size());
    for (std::size_t k = 0; k < windows_per_run; ++k) {
      const std::size_t first = kInitialSamples + k * kWindowStride;
      const std::size_t window = run * windows_per_run + k;
      for (std::size_t i = first; i < std::min(first + kWindowEvals, paired);
           ++i) {
        const Timing& s = times.suggests[i];
        const Timing& o = times.observes[i];
        e2e.add_suggest(window, s);
        e2e.add_step(window, {o.end_ns, s.duration_ns + o.duration_ns});
        e2e.add_evaluations(window, o.end_ns, 1);
      }
    }

    if (run < kPrefixRuns) {
      e2e.best_ratio.push_back(ratio);
      prefix_ratios += prefix_ratios.empty() ? "" : ",";
      prefix_ratios += json_number(ratio);
      digest.add(static_cast<std::uint64_t>(result.history.size()));
      for (const hpb::core::Observation& o : result.history) {
        for (double v : o.config.values()) {
          digest.add(v);
        }
        digest.add(o.y);
      }
    }

    if (traced) {
      spans.add({.name = "core.engine.run",
                 .id = run_id,
                 .parent = 0,
                 .request = request,
                 .start_ns = t0,
                 .end_ns = t1});
      const std::vector<Span> run_spans = spans.take();
      const std::vector<SweepEvent> sweeps = sink.take_sweeps();
      attribute_run(run_spans, sweeps, objective.space().num_params(), sums);
      sums.evaluations += static_cast<double>(result.history.size());
      if (run < kSpanFileRuns) {
        for (const Span& s : run_spans) {
          out.trace_lines.push_back(span_json(s));
        }
        for (const SweepEvent& s : sweeps) {
          out.trace_lines.push_back(sweep_json(s, request));
        }
      }
    }
  }
  e2e.finish(run * windows_per_run);
  out.steal_ticks = steal_ticks_now() - steal_before;
  out.end_to_end = e2e.metrics();
  out.late_samples = e2e.late_samples();
  out.digest = digest.hex();

  out.detail_json = "\"runs\":" + std::to_string(run) + ",\"prefix_runs\":" +
                    std::to_string(kPrefixRuns) + ",\"budget\":" +
                    std::to_string(kBudget) + ",\"window_evals\":" +
                    std::to_string(kWindowEvals) + ",\"window_stride\":" +
                    std::to_string(kWindowStride) + ",\"cpus_rotated\":" +
                    std::to_string(rotation.size()) + ",\"reference\":" +
                    json_number(fixture.reference) +
                    ",\"best_ratio_50_runs\":[" + prefix_ratios + "]";

  if (traced) {
    const double engine_self_ns =
        sums.run_ns - sums.suggest_ns - sums.observe_ns;
    Layers l;
    l.tuner_suggest_us = per(sums.suggest_ns, sums.suggest_calls) / 1e3;
    l.tuner_observe_us = per(sums.observe_ns, sums.observe_calls) / 1e3;
    l.tuner_calls_per_suggest = per(sums.suggest_calls, sums.evaluations);
    l.sweep_us = per(sums.sweep_inside_ns, sums.sweeps) / 1e3;
    l.table_build_us = per(sums.table_build_ns, sums.sweeps) / 1e3;
    l.fit_self_us = per(sums.fit_self_ns, sums.fitted_suggests) / 1e3;
    l.ns_per_candidate = per(sums.sweep_attr_ns, sums.candidates);
    l.table_reuse = per(sums.reused_columns, sums.parameters);
    l.engine_self_us = per(engine_self_ns, sums.evaluations) / 1e3;
    out.per_layer = per_layer_metrics(l);

    // fit self time is defined as suggest minus sweeps, so sweep + fit self
    // equals fitted suggest time exactly; what can fail is nesting (a sweep
    // outside every suggest) and disjointness (sweeps of one suggest that
    // overlap and would be counted twice).
    if (sums.unmatched_sweeps > 0 || sums.overlapping_sweeps > 0) {
      out.check_failures.push_back(
          "layer accounting: " + std::to_string(sums.unmatched_sweeps) +
          " sweep spans outside any suggest span, " +
          std::to_string(sums.overlapping_sweeps) +
          " sweeps overlapping another in one suggest");
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\"layers\":{\"fitted_suggests\":%.0f,\"fitted_suggest_mean_us\":%s,"
        "\"sweep_mean_us\":%s,\"fit_self_mean_us\":%s,"
        "\"unmatched_sweeps\":%zu,\"overlapping_sweeps\":%zu,"
        "\"engine_self_us_per_eval\":%s,\"program_events\":%llu}",
        sums.fitted_suggests,
        json_number(per(sums.fitted_suggest_ns, sums.fitted_suggests) / 1e3)
            .c_str(),
        json_number(per(sums.sweep_inside_ns, sums.fitted_suggests) / 1e3)
            .c_str(),
        json_number(l.fit_self_us).c_str(), sums.unmatched_sweeps,
        sums.overlapping_sweeps, json_number(l.engine_self_us).c_str(),
        static_cast<unsigned long long>(sink.other_events()));
    out.detail_json += buf;
  }
  return out;
}

}  // namespace perfbench
