// Microbenchmarks (google-benchmark) for the HiPerBOt core: surrogate
// fitting, acquisition scoring, density operations, and the full
// per-iteration suggest cost. Substantiates the §VII claim that the tuner
// overhead (~hundreds of milliseconds end-to-end for LULESH) is negligible
// next to a single application run.
#include <benchmark/benchmark.h>

#include "apps/lulesh.hpp"
#include "core/engine.hpp"
#include "core/hiperbot.hpp"
#include "core/surrogate.hpp"
#include "stats/histogram.hpp"
#include "stats/kde.hpp"

namespace {

using hpb::core::History;

/// A lulesh history of n observations shared across iterations.
History make_history(const hpb::tabular::TabularObjective& ds, std::size_t n) {
  hpb::Rng rng(1);
  History h;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = ds.config(rng.index(ds.size()));
    h.add(c, ds.value_of(c));
  }
  return h;
}

void BM_SurrogateFit(benchmark::State& state) {
  const auto ds = hpb::apps::make_lulesh();
  const History h = make_history(ds, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    hpb::core::TpeSurrogate s(ds.space_ptr(), h, 0.2);
    benchmark::DoNotOptimize(&s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SurrogateFit)->Arg(50)->Arg(150)->Arg(500);

void BM_AcquisitionScoring(benchmark::State& state) {
  const auto ds = hpb::apps::make_lulesh();
  const History h = make_history(ds, 150);
  const hpb::core::TpeSurrogate s(ds.space_ptr(), h, 0.2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += s.acquisition(ds.config(i));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AcquisitionScoring)->Arg(1000)->Arg(5000);

void BM_FullSuggestObserve(benchmark::State& state) {
  // End-to-end cost of one Ranking-strategy iteration at history size 150
  // on the full 5632-config LULESH pool — the paper's "HiPerBOt for LULESH
  // took around 600 ms total" scenario.
  auto ds = hpb::apps::make_lulesh();
  for (auto _ : state) {
    state.PauseTiming();
    hpb::core::HiPerBOt tuner(ds.space_ptr(), {}, 7);
    (void)hpb::core::TuningEngine().run(tuner, ds, 150);
    state.ResumeTiming();
    const auto c = tuner.suggest();
    benchmark::DoNotOptimize(&c);
    state.PauseTiming();
    tuner.observe(c, ds.value_of(c));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FullSuggestObserve)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_WholeTuningRun(benchmark::State& state) {
  // The §VII comparison: a complete 150-evaluation tuning session on
  // LULESH (vs 19 hours to evaluate all configurations on the real machine,
  // vs 2.7 s for a single good application run).
  auto ds = hpb::apps::make_lulesh();
  for (auto _ : state) {
    hpb::core::HiPerBOt tuner(ds.space_ptr(), {}, 11);
    const auto result = hpb::core::TuningEngine().run(tuner, ds, 150);
    benchmark::DoNotOptimize(result.best_value);
  }
}
BENCHMARK(BM_WholeTuningRun)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BatchedTuningRun(benchmark::State& state) {
  // Same 150-evaluation session driven through the batched engine: one
  // surrogate fit + one acquisition pass per batch instead of per
  // evaluation, so larger batches amortize the model-phase cost.
  auto ds = hpb::apps::make_lulesh();
  const hpb::core::TuningEngine engine(
      {.batch_size = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    hpb::core::HiPerBOt tuner(ds.space_ptr(), {}, 11);
    const auto result = engine.run(tuner, ds, 150);
    benchmark::DoNotOptimize(result.best_value);
  }
}
BENCHMARK(BM_BatchedTuningRun)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16);

void BM_HistogramPmf(benchmark::State& state) {
  hpb::stats::HistogramDensity hist(16);
  hpb::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    hist.add(rng.index(16));
  }
  std::size_t level = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.pmf(level));
    level = (level + 1) % 16;
  }
}
BENCHMARK(BM_HistogramPmf);

void BM_KdePdf(benchmark::State& state) {
  hpb::Rng rng(4);
  std::vector<double> samples;
  for (int64_t i = 0; i < state.range(0); ++i) {
    samples.push_back(rng.uniform(0.0, 1.0));
  }
  const hpb::stats::KernelDensity kde(samples, 0.0, 1.0);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde.pdf(x));
    x += 0.001;
    if (x > 1.0) {
      x = 0.0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdePdf)->Arg(32)->Arg(256);

void BM_ImportanceAnalysis(benchmark::State& state) {
  const auto ds = hpb::apps::make_lulesh();
  const History h = make_history(ds, 500);
  const hpb::core::TpeSurrogate s(ds.space_ptr(), h, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.parameter_importance());
  }
}
BENCHMARK(BM_ImportanceAnalysis);

}  // namespace

BENCHMARK_MAIN();
