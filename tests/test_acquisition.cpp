// Acquisition sweep engine (core/acquisition.hpp) and the suggest-path
// fixes that ride along with it:
//   - score tables are bitwise-identical to TpeSurrogate::acquisition;
//   - the chunked top-k sweep is deterministic for any thread count and
//     breaks ties toward the lowest candidate index;
//   - serial suggest() marks its choice pending (no duplicate suggestions);
//   - the dense-exclusion random phase terminates via the linear-scan path;
//   - degenerate KDEs yield uniform importance marginals instead of aborting;
//   - History::split and make_transfer_prior agree on the rank-based split.
#include "core/acquisition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/hiperbot.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "stats/quantile.hpp"
#include "sweep_oracles.hpp"
#include "test_util.hpp"

namespace hpb::core {
namespace {

using space::Configuration;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ------------------------------------------------ table vs direct, bitwise

TEST(Acquisition, TableMatchesDirectBitwiseOnDiscreteSpace) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 5) {
    h.add(pool[j], ds.value_of(pool[j]));
  }
  const TpeSurrogate s(ds.space_ptr(), h, 0.2);
  const PoolColumns columns(ds.space(), pool);
  const AcquisitionTable table(s, columns);
  for (std::size_t j = 0; j < pool.size(); ++j) {
    EXPECT_EQ(bits(table.score(columns, j)), bits(s.acquisition(pool[j])))
        << "candidate " << j;
  }
}

TEST(Acquisition, TableMatchesDirectBitwiseOnMixedSpace) {
  auto space = testutil::mixed_space();
  // A gridded pool with repeated continuous values, so the distinct-value
  // memo actually deduplicates (15 pool rows share 5 distinct t values).
  std::vector<Configuration> pool;
  for (double level : {0.0, 1.0, 2.0}) {
    for (double t : {0.25, 1.75, 3.5, 3.5, 9.0}) {
      pool.emplace_back(std::vector<double>{level, t});
    }
  }
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 2) {
    h.add(pool[j], pool[j][1] + static_cast<double>(pool[j].level(0)));
  }
  const TpeSurrogate s(space, h, 0.3);
  const PoolColumns columns(*space, pool);
  EXPECT_TRUE(columns.is_continuous(1));
  EXPECT_EQ(columns.table_size(1), 4u);  // 5 grid points, one repeated
  EXPECT_TRUE(columns.ordinals().empty());  // not a finite space
  const AcquisitionTable table(s, columns);
  for (std::size_t j = 0; j < pool.size(); ++j) {
    EXPECT_EQ(bits(table.score(columns, j)), bits(s.acquisition(pool[j])))
        << "candidate " << j;
  }
}

// ------------------------------------------- deterministic chunked sweeps

TEST(Acquisition, TopkIdenticalForAnyThreadCount) {
  // Spans multiple fixed chunks and has heavy score ties (j % 97), so both
  // the chunk reduction and the tie-break are exercised.
  const std::size_t n = 3 * kSweepChunk + 123;
  const auto score = [](std::size_t j) {
    return static_cast<double>(j % 97);
  };
  const auto excluded = [](std::size_t j) { return j % 5 == 0; };
  const std::vector<SweepHit> serial =
      acquisition_topk(n, 7, nullptr, score, excluded);
  ASSERT_EQ(serial.size(), 7u);
  // Best score is 96, first reached at j=96 (not divisible by 5).
  EXPECT_EQ(serial.front().index, 96u);
  EXPECT_EQ(serial.front().score, 96.0);
  for (std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    const std::vector<SweepHit> parallel =
        acquisition_topk(n, 7, &pool, score, excluded);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].index, serial[i].index) << threads << " threads";
      EXPECT_EQ(bits(parallel[i].score), bits(serial[i].score));
    }
  }
}

TEST(Acquisition, TopkBreaksTiesTowardLowestIndex) {
  const auto constant = [](std::size_t) { return 1.5; };
  const auto hits = acquisition_topk(
      1000, 3, nullptr, constant, [](std::size_t j) { return j == 1; });
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 2u);  // index 1 is excluded
  EXPECT_EQ(hits[2].index, 3u);
  EXPECT_TRUE(acquisition_topk(0, 3, nullptr, constant,
                               [](std::size_t) { return false; })
                  .empty());
}

// ------------------- tuner sweeps: thread-count invariance, direct argmax

/// Top-k of the direct per-candidate scores, TpeSurrogate::acquisition on
/// every pool configuration the tuner has not observed, under the tuner's
/// current fit: what its table sweep must return.
std::vector<SweepHit> direct_topk(const HiPerBOt& tuner,
                                  const space::ParameterSpace& space,
                                  const std::vector<Configuration>& pool,
                                  const std::set<std::uint64_t>& observed,
                                  std::size_t k) {
  const TpeSurrogate s = tuner.fit_surrogate();
  return acquisition_topk(
      pool.size(), k, nullptr,
      [&](std::size_t j) { return s.acquisition(pool[j]); },
      [&](std::size_t j) {
        return observed.contains(space.ordinal_of(pool[j]));
      });
}

// One tuning run's observable outputs: the suggested ordinals and, once the
// surrogate is live, the bit pattern of the exported best-acquisition gauge.
// Every fitted suggestion is also checked against the direct argmax.
std::vector<std::uint64_t> ranking_run(int threads) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  HiPerBOtConfig config;
  config.initial_samples = 8;
  HiPerBOt tuner(ds.space_ptr(), config, 99);
  obs::MetricsRegistry metrics;
  const obs::Recorder rec{.metrics = &metrics};
  tuner.set_recorder(&rec);
  std::optional<ThreadPool> workers;
  if (threads >= 0) {
    workers.emplace(static_cast<std::size_t>(threads));
    tuner.set_sweep_pool(&*workers);
  }
  std::set<std::uint64_t> observed;  // ordinals
  std::vector<std::uint64_t> seq;
  for (int t = 0; t < 30; ++t) {
    std::optional<SweepHit> direct;
    if (t >= 8) {
      direct = direct_topk(tuner, ds.space(), pool, observed, 1).front();
    }
    const Configuration c = tuner.suggest();
    const std::uint64_t ordinal = ds.space().ordinal_of(c);
    seq.push_back(ordinal);
    if (direct) {
      const double best = metrics.gauge("hiperbot.acquisition_best").value();
      EXPECT_EQ(ordinal, ds.space().ordinal_of(pool[direct->index]))
          << "iteration " << t;
      EXPECT_EQ(bits(best), bits(direct->score)) << "iteration " << t;
      seq.push_back(bits(best));
    }
    observed.insert(ordinal);
    tuner.observe(c, ds.value_of(c));
  }
  return seq;
}

TEST(Acquisition, SuggestionsIdenticalAcrossThreadCountsAndVsDirect) {
  const auto reference = ranking_run(-1);
  EXPECT_EQ(ranking_run(1), reference);
  EXPECT_EQ(ranking_run(2), reference);
  EXPECT_EQ(ranking_run(7), reference);
  EXPECT_EQ(ranking_run(0), reference);  // hardware
}

std::vector<std::uint64_t> batch_run(int threads) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  HiPerBOtConfig config;
  config.initial_samples = 6;
  HiPerBOt tuner(ds.space_ptr(), config, 41);
  std::optional<ThreadPool> workers;
  if (threads >= 0) {
    workers.emplace(static_cast<std::size_t>(threads));
    tuner.set_sweep_pool(&*workers);
  }
  std::set<std::uint64_t> observed;  // ordinals
  std::vector<std::uint64_t> seq;
  for (int round = 0; round < 8; ++round) {
    std::vector<SweepHit> direct;
    if (tuner.history().size() >= config.initial_samples) {
      direct = direct_topk(tuner, ds.space(), pool, observed, 3);
    }
    const std::vector<Configuration> batch = tuner.suggest_batch(3);
    EXPECT_GE(batch.size(), direct.size()) << "round " << round;
    for (std::size_t i = 0; i < std::min(direct.size(), batch.size()); ++i) {
      EXPECT_EQ(ds.space().ordinal_of(batch[i]),
                ds.space().ordinal_of(pool[direct[i].index]))
          << "round " << round << " member " << i;
    }
    for (const Configuration& c : batch) {
      const std::uint64_t ordinal = ds.space().ordinal_of(c);
      seq.push_back(ordinal);
      observed.insert(ordinal);
      tuner.observe(c, ds.value_of(c));
    }
  }
  return seq;
}

TEST(Acquisition, BatchesIdenticalAcrossThreadCountsAndVsDirect) {
  const auto reference = batch_run(-1);
  EXPECT_EQ(batch_run(2), reference);
  EXPECT_EQ(batch_run(7), reference);
}

// ----------------------------------------- serial suggest() marks pending

TEST(SuggestPending, SerialSuggestionsNeverRepeatWhileUnobserved) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 4;
  HiPerBOt tuner(ds.space_ptr(), config, 5);

  // Initial (random) phase: two back-to-back suggests must differ.
  const Configuration a = tuner.suggest();
  const Configuration b = tuner.suggest();
  EXPECT_NE(ds.space().ordinal_of(a), ds.space().ordinal_of(b));
  tuner.observe(a, ds.value_of(a));
  tuner.observe(b, ds.value_of(b));
  for (int t = 0; t < 2; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }

  // Model phase: unobserved serial suggestions stay excluded, both from
  // later serial suggests and from a later batch.
  std::set<std::uint64_t> seen;
  const Configuration c = tuner.suggest();
  const Configuration d = tuner.suggest();
  EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
  EXPECT_TRUE(seen.insert(ds.space().ordinal_of(d)).second);
  for (const Configuration& e : tuner.suggest_batch(4)) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(e)).second);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(SuggestPending, SerialLoopMatchesBatchOfOneBitwise) {
  // The pending marker must not disturb the classic suggest/observe loop:
  // it is released by the observe() before the next suggest, so the serial
  // loop and the batch(1) loop walk identical RNG and surrogate states.
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 8;
  HiPerBOt serial(ds.space_ptr(), config, 123);
  HiPerBOt batched(ds.space_ptr(), config, 123);
  for (int t = 0; t < 25; ++t) {
    const Configuration a = serial.suggest();
    const auto batch = batched.suggest_batch(1);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(ds.space().ordinal_of(a), ds.space().ordinal_of(batch.front()))
        << "iteration " << t;
    serial.observe(a, ds.value_of(a));
    batched.observe(batch.front(), ds.value_of(batch.front()));
  }
  EXPECT_EQ(bits(serial.history().best_value()),
            bits(batched.history().best_value()));
}

// ------------------------------------ dense-exclusion random phase (scan)

TEST(SuggestPending, DenseExclusionReturnsEachFreeConfigOnce) {
  auto ds = testutil::separable_dataset();  // 60 configurations
  HiPerBOtConfig config;
  config.initial_samples = 60;  // keep the tuner in the random phase
  HiPerBOt tuner(ds.space_ptr(), config, 3);
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  std::set<std::uint64_t> free_ordinals;
  for (std::size_t j = 0; j < pool.size(); ++j) {
    if (j == 17 || j == 41) {
      free_ordinals.insert(ds.space().ordinal_of(pool[j]));
      continue;
    }
    tuner.observe(pool[j], ds.value_of(pool[j]));
  }
  // 58 of 60 excluded: far past the scan threshold. Each remaining config
  // comes back exactly once (suggest marks it pending), then the pool is
  // exhausted.
  std::set<std::uint64_t> got;
  got.insert(ds.space().ordinal_of(tuner.suggest()));
  got.insert(ds.space().ordinal_of(tuner.suggest()));
  EXPECT_EQ(got, free_ordinals);
  EXPECT_THROW((void)tuner.suggest(), Error);
}

// --------------------------------------------- degenerate KDE importance

TEST(Density, DegenerateKdeMarginalFallsBackToUniform) {
  // All mass at the domain edge with a bandwidth ~12 orders of magnitude
  // below the range: every importance-bin midpoint underflows to pdf 0.
  // Importance export must degrade to the uniform marginal, not abort.
  auto space = std::make_shared<space::ParameterSpace>();
  space->add(space::Parameter::continuous("t", 0.0, 1e9));
  DensityConfig dc;
  dc.kde_bandwidth = 1e-3;
  dc.importance_bins = 16;
  const std::vector<Configuration> samples{Configuration({0.0}),
                                           Configuration({0.0})};
  const FactorizedDensity d(space, samples, dc);
  const std::vector<double> probs = d.marginal_probabilities(0);
  ASSERT_EQ(probs.size(), 16u);
  for (const double p : probs) {
    EXPECT_DOUBLE_EQ(p, 1.0 / 16.0);
  }
}

// ------------------------------------------------- rank-split tie pinning

TEST(RankSplit, AllEqualValuesSplitByInsertionOrder) {
  const std::vector<double> values{5.0, 5.0, 5.0, 5.0, 5.0};
  const stats::RankSplit rs = stats::rank_split(values, 0.4);
  EXPECT_EQ(rs.good, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rs.bad, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(rs.threshold, 5.0);
}

TEST(RankSplit, TiesAtTheBoundaryKeepEarlierObservationsGood) {
  const std::vector<double> values{3.0, 1.0, 3.0, 1.0, 2.0};
  const stats::RankSplit rs = stats::rank_split(values, 0.4);
  EXPECT_EQ(rs.good, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(rs.bad, (std::vector<std::size_t>{4, 0, 2}));
  EXPECT_EQ(rs.threshold, 2.0);
}

TEST(RankSplit, HistorySplitAndTransferPriorAgree) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  // Values with deliberate ties (the dataset's objective has many).
  std::vector<Configuration> configs;
  std::vector<double> values;
  History h;
  for (std::size_t j = 0; j < 20; ++j) {
    configs.push_back(pool[j * 3]);
    values.push_back(ds.value_of(pool[j * 3]));
    h.add(configs.back(), values.back());
  }
  const double alpha = 0.25;
  const stats::RankSplit rs = stats::rank_split(values, alpha);
  const HistorySplit hs = h.split(alpha);
  EXPECT_EQ(hs.good, rs.good);
  EXPECT_EQ(hs.bad, rs.bad);
  EXPECT_EQ(bits(hs.threshold), bits(rs.threshold));

  // make_transfer_prior must group by the same rank split: its good density
  // equals one fit directly from the rank-split good configurations.
  const DensityConfig dc;
  const TransferPrior prior =
      make_transfer_prior(ds.space_ptr(), configs, values, alpha, dc);
  std::vector<Configuration> good_configs;
  for (const std::size_t j : rs.good) {
    good_configs.push_back(configs[j]);
  }
  const FactorizedDensity expected(ds.space_ptr(), good_configs, dc);
  for (const Configuration& c : pool) {
    EXPECT_EQ(bits(prior.good.log_density(c)), bits(expected.log_density(c)));
  }
}

// ----------------------------------------------------- sweep observability

class SweepSpanSink final : public obs::TraceSink {
 public:
  std::uint64_t next_id() override { return ++ids_; }
  void emit(const obs::TraceEvent& event) override {
    if (event.name != "hiperbot.sweep") {
      return;
    }
    ++sweep_spans_;
    for (const obs::TraceAttr& attr : event.attrs) {
      if (attr.key == "mode") {
        last_mode_ = std::string(attr.string_value);
      } else if (attr.key == "pool") {
        last_pool_ = attr.uint_value;
      }
    }
  }

  std::uint64_t ids_ = 0;
  int sweep_spans_ = 0;
  std::string last_mode_;
  std::uint64_t last_pool_ = 0;
};

TEST(Acquisition, SweepEmitsSpanAndCountsSweeps) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 4;
  HiPerBOt tuner(ds.space_ptr(), config, 11);
  SweepSpanSink sink;
  obs::MetricsRegistry metrics;
  const obs::Recorder rec{.trace = &sink, .metrics = &metrics};
  tuner.set_recorder(&rec);
  for (int t = 0; t < 6; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  EXPECT_EQ(sink.sweep_spans_, 2);  // iterations 5 and 6 fit the surrogate
  EXPECT_EQ(metrics.counter("hiperbot.sweeps").value(), 2u);
  EXPECT_EQ(sink.last_mode_, "table");
  EXPECT_EQ(sink.last_pool_, 60u);
}

}  // namespace
}  // namespace hpb::core
