// Constrained-space shootout on the full systolic-array design space: the
// raw cross product is ~2^33.9 — far past anything that can be enumerated —
// so HiPerBOt sweeps it with the streamed CandidateStream path while the
// pool-bound baselines (GEIST, GP-EI, ridge, random) search a seeded
// sample_pool() subset of the valid set. Writes per-seed best values and
// aggregates to BENCH_systolic.json.
//
// Usage: systolic [--smoke] [--out PATH]
//   --smoke   3 seeds, budget 16, 512-candidate baseline pool (CI wiring)
//   default   21 seeds, budget 200, 4096-candidate baseline pool
//
// The default budget is deliberately past the paper's 60-sample regime: the
// full systolic space has 10-level tile parameters, so the TPE marginals
// need ~30+ good-split observations before they sharpen; random's
// best-so-far gains stall right there (quantile ~1/n) while HiPerBOt's
// compound — the gap at 200 evaluations is the point of the comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/systolic.hpp"
#include "baselines/config_graph.hpp"
#include "baselines/geist.hpp"
#include "baselines/gp_tuner.hpp"
#include "baselines/random_search.hpp"
#include "baselines/ridge_tuner.hpp"
#include "common/rng.hpp"
#include "core/hiperbot.hpp"
#include "core/engine.hpp"
#include "space/candidate_stream.hpp"

namespace hpb {
namespace {

struct MethodResult {
  std::string name;
  std::vector<double> best_values;  // one per seed
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void append_json_doubles(std::string& json, const std::vector<double>& v) {
  json += '[';
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) {
      json += ',';
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    json += buf;
  }
  json += ']';
}

int run(bool smoke, const std::string& out_path) {
  const std::size_t seeds = smoke ? 3 : 21;
  const std::size_t budget = smoke ? 16 : 200;
  const std::size_t pool_size = smoke ? 512 : 4096;

  apps::SystolicObjective objective;  // the full workload
  const space::SpacePtr space = objective.space_ptr();
  const std::uint64_t raw = space->cross_product_size();
  if (!space->cross_product_exceeds(1ULL << 30)) {
    std::fprintf(stderr, "systolic space shrank below 2^30 raw configs\n");
    return 1;
  }

  // Seeded deterministic stand-in pool for the pool-bound baselines; the
  // streamed HiPerBOt never sees it (and never materializes anything).
  const space::CandidateStream stream(space, /*seed=*/0x5157011C, {});
  std::printf("systolic shootout: raw space %.3g (2^%.1f), baseline pool %zu,"
              " budget %zu, seeds %zu\n",
              static_cast<double>(raw),
              std::log2(static_cast<double>(raw)), pool_size, budget, seeds);
  const auto pool =
      std::make_shared<const std::vector<space::Configuration>>(
          stream.sample_pool(pool_size));
  const auto graph =
      std::make_shared<const baselines::ConfigGraph>(*space, *pool);

  using TunerFactory =
      std::function<std::unique_ptr<core::Tuner>(std::uint64_t)>;
  const std::vector<std::pair<std::string, TunerFactory>> methods = {
      {"hiperbot",
       [&](std::uint64_t seed) {
         // No pool: the finite-but-huge space routes to the streamed sweep.
         return std::make_unique<core::HiPerBOt>(space, core::HiPerBOtConfig{},
                                                 seed);
       }},
      {"geist",
       [&](std::uint64_t seed) {
         return std::make_unique<baselines::Geist>(
             space, baselines::GeistConfig{}, seed, pool, graph);
       }},
      {"gp",
       [&](std::uint64_t seed) {
         return std::make_unique<baselines::GpTuner>(
             space, baselines::GpConfig{}, seed, pool);
       }},
      {"ridge",
       [&](std::uint64_t seed) {
         return std::make_unique<baselines::RidgeTuner>(
             space, baselines::RidgeConfig{}, seed, pool);
       }},
      {"random",
       [&](std::uint64_t seed) {
         return std::make_unique<baselines::RandomSearch>(space, seed, pool);
       }},
  };

  std::vector<MethodResult> results;
  for (const auto& [name, make] : methods) {
    MethodResult r;
    r.name = name;
    Rng seeder(0x5157011C + results.size());
    for (std::size_t rep = 0; rep < seeds; ++rep) {
      auto tuner = make(seeder.next_u64());
      const auto run_result =
          core::TuningEngine().run(*tuner, objective, budget);
      r.best_values.push_back(run_result.best_value);
    }
    std::printf("%-10s median %.6g  min %.6g  max %.6g\n", name.c_str(),
                median_of(r.best_values),
                *std::min_element(r.best_values.begin(), r.best_values.end()),
                *std::max_element(r.best_values.begin(), r.best_values.end()));
    results.push_back(std::move(r));
  }

  const double hiperbot_median = median_of(results.front().best_values);
  const double random_median = median_of(results.back().best_values);
  std::printf("hiperbot median %.6g vs random median %.6g (%s)\n",
              hiperbot_median, random_median,
              hiperbot_median < random_median ? "hiperbot wins"
                                              : "random wins");

  std::string json = "{\n  \"bench\": \"systolic_shootout\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"raw_space\": " + std::to_string(raw) + ",\n";
  json += "  \"baseline_pool\": " + std::to_string(pool_size) + ",\n";
  json += "  \"budget\": " + std::to_string(budget) + ",\n";
  json += "  \"seeds\": " + std::to_string(seeds) + ",\n";
  json += "  \"results\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json += "    {\"method\":\"" + r.name + "\",";
    std::snprintf(buf, sizeof(buf), "\"median\":%.17g,",
                  median_of(r.best_values));
    json += buf;
    json += "\"best_values\":";
    append_json_doubles(json, r.best_values);
    json += '}';
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return hiperbot_median < random_median ? 0 : 1;
}

}  // namespace
}  // namespace hpb

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_systolic.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  return hpb::run(smoke, out_path);
}
