#include "core/hiperbot.hpp"

#include <algorithm>
#include <array>

#include "space/sampling.hpp"

namespace hpb::core {
namespace {

constexpr std::uint64_t kMaxEagerEnumeration = 1ULL << 24;

std::shared_ptr<const std::vector<space::Configuration>> enumerate_pool(
    const space::SpacePtr& space, const HiPerBOtConfig& config) {
  if (config.sweep_source == SweepSource::kStreamed || !space->is_finite() ||
      space->cross_product_exceeds(kMaxEagerEnumeration)) {
    return nullptr;
  }
  return std::make_shared<const std::vector<space::Configuration>>(
      space->enumerate());
}

/// A private pool around a tuner's own list (no list: no pool).
std::shared_ptr<const space::CandidatePool> own_pool(
    const space::SpacePtr& space,
    std::shared_ptr<const std::vector<space::Configuration>> list) {
  if (list == nullptr) {
    return nullptr;
  }
  return std::make_shared<const space::CandidatePool>(space, std::move(list));
}

}  // namespace

HiPerBOt::HiPerBOt(space::SpacePtr space, HiPerBOtConfig config,
                   std::uint64_t seed)
    : HiPerBOt(space, config, seed, enumerate_pool(space, config)) {}

HiPerBOt::HiPerBOt(
    space::SpacePtr space, HiPerBOtConfig config, std::uint64_t seed,
    std::shared_ptr<const std::vector<space::Configuration>> pool)
    : HiPerBOt(space, config, seed, own_pool(space, std::move(pool))) {}

HiPerBOt::HiPerBOt(space::SpacePtr space, HiPerBOtConfig config,
                   std::uint64_t seed,
                   std::shared_ptr<const space::CandidatePool> pool)
    : space_(std::move(space)),
      config_(config),
      rng_(seed),
      pool_(std::move(pool)) {
  HPB_REQUIRE(space_ != nullptr, "HiPerBOt: null space");
  HPB_REQUIRE(config_.initial_samples >= 2,
              "HiPerBOt: need at least 2 initial samples");
  HPB_REQUIRE(config_.quantile > 0.0 && config_.quantile < 1.0,
              "HiPerBOt: quantile must be in (0,1)");
  if (config_.strategy == SelectionStrategy::kRanking) {
    const bool want_stream =
        config_.sweep_source == SweepSource::kStreamed ||
        (config_.sweep_source == SweepSource::kAuto && pool_ == nullptr &&
         space_->is_finite());
    if (want_stream) {
      HPB_REQUIRE(space_->is_finite(),
                  "HiPerBOt: streamed sweeps require a finite space");
      pool_ = nullptr;  // streamed mode never touches a pool
      stream_.emplace(space_, seed, config_.stream);
    } else {
      HPB_REQUIRE(pool_ != nullptr,
                  "HiPerBOt: Ranking strategy needs a finite candidate pool "
                  "or a streamed sweep source");
      HPB_REQUIRE(pool_->size() > 0, "HiPerBOt: empty candidate pool");
    }
  }
}

void HiPerBOt::set_transfer_prior(TransferPrior prior) {
  prior_ = std::move(prior);
}

bool HiPerBOt::is_evaluated(const space::Configuration& c) const {
  if (!space_->is_finite()) {
    return false;  // continuous spaces: duplicates have measure zero
  }
  return evaluated_.contains(space_->ordinal_of(c));
}

bool HiPerBOt::is_excluded(const space::Configuration& c) const {
  if (!space_->is_finite()) {
    return false;
  }
  const std::uint64_t ordinal = space_->ordinal_of(c);
  return evaluated_.contains(ordinal) || pending_.contains(ordinal);
}

space::Configuration HiPerBOt::random_unevaluated() {
  if (pool_ != nullptr) {
    const std::vector<space::Configuration>& pool = pool_->configs();
    const std::size_t excluded = evaluated_.size() + pending_.size();
    HPB_REQUIRE(excluded < pool.size(), "HiPerBOt: candidate pool exhausted");
    // Rejection sampling needs ~pool/(pool-excluded) draws in expectation;
    // once half the pool is excluded that blows up (a 2^24-entry pool
    // evaluated down to a few free slots would spin for millions of
    // iterations), so pick uniformly among the unexcluded entries with one
    // linear scan instead.
    if (excluded >= pool.size() / 2) {
      std::size_t r = rng_.index(pool.size() - excluded);
      for (const auto& c : pool) {
        if (is_excluded(c)) {
          continue;
        }
        if (r == 0) {
          return c;
        }
        --r;
      }
      // Unreachable while evaluated_/pending_ only ever hold pool members.
      HPB_REQUIRE(false, "HiPerBOt: exclusion bookkeeping out of sync");
    }
    for (;;) {
      const auto& c = pool[rng_.index(pool.size())];
      if (!is_excluded(c)) {
        return c;
      }
    }
  }
  if (stream_) {
    // Streamed mode: draw ordinals uniformly over the cross product and
    // reject invalid or excluded decodes. On a flat unconstrained space the
    // pool above would be the cross product in ordinal order, so this
    // consumes the RNG identically to the pooled rejection loop and the
    // initial phase stays bitwise-identical to the pooled path.
    const std::uint64_t raw = space_->cross_product_size();
    for (int attempt = 0; attempt < 100000; ++attempt) {
      const auto ordinal =
          static_cast<std::uint64_t>(rng_.index(static_cast<std::size_t>(raw)));
      space::Configuration c = space_->configuration_at(ordinal);
      if (space_->satisfies(c) && !is_excluded(c)) {
        return c;
      }
    }
    HPB_REQUIRE(false,
                "HiPerBOt: could not sample an unevaluated valid "
                "configuration (constraints too tight or space exhausted)");
  }
  for (int attempt = 0; attempt < 10000; ++attempt) {
    space::Configuration c = space_->sample_uniform(rng_);
    if (!is_excluded(c)) {
      return c;
    }
  }
  HPB_REQUIRE(false, "HiPerBOt: could not sample an unevaluated config");
  return {};  // unreachable
}

HiPerBOt::SweepClock HiPerBOt::start_sweep() const {
  SweepClock clock;
  clock.tracing = recorder_ != nullptr && recorder_->tracing();
  clock.start = clock.tracing ? recorder_->now_ns() : 0;
  clock.table_built = clock.start;
  return clock;
}

void HiPerBOt::mark_table_built(SweepClock& clock) const {
  if (clock.tracing) {
    clock.table_built = recorder_->now_ns();
  }
}

void HiPerBOt::finish_sweep(const SweepClock& clock, std::string_view mode,
                            std::span<const obs::TraceAttr> source,
                            std::size_t k) const {
  if (recorder_ != nullptr && recorder_->metrics != nullptr) {
    FitMeters& m = fit_meters(*recorder_->metrics);
    if (m.sweeps == nullptr) {
      m.sweeps = &recorder_->metrics->counter("hiperbot.sweeps");
    }
    m.sweeps->add(1);
  }
  if (!clock.tracing) {
    return;
  }
  const std::uint64_t sweep_end = recorder_->now_ns();
  std::array<obs::TraceAttr, 10> attrs{};
  std::size_t n = 0;
  attrs[n++] = obs::TraceAttr::str("mode", mode);
  attrs[n++] = obs::TraceAttr::str("simd", simd_tier_name(active_simd_tier()));
  for (const obs::TraceAttr& attr : source) {
    attrs[n++] = attr;
  }
  attrs[n++] = obs::TraceAttr::uint("k", k);
  attrs[n++] =
      obs::TraceAttr::uint("excluded", evaluated_.size() + pending_.size());
  attrs[n++] = obs::TraceAttr::uint(
      "threads", sweep_pool_ != nullptr ? sweep_pool_->size() : 1);
  attrs[n++] =
      obs::TraceAttr::uint("table_build_ns", clock.table_built - clock.start);
  attrs[n++] = obs::TraceAttr::uint("sweep_ns", sweep_end - clock.table_built);
  attrs[n++] = obs::TraceAttr::uint(
      "reused_columns", table_cache_ ? table_cache_->reused_columns() : 0);
  recorder_->trace->emit({.name = "hiperbot.sweep",
                          .id = recorder_->trace->next_id(),
                          .parent = 0,
                          .start_ns = clock.start,
                          .end_ns = sweep_end,
                          .attrs = std::span(attrs.data(), n)});
}

const PoolColumns& HiPerBOt::sweep_columns() {
  if (pool_ != nullptr) {
    return pool_->columns();
  }
  if (!stream_layout_) {
    stream_layout_.emplace(*space_, std::span<const space::Configuration>());
  }
  return *stream_layout_;
}

std::vector<space::Configuration> HiPerBOt::ranked_topk(const TpeSurrogate& s,
                                                       std::size_t k) {
  SweepClock clock = start_sweep();
  const PoolColumns& columns = sweep_columns();
  // Rebuild only the table columns whose marginals changed since the
  // previous fit (bitwise-identical scores either way); the fresh table
  // replaces the cache for the next fit's diff.
  table_cache_.emplace(
      AcquisitionTable(s, columns, table_cache_ ? &*table_cache_ : nullptr));
  const AcquisitionTable& table = *table_cache_;
  mark_table_built(clock);
  const bool finite = space_->is_finite();
  const auto excluded = [&](const SweepHit& hit) {
    return finite &&  // continuous spaces: no ordinal bookkeeping
           (evaluated_.contains(hit.ordinal) || pending_.contains(hit.ordinal));
  };
  std::vector<SweepHit> hits;
  if (stream_) {
    const std::uint64_t pass = stream_pass_++;
    hits = sweep_topk(StreamSource{*stream_, pass}, table, k, sweep_pool_,
                      excluded);
    const obs::TraceAttr source[] = {
        obs::TraceAttr::uint("pass", pass),
        obs::TraceAttr::uint("pass_length", stream_->pass_length())};
    finish_sweep(clock, "stream", source, k);
  } else {
    hits = sweep_topk(PoolSource{columns}, table, k, sweep_pool_, excluded);
    const obs::TraceAttr source[] = {
        obs::TraceAttr::uint("pool", pool_->size())};
    finish_sweep(clock, "table", source, k);
  }
  // Winners become configurations only after the span is emitted, so the
  // sweep's clock reads (and FakeClock trace bytes) cover the sweep alone.
  std::vector<space::Configuration> top;
  top.reserve(hits.size());
  for (const SweepHit& hit : hits) {
    top.push_back(stream_ ? space_->configuration_at(hit.ordinal)
                          : pool_->configs()[hit.index]);
  }
  return top;
}

space::Configuration HiPerBOt::suggest_ranking(const TpeSurrogate& s) {
  std::vector<space::Configuration> top = ranked_topk(s, 1);
  if (!top.empty()) {
    return std::move(top.front());
  }
  // A sampled pass can come back empty (tight constraints, or every
  // candidate it produced is already excluded) without the space being
  // exhausted — fall back to exploration instead of failing.
  HPB_REQUIRE(stream_.has_value(), "HiPerBOt: candidate pool exhausted");
  return random_unevaluated();
}

space::Configuration HiPerBOt::suggest_proposal(const TpeSurrogate& s) {
  std::optional<space::Configuration> best;
  double best_score = 0.0;
  for (std::size_t k = 0; k < config_.proposal_candidates; ++k) {
    space::Configuration c = s.good().sample(rng_);
    if (!space_->satisfies(c) || is_excluded(c)) {
      continue;
    }
    const double score = s.acquisition(c);
    if (!best || score > best_score) {
      best = std::move(c);
      best_score = score;
    }
  }
  if (!best) {
    // All proposals were invalid or duplicates — fall back to exploration.
    return random_unevaluated();
  }
  return *best;
}

space::Configuration HiPerBOt::initial_suggestion() {
  if (config_.initial_design == InitialDesign::kLatinHypercube) {
    if (initial_queue_.empty() && history_.empty()) {
      initial_queue_ = space::latin_hypercube(
          *space_, config_.initial_samples, rng_);
    }
    while (!initial_queue_.empty()) {
      space::Configuration c = std::move(initial_queue_.back());
      initial_queue_.pop_back();
      if (!is_excluded(c)) {
        return c;
      }
    }
  }
  return random_unevaluated();
}

space::Configuration HiPerBOt::suggest() {
  space::Configuration chosen;
  if (history_.size() < config_.initial_samples) {
    chosen = initial_suggestion();
  } else {
    const TpeSurrogate surrogate = fit_surrogate();
    chosen = config_.strategy == SelectionStrategy::kRanking
                 ? suggest_ranking(surrogate)
                 : suggest_proposal(surrogate);
    if (recorder_ != nullptr && recorder_->active()) {
      export_fit(surrogate, surrogate.acquisition(chosen));
    }
  }
  // A serial suggestion is outstanding until observed, exactly like a batch
  // member: without this, two suggest() calls with no intervening observe()
  // return the same configuration, and a later suggest_batch can duplicate
  // the outstanding one. observe()/observe_failure() release the ordinal.
  add_pending(chosen);
  return chosen;
}

void HiPerBOt::add_pending(const space::Configuration& c) {
  if (space_->is_finite()) {
    pending_.insert(space_->ordinal_of(c));
  }
  pending_configs_.push_back(c);
}

std::vector<space::Configuration> HiPerBOt::suggest_batch(std::size_t k) {
  HPB_REQUIRE(k > 0, "suggest_batch: k must be positive");
  std::vector<space::Configuration> batch;
  batch.reserve(k);
  // Members enter pending_ as they are taken, so is_excluded() handles both
  // within-batch deduplication and configurations still outstanding from an
  // earlier, partially observed batch.
  auto take = [&](space::Configuration c) {
    add_pending(c);
    batch.push_back(std::move(c));
  };
  auto pool_exhausted = [&] {
    return pool_ != nullptr &&
           evaluated_.size() + pending_.size() >= pool_->size();
  };

  if (history_.size() < config_.initial_samples) {
    while (batch.size() < k && !pool_exhausted()) {
      take(initial_suggestion());
    }
    return batch;
  }

  const TpeSurrogate surrogate = fit_surrogate();
  if (config_.strategy == SelectionStrategy::kRanking) {
    // Top-k available candidates by acquisition (ties toward the lowest
    // pool or in-pass index, matching the serial argmax). An empty stream
    // pass falls back to one exploration draw so the caller always makes
    // progress; an exhausted pool returns an empty batch.
    for (space::Configuration& c : ranked_topk(surrogate, k)) {
      take(std::move(c));
    }
    if (batch.empty() && stream_) {
      take(random_unevaluated());
    }
    if (recorder_ != nullptr && recorder_->active() && !batch.empty()) {
      export_fit(surrogate, surrogate.acquisition(batch.front()));
    }
    return batch;
  }

  // Proposal: oversample candidates, keep the k best distinct ones.
  std::vector<std::pair<double, space::Configuration>> scored;
  std::unordered_set<std::uint64_t> seen;  // dedup among the proposals
  for (std::size_t i = 0; i < config_.proposal_candidates * k; ++i) {
    space::Configuration c = surrogate.good().sample(rng_);
    if (!space_->satisfies(c) || is_excluded(c)) {
      continue;
    }
    if (space_->is_finite() && !seen.insert(space_->ordinal_of(c)).second) {
      continue;
    }
    scored.emplace_back(surrogate.acquisition(c), std::move(c));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [score, c] : scored) {
    if (batch.size() >= k) {
      break;
    }
    take(std::move(c));
  }
  while (batch.size() < k && !pool_exhausted()) {
    take(random_unevaluated());
  }
  if (recorder_ != nullptr && recorder_->active() && !batch.empty()) {
    export_fit(surrogate, surrogate.acquisition(batch.front()));
  }
  return batch;
}

bool HiPerBOt::adopt_batch(std::size_t requested,
                           std::span<const space::Configuration> batch) {
  // Pooled Ranking past the initial design is the one mode whose
  // suggest_batch draws nothing from the RNG (the initial design, Proposal
  // and an empty stream pass all draw), so the journaled batch is the
  // whole effect of the suggest it replaces.
  if (config_.strategy != SelectionStrategy::kRanking || pool_ == nullptr ||
      !space_->is_finite() || history_.size() < config_.initial_samples ||
      batch.empty()) {
    return false;
  }
  // The sweep returns min(requested, unexcluded pool members).
  const std::size_t excluded = evaluated_.size() + pending_.size();
  const std::size_t available =
      excluded < pool_->size() ? pool_->size() - excluded : 0;
  if (batch.size() != std::min(requested, available)) {
    return false;
  }
  std::vector<std::uint64_t> ordinals;
  ordinals.reserve(batch.size());
  for (const space::Configuration& c : batch) {
    if (!space_->satisfies(c)) {
      return false;
    }
    const std::uint64_t ordinal = space_->ordinal_of(c);
    if (evaluated_.contains(ordinal) || pending_.contains(ordinal) ||
        std::find(ordinals.begin(), ordinals.end(), ordinal) !=
            ordinals.end()) {
      return false;
    }
    ordinals.push_back(ordinal);
  }
  for (const space::Configuration& c : batch) {
    add_pending(c);
  }
  return true;
}

void HiPerBOt::observe(const space::Configuration& config, double y) {
  HPB_REQUIRE(config.size() == space_->num_params(),
              "HiPerBOt::observe: configuration size mismatch");
  if (space_->is_finite()) {
    const std::uint64_t ordinal = space_->ordinal_of(config);
    pending_.erase(ordinal);
    evaluated_.insert(ordinal);
  }
  erase_pending_config(config);
  history_.add(config, y);
}

void HiPerBOt::observe_failure(const space::Configuration& config,
                               EvalStatus status) {
  HPB_REQUIRE(config.size() == space_->num_params(),
              "HiPerBOt::observe_failure: configuration size mismatch");
  HPB_REQUIRE(status != EvalStatus::kOk,
              "HiPerBOt::observe_failure: status must be a failure");
  if (space_->is_finite()) {
    const std::uint64_t ordinal = space_->ordinal_of(config);
    pending_.erase(ordinal);
    evaluated_.insert(ordinal);  // never re-propose a failed configuration
  }
  erase_pending_config(config);
  failed_.push_back(config);  // joins the bad density group on the next fit
}

void HiPerBOt::abandon(const space::Configuration& config) {
  HPB_REQUIRE(config.size() == space_->num_params(),
              "HiPerBOt::abandon: configuration size mismatch");
  if (space_->is_finite()) {
    pending_.erase(space_->ordinal_of(config));
  }
  erase_pending_config(config);
}

void HiPerBOt::erase_pending_config(const space::Configuration& config) {
  for (auto it = pending_configs_.begin(); it != pending_configs_.end();
       ++it) {
    if (it->values() == config.values()) {
      pending_configs_.erase(it);
      return;
    }
  }
}

void HiPerBOt::export_fit(const TpeSurrogate& s, double chosen_score) const {
  const obs::Recorder& rec = *recorder_;
  const std::uint64_t excluded = evaluated_.size() + pending_.size();
  if (rec.metrics != nullptr) {
    FitMeters& m = fit_meters(*rec.metrics);
    if (m.fits == nullptr) {
      obs::MetricsRegistry& registry = *rec.metrics;
      m.fits = &registry.counter("hiperbot.fits");
      m.good_size = &registry.gauge("hiperbot.good_size");
      m.bad_size = &registry.gauge("hiperbot.bad_size");
      m.threshold = &registry.gauge("hiperbot.threshold");
      m.kde_bandwidth = &registry.gauge("hiperbot.kde_bandwidth");
      m.excluded = &registry.gauge("hiperbot.excluded");
      m.acquisition_best = &registry.gauge("hiperbot.acquisition_best");
    }
    m.fits->add(1);
    m.good_size->set(static_cast<double>(s.num_good()));
    m.bad_size->set(static_cast<double>(s.num_bad()));
    m.threshold->set(s.threshold());
    m.kde_bandwidth->set(s.mean_kde_bandwidth());
    m.excluded->set(static_cast<double>(excluded));
    m.acquisition_best->set(chosen_score);
  }
  if (rec.trace != nullptr) {
    const std::uint64_t now = rec.now_ns();
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::str("strategy",
                            config_.strategy == SelectionStrategy::kRanking
                                ? "ranking"
                                : "proposal"),
        obs::TraceAttr::uint("history", history_.size()),
        obs::TraceAttr::uint("good", s.num_good()),
        obs::TraceAttr::uint("bad", s.num_bad()),
        obs::TraceAttr::uint("excluded", excluded),
        obs::TraceAttr::num("threshold", s.threshold()),
        obs::TraceAttr::num("kde_bandwidth", s.mean_kde_bandwidth()),
        obs::TraceAttr::num("acquisition_best", chosen_score),
    };
    rec.trace->emit({.name = "hiperbot.fit",
                     .id = rec.trace->next_id(),
                     .parent = 0,
                     .start_ns = now,
                     .end_ns = now,
                     .attrs = attrs});
  }
}

HiPerBOt::FitMeters& HiPerBOt::fit_meters(
    const obs::MetricsRegistry& registry) const {
  if (meters_.registry != registry.serial()) {
    meters_ = FitMeters{.registry = registry.serial()};
  }
  return meters_;
}

TpeSurrogate HiPerBOt::fit_surrogate() const {
  // Constant-liar mass: outstanding suggestions join the failed
  // configurations in the bad density group, steering the next acquisition
  // away from configurations already being evaluated elsewhere. Synchronous
  // drivers fit with nothing outstanding, so this branch never fires for
  // them and their fits are bitwise-unchanged.
  if (config_.pending_liar && !pending_configs_.empty()) {
    std::vector<space::Configuration> bad_mass;
    bad_mass.reserve(failed_.size() + pending_configs_.size());
    bad_mass.insert(bad_mass.end(), failed_.begin(), failed_.end());
    bad_mass.insert(bad_mass.end(), pending_configs_.begin(),
                    pending_configs_.end());
    return TpeSurrogate(space_, history_, config_.quantile, config_.density,
                        prior_ ? &*prior_ : nullptr,
                        prior_ ? config_.transfer_weight : 0.0, bad_mass);
  }
  return TpeSurrogate(space_, history_, config_.quantile, config_.density,
                      prior_ ? &*prior_ : nullptr,
                      prior_ ? config_.transfer_weight : 0.0, failed_);
}

std::vector<double> HiPerBOt::parameter_importance() const {
  return fit_surrogate().parameter_importance();
}

}  // namespace hpb::core
