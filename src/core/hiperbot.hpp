// HiPerBOt: the paper's Bayesian-optimization configuration-selection tuner
// (§III). Implements the full iterative algorithm of §III-C:
//
//   1. evaluate `initial_samples` configurations drawn uniformly at random;
//   2. split the history at the α-quantile, fit pg/pb densities;
//   3. pick the candidate maximizing the EI surrogate pg/pb —
//      *Ranking*: score every not-yet-evaluated configuration of a finite
//      space; *Proposal*: sample candidates from pg and keep the best
//      (§III-D);
//   4. evaluate, append to the history, repeat.
//
// Transfer learning (§III-E): give the tuner a TransferPrior built from the
// source domain and a weight w; the priors are mixed into pg/pb (eq. 9–10).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "core/surrogate.hpp"
#include "core/tuner.hpp"
#include "space/candidate_stream.hpp"

namespace hpb::core {

enum class SelectionStrategy {
  kRanking,   // exhaustive scoring of a finite candidate pool
  kProposal,  // sample candidates from pg(x)
};

enum class InitialDesign {
  kUniform,         // the paper's protocol: i.i.d. uniform samples
  kLatinHypercube,  // space-filling alternative (ablation)
};

enum class SweepSource {
  /// Pooled when a pool is available; streamed when the space is finite but
  /// too large to enumerate. The default.
  kAuto,
  /// Force the materialized-pool sweep (throws when no pool can be built).
  kPooled,
  /// Force the streamed sweep even when a pool would fit, dropping any
  /// pool. The equivalence-test hook: on a flat unconstrained space the
  /// streamed path must produce bitwise-identical suggestions to kPooled.
  kStreamed,
};

struct HiPerBOtConfig {
  /// Number of uniformly random configurations before the surrogate kicks
  /// in (the paper uses 20; sensitivity in Fig. 7a).
  std::size_t initial_samples = 20;
  /// How the initial samples are drawn.
  InitialDesign initial_design = InitialDesign::kUniform;
  /// α-quantile splitting good from bad (the paper uses 0.2; Fig. 7b).
  double quantile = 0.2;
  SelectionStrategy strategy = SelectionStrategy::kRanking;
  /// Number of pg-samples scored per iteration under kProposal.
  std::size_t proposal_candidates = 64;
  /// Density estimation knobs (histogram smoothing, KDE bandwidth).
  DensityConfig density;
  /// Where Ranking sweeps draw their candidates from: a materialized pool
  /// or a streamed CandidateStream over the space (Proposal ignores this).
  SweepSource sweep_source = SweepSource::kAuto;
  /// Candidate-generation knobs for streamed sweeps (chunk size, sampled
  /// pass budget). Defaults match the pooled sweep's chunking so flat
  /// unconstrained spaces are bitwise-identical either way.
  space::StreamConfig stream;
  /// Transfer-prior mixture weight w of eq. 9–10 (used only when a prior is
  /// installed via set_transfer_prior).
  double transfer_weight = 1.0;
  /// Fold outstanding (suggested-but-unobserved) configurations into the
  /// surrogate's bad density as constant-liar mass, so an asynchronous
  /// caller's next suggest is steered away from configurations already
  /// being evaluated elsewhere. Synchronous drivers observe every batch
  /// before the next fit, so their fits never see outstanding
  /// configurations and are bitwise-unchanged by this flag.
  bool pending_liar = true;
};

class HiPerBOt final : public Tuner {
 public:
  /// For small finite spaces the candidate pool is enumerated eagerly
  /// (Ranking sweeps it; Random-phase draws come from it so suggestions are
  /// never duplicated). Finite spaces too large to enumerate are swept via
  /// a streamed CandidateStream instead — valid candidates are generated
  /// chunk by chunk and never materialized. Non-finite spaces require the
  /// Proposal strategy.
  HiPerBOt(space::SpacePtr space, HiPerBOtConfig config, std::uint64_t seed);

  /// Reuse an existing enumeration (avoids re-enumerating a large space for
  /// every replicated run). Must contain only valid configurations.
  HiPerBOt(space::SpacePtr space, HiPerBOtConfig config, std::uint64_t seed,
           std::shared_ptr<const std::vector<space::Configuration>> pool);

  /// Sweep a shared candidate pool (e.g. a dataset's): every tuner holding
  /// the same pool reads one column mirror, built by the first sweep.
  HiPerBOt(space::SpacePtr space, HiPerBOtConfig config, std::uint64_t seed,
           std::shared_ptr<const space::CandidatePool> pool);

  /// Install the transfer-learning prior (eq. 9–10); weight comes from
  /// config.transfer_weight.
  void set_transfer_prior(TransferPrior prior);

  /// Worker pool for the Ranking acquisition sweep (not owned; must outlive
  /// suggest calls). Null (the default) sweeps serially. The sweep uses
  /// fixed chunk boundaries and lowest-index tie-breaking, so suggestions
  /// are bitwise-identical for any pool size, including none.
  void set_sweep_pool(ThreadPool* pool) noexcept { sweep_pool_ = pool; }

  [[nodiscard]] space::Configuration suggest() override;

  /// Suggest up to k distinct configurations at once (for parallel
  /// evaluation on a batch scheduler). Under Ranking these are the top-k
  /// acquisition scores; under Proposal, the k best of the proposal set.
  /// Batch members are tracked as *pending* until observed, so later
  /// suggestions (single or batched) never repeat an outstanding
  /// configuration even if the caller observes only part of a batch.
  [[nodiscard]] std::vector<space::Configuration> suggest_batch(
      std::size_t k) override;

  /// Accepts only under pooled Ranking past the initial design, where
  /// suggest_batch draws nothing from the RNG: its top-k is fixed by the
  /// history, the failures and the pending set. The batch must be the size
  /// that suggest_batch(requested) would return, and every member valid,
  /// not excluded, and not repeated. Accepting adds the batch to the
  /// pending set and the liar list, in batch order, and changes nothing
  /// else.
  [[nodiscard]] bool adopt_batch(
      std::size_t requested,
      std::span<const space::Configuration> batch) override;

  void observe(const space::Configuration& config, double y) override;
  /// Failed configurations join the excluded-ordinal set (never re-proposed)
  /// and the surrogate's "bad" density group (§III-C's pb), steering pg/pb
  /// away from failure regions without poisoning the good density. They do
  /// not count toward the initial random design — the surrogate still waits
  /// for `initial_samples` *successful* observations.
  void observe_failure(const space::Configuration& config,
                       EvalStatus status) override;
  /// Release an outstanding suggestion that will never be observed: the
  /// configuration leaves the pending set (and the liar mass) and becomes
  /// suggestable again — the acquisition argmax may well re-propose it.
  void abandon(const space::Configuration& config) override;
  [[nodiscard]] std::string name() const override { return "HiPerBOt"; }

  [[nodiscard]] const History& history() const noexcept { return history_; }
  [[nodiscard]] const std::vector<space::Configuration>& failed_configs()
      const noexcept {
    return failed_;
  }
  [[nodiscard]] const HiPerBOtConfig& config() const noexcept {
    return config_;
  }
  /// The candidate pool, or null for streamed and pool-less tuners.
  [[nodiscard]] const std::shared_ptr<const space::CandidatePool>& pool()
      const noexcept {
    return pool_;
  }

  /// Fit a surrogate to the current history (>= 2 observations required).
  [[nodiscard]] TpeSurrogate fit_surrogate() const;

  /// Per-parameter JS-divergence importance from the current history (§VI).
  [[nodiscard]] std::vector<double> parameter_importance() const;

 private:
  [[nodiscard]] bool is_evaluated(const space::Configuration& c) const;
  /// Evaluated, or suggested (serially or in a batch) and awaiting its
  /// observation.
  [[nodiscard]] bool is_excluded(const space::Configuration& c) const;
  [[nodiscard]] space::Configuration random_unevaluated();
  [[nodiscard]] space::Configuration initial_suggestion();
  [[nodiscard]] space::Configuration suggest_ranking(const TpeSurrogate& s);
  [[nodiscard]] space::Configuration suggest_proposal(const TpeSurrogate& s);
  /// The Ranking sweep: the top-k unexcluded candidates of the pool, or of
  /// the next stream pass, by acquisition score, best first, ties toward
  /// the lowest pool (or in-pass) index. Emits the hiperbot.sweep span
  /// when tracing.
  [[nodiscard]] std::vector<space::Configuration> ranked_topk(
      const TpeSurrogate& s, std::size_t k);
  /// The columns a Ranking sweep scores: the pool's shared mirror, or for
  /// a streamed sweep the space's table layout with no rows.
  [[nodiscard]] const PoolColumns& sweep_columns();
  /// Mark a suggestion outstanding until observed (pending set + liar
  /// list).
  void add_pending(const space::Configuration& c);

  /// Clock marks of one Ranking sweep for its hiperbot.sweep span, read
  /// only while tracing.
  struct SweepClock {
    bool tracing = false;
    std::uint64_t start = 0;
    std::uint64_t table_built = 0;
  };
  [[nodiscard]] SweepClock start_sweep() const;
  /// Mark the score table built.
  void mark_table_built(SweepClock& clock) const;
  /// Count the sweep and, when tracing, emit its span: mode and SIMD tier,
  /// the source's attrs (pool size, or pass and pass length), then k,
  /// exclusions, threads, table-build and sweep time, reused columns.
  void finish_sweep(const SweepClock& clock, std::string_view mode,
                    std::span<const obs::TraceAttr> source,
                    std::size_t k) const;
  /// Drop the first pending configuration with these values, if present.
  void erase_pending_config(const space::Configuration& config);
  /// Export the internals of one surrogate fit (good/bad split sizes, KDE
  /// bandwidth, threshold, exclusion-set size, acquisition score of the
  /// chosen candidate) to the installed recorder. Pure reads: a traced run
  /// proposes exactly the configurations an untraced one would.
  void export_fit(const TpeSurrogate& s, double chosen_score) const;

  /// hiperbot.* instruments of the recorder's registry. Each group is
  /// looked up on its first use and kept with the serial of the registry
  /// it came from (0 = none yet): a lookup takes the registry's mutex, and
  /// every fitted suggest would otherwise pay eight of them.
  struct FitMeters {
    std::uint64_t registry = 0;
    obs::Counter* sweeps = nullptr;
    obs::Counter* fits = nullptr;
    obs::Gauge* good_size = nullptr;
    obs::Gauge* bad_size = nullptr;
    obs::Gauge* threshold = nullptr;
    obs::Gauge* kde_bandwidth = nullptr;
    obs::Gauge* excluded = nullptr;
    obs::Gauge* acquisition_best = nullptr;
  };
  /// The kept meters, dropped first when `registry` is not the one they
  /// came from (set_recorder installed another recorder).
  [[nodiscard]] FitMeters& fit_meters(
      const obs::MetricsRegistry& registry) const;

  space::SpacePtr space_;
  HiPerBOtConfig config_;
  Rng rng_;
  History history_;
  std::shared_ptr<const space::CandidatePool> pool_;
  /// A streamed sweep's table layout (no rows), built on its first sweep.
  std::optional<PoolColumns> stream_layout_;
  /// Streamed candidate source for Ranking on spaces with no pool (or with
  /// sweep_source == kStreamed). Mutually exclusive with pool_.
  std::optional<space::CandidateStream> stream_;
  std::uint64_t stream_pass_ = 0;  // next stream pass to sweep
  ThreadPool* sweep_pool_ = nullptr;    // Ranking sweep workers, not owned
  std::unordered_set<std::uint64_t> evaluated_;  // ordinals, finite spaces
  std::unordered_set<std::uint64_t> pending_;    // batched, not yet observed
  /// The pending configurations themselves, in suggestion order: the
  /// constant-liar mass folded into fit_surrogate()'s bad group while any
  /// suggestion is outstanding (async callers), and the lookup for
  /// abandon(). Kept for every space (ordinals exist only for finite ones).
  std::vector<space::Configuration> pending_configs_;
  std::vector<space::Configuration> failed_;     // evaluations that failed
  /// Previous fit's acquisition table: consecutive fits reuse the columns
  /// of unchanged marginals (bitwise-identical scores either way).
  std::optional<AcquisitionTable> table_cache_;
  std::optional<TransferPrior> prior_;
  std::vector<space::Configuration> initial_queue_;  // LHS design, if any
  mutable FitMeters meters_;
};

}  // namespace hpb::core
