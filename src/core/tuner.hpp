// Batched ask/tell tuner interface shared by HiPerBOt and every baseline.
//
// A tuner proposes configurations to evaluate (§III-A: the argmax of the
// surrogate's expected improvement) and is then told the observed objective
// values. The core abstraction is *batched*: suggest_batch(k) asks for up
// to k distinct configurations so the engine (core/engine.hpp) can evaluate
// them in parallel, and observe_batch() delivers the results in suggestion
// order. The single-point suggest()/observe() pair remains the unit every
// tuner must implement; the batch entry points default to looping it, and
// tuners with a native batch strategy (HiPerBOt's top-k acquisition, the
// constant-liar fill-ins of the model-based baselines) override them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/recorder.hpp"
#include "space/configuration.hpp"
#include "tabular/objective.hpp"

namespace hpb::core {

/// Evaluation outcome statuses, shared with the objective layer.
using tabular::EvalStatus;

/// One evaluated (configuration, objective value) pair — an element of the
/// observation history H_t. `y` is finite exactly when status == kOk; a
/// failed evaluation records NaN and the failure status instead.
struct Observation {
  space::Configuration config;
  double y = 0.0;
  EvalStatus status = EvalStatus::kOk;

  [[nodiscard]] bool ok() const noexcept { return status == EvalStatus::kOk; }
};

class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Propose the next configuration to evaluate.
  [[nodiscard]] virtual space::Configuration suggest() = 0;

  /// Record the objective value of a previously suggested configuration.
  /// Successful evaluations only — y must be finite.
  virtual void observe(const space::Configuration& config, double y) = 0;

  /// Record that a previously suggested configuration failed to evaluate
  /// (invalid / crashed / timed out). Tuners must release any pending-batch
  /// tracking for the configuration and should exclude it from future
  /// suggestions without letting it poison their model of *successful*
  /// values — HiPerBOt folds failures into its "bad" density, the
  /// model-based baselines only mark the configuration evaluated. The
  /// default ignores the event (safe for tuners without exclusion state).
  virtual void observe_failure(const space::Configuration& config,
                               EvalStatus status) {
    (void)config;
    (void)status;
  }

  /// Release a previously suggested configuration that will never be
  /// observed (the client evaluating it died, or the caller cancelled the
  /// round). Tuners with pending-batch tracking must drop the configuration
  /// from it — it becomes suggestable again, unlike an observed failure,
  /// which stays excluded. The default ignores the event (safe for tuners
  /// without pending state). Abandons are part of the deterministic verb
  /// sequence: replaying the same suggest/observe/abandon calls rebuilds the
  /// same tuner state.
  virtual void abandon(const space::Configuration& config) { (void)config; }

  /// Propose up to k configurations for parallel evaluation. May return
  /// fewer than k when the space is nearly exhausted, but never zero (the
  /// single-point path throws first). The default loops suggest(), which is
  /// exact for k == 1 but may propose within-batch duplicates for tuners
  /// whose deduplication happens in observe(); every shipped tuner
  /// overrides this with a batch-aware strategy.
  [[nodiscard]] virtual std::vector<space::Configuration> suggest_batch(
      std::size_t k) {
    HPB_REQUIRE(k > 0, "suggest_batch: k must be positive");
    std::vector<space::Configuration> batch;
    batch.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      batch.push_back(suggest());
    }
    return batch;
  }

  /// Journal replay: take `batch` as if suggest_batch(requested) had just
  /// returned it, without computing a suggestion. A tuner accepts only when
  /// it can show that its suggestion depended on nothing but state the
  /// journal already fixes (the observations so far and the outstanding
  /// suggestions), and then changes exactly what that suggest_batch would
  /// have changed. Otherwise it returns false and stays untouched, and the
  /// caller suggests and compares instead. The default never accepts.
  [[nodiscard]] virtual bool adopt_batch(
      std::size_t requested, std::span<const space::Configuration> batch) {
    (void)requested;
    (void)batch;
    return false;
  }

  /// Record the results of a previously suggested batch, in suggestion
  /// order. The default routes each member by status — observe() for
  /// successes, observe_failure() for failures; overrides may amortize
  /// model refits across the batch but must keep that routing. Engines must
  /// deliver a whole batch through this entry point (not member-by-member
  /// observe() calls) so that constant-liar overrides can retract their
  /// fill-in values.
  virtual void observe_batch(std::span<const Observation> observations) {
    for (const Observation& o : observations) {
      if (o.ok()) {
        observe(o.config, o.y);
      } else {
        observe_failure(o.config, o.status);
      }
    }
  }

  /// Short identifier used in reports ("HiPerBOt", "GEIST", "Random", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Install the observability hooks this tuner exports its internals to
  /// (model-fit spans, split sizes, acquisition scores, ...). The recorder
  /// is not owned and must outlive the tuner's suggest/observe calls; null
  /// (the default) disables all exports. Tuners only ever *read* their
  /// state when recording, so a tuner with a recorder proposes exactly the
  /// same configurations as one without.
  void set_recorder(const obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 protected:
  /// Observability hooks, or null. Derived tuners guard every export on
  /// this (and on the specific sink they need).
  const obs::Recorder* recorder_ = nullptr;
};

}  // namespace hpb::core
