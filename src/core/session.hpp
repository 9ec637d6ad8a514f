// Session: the reentrant per-run core of the tuning loop.
//
// A Session owns everything one tuning run carries between rounds — the
// tuner, the write-ahead journal, the observability recorder, the pending
// (suggested-but-unobserved) round, the stopping bookkeeping, and the
// best-so-far trajectory — behind explicit suggest / observe / status /
// checkpoint entry points. TuningEngine::run drives a single Session to
// completion (evaluating the objective itself); SessionManager hosts
// thousands of named Sessions whose clients evaluate remotely and come and
// go between verbs.
//
// The split is exact: Session::suggest performs everything run_round did up
// to (and including) the journal round marker, Session::observe performs
// everything after the evaluations returned, in the same order — trace span
// ids, clock reads, journal bytes, and metrics all match the pre-split
// driver bit for bit (pinned by tests/test_session.cpp).
//
// One round may be in flight at a time: suggest() with an unobserved round
// throws, observe() validates that the delivered results match the pending
// suggestions in order (an out-of-order observe is a client error, not a
// crash). Failure handling, stopping bookkeeping, and journal finalization
// semantics are unchanged from the engine they were extracted from. A stuck
// round (client died mid-evaluation) is released with cancel_round(), which
// journals an abandon marker so resume replays it as a cancelled round.
//
// Asynchronous sessions (SessionMode::kAsync) drop the round structure:
// suggest_async() issues per-suggestion tokens and never waits, results
// come back one token at a time in any order via observe_async(), and
// cancel_async() abandons tokens that will never resolve. Every verb is
// journaled write-ahead (the ask line is durable before its tokens are
// returned), so an async session is always evictable and a resumed one
// re-exposes exactly the outstanding tokens a client could hold.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/loop.hpp"
#include "core/stopping.hpp"
#include "core/tuner.hpp"
#include "obs/recorder.hpp"

namespace hpb::core {

/// How a driver treats failed evaluations (EvalStatus != kOk).
struct FailurePolicy {
  /// Immediate re-evaluations of a configuration whose attempt came back
  /// kCrashed (the one transient status) before it is recorded as failed.
  /// Retries are extra objective calls but occupy the same budget slot.
  /// kInvalid / kTimeout are deterministic verdicts and are never retried.
  std::size_t max_retries = 1;
};

/// Per-evaluation wall time and attempt count, captured by the driver on
/// the worker that ran the evaluation (only when a recorder is attached)
/// and reduced into trace spans / latency histograms by Session::observe.
struct EvalMeter {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t attempts = 1;
};

/// How a session hands out and takes back evaluations.
enum class SessionMode {
  /// Round-structured: one suggest_batch at a time, observed whole, in
  /// suggestion order.
  kSync,
  /// Token-structured: suggestions carry tokens, results resolve tokens in
  /// any order, suggest never waits on outstanding evaluations.
  kAsync,
};

/// One tokenized suggestion of an asynchronous session.
struct AsyncSuggestion {
  std::uint64_t token = 0;
  space::Configuration config;
};

/// One completed evaluation of an asynchronous session, identified by
/// token (the session resolves the configuration itself).
struct AsyncResult {
  std::uint64_t token = 0;
  tabular::EvalStatus status = tabular::EvalStatus::kOk;
  double y = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return status == tabular::EvalStatus::kOk;
  }
};

/// Everything a Session carries besides the tuner and the journal. The
/// evaluation-side knobs (failure, eval_deadline, stop_flag) are stored
/// here so the session fully describes its run, but they are consumed by
/// the driver that evaluates the objective — a remote client performs its
/// own evaluations and simply ignores them.
struct SessionConfig {
  /// Configurations suggested per round. 1 reproduces the serial ask/tell
  /// loop exactly.
  std::size_t batch_size = 1;
  /// Retry policy for transient failures (driver-side).
  FailurePolicy failure{};
  /// Per-evaluation watchdog deadline (driver-side; zero disables).
  std::chrono::milliseconds eval_deadline{0};
  /// Graceful-shutdown flag, checked by the driver between rounds. Not
  /// owned.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Observability hooks (trace sink / metrics registry / clock), optional
  /// and not owned. The all-null default adds no work to the loop.
  obs::Recorder recorder{};
  /// Stopping conditions. Session::observe applies the per-observation
  /// bookkeeping (target check, stagnation patience) and exposes the
  /// verdict via status(); drivers decide whether to honor it (run()
  /// ignores it, run_until() stops on it).
  StopConfig stop{};
  /// Round-structured (default) or token-structured asynchronous session.
  SessionMode mode = SessionMode::kSync;
  /// Async sessions: cap on outstanding (suggested-but-unresolved) tokens.
  /// A suggest_async that would exceed it throws hpb::OverloadError before
  /// any state changes. 0 = unlimited. Sync rounds are naturally bounded
  /// by one batch and ignore this.
  std::size_t max_pending = 0;
};

/// Snapshot of a session's progress, cheap enough to take per verb.
struct SessionStatus {
  std::size_t evaluations = 0;
  std::size_t num_failed = 0;
  /// Completed suggest/observe rounds.
  std::size_t rounds = 0;
  /// Suggestions of the in-flight round still awaiting observe (0 when no
  /// round is in flight). Async sessions: the outstanding token count.
  std::size_t pending = 0;
  /// Async sessions only: the outstanding tokens in issue order. A client
  /// resuming after a crash reads these to pick up (or cancel) evaluations
  /// it no longer remembers.
  std::vector<std::uint64_t> pending_tokens;
  /// The session runs in asynchronous (token) mode.
  bool async = false;
  double best_value = 0.0;
  /// Raw values of the best successful configuration; empty until the
  /// first success.
  std::vector<double> best_config;
  /// A stopping condition fired (target reached / stagnation). The session
  /// still accepts observes for an in-flight round.
  bool stopped = false;
  StopReason reason = StopReason::kBudgetExhausted;
  /// finish()/close() was called; every further verb throws.
  bool finished = false;
  /// A journal append failed (disk fault): the session is read-only —
  /// status/checkpoint still serve, every mutating verb throws. The
  /// durable journal prefix is still valid; a daemon restart (with the
  /// disk healthy again) resumes the session from it.
  bool degraded = false;
  std::string degraded_reason;
};

/// Durability report for eviction decisions: what survives if the
/// in-memory session is dropped right now.
struct SessionCheckpoint {
  /// True when a write-ahead journal backs the session. Every verb but a
  /// sync suggest fsyncs its records before it returns (a round marker
  /// alone recovers nothing and is synced with its round's records), so a
  /// journaled session is always durable up to its last completed verb —
  /// checkpoint() reports, it never has to flush.
  bool journaled = false;
  std::string journal_path;
  std::size_t rounds = 0;
  std::size_t observations = 0;
  /// An unobserved round is in flight; dropping the session now would
  /// orphan its suggestions (the journal holds only the round marker,
  /// which resume discards and re-suggests).
  bool round_in_flight = false;
};

class Session {
 public:
  /// Borrowing constructor, used by TuningEngine: the caller keeps
  /// ownership of the tuner and the journal (both must outlive the
  /// session) and is responsible for installing the recorder on the tuner
  /// (the engine points it at its own config, exactly as before the
  /// split).
  Session(Tuner& tuner, SessionConfig config, JournalWriter* journal = nullptr);

  /// Owning constructor, used by SessionManager: the session owns its
  /// tuner and journal, and installs its recorder on the tuner when one is
  /// attached.
  Session(std::unique_ptr<Tuner> tuner, SessionConfig config,
          std::unique_ptr<JournalWriter> journal);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Ask the tuner for up to `k` configurations and open a round: emits
  /// the suggest span, writes the journal round marker, and records the
  /// batch as pending. Throws if a round is already in flight or the
  /// session is finished.
  [[nodiscard]] std::vector<space::Configuration> suggest(std::size_t k);

  /// Deliver the evaluated round, in suggestion order. Validates that the
  /// observations match the pending suggestions (out-of-order or foreign
  /// results throw without corrupting the session), journals them, feeds
  /// the tuner, and applies best-so-far + stopping bookkeeping. `meters`
  /// (driver-side timing) feeds the evaluate spans and latency histograms;
  /// remote sessions pass none and get no evaluate spans.
  void observe(std::vector<Observation> observations,
               std::span<const EvalMeter> meters = {});

  /// Release the in-flight round without observing it (the client
  /// evaluating it died or gave up): journals the abandon marker, hands
  /// every pending suggestion back to the tuner via abandon(), and reopens
  /// the session for the next suggest. Returns the number of suggestions
  /// released. Sync sessions only.
  std::size_t cancel_round();

  /// Async: ask the tuner for up to `k` configurations and issue one token
  /// per suggestion. Never waits on outstanding evaluations — the ask is
  /// journaled write-ahead and the tokens join the outstanding set. Throws
  /// on sync sessions.
  [[nodiscard]] std::vector<AsyncSuggestion> suggest_async(std::size_t k);

  /// Async: deliver completed evaluations in any order and any subset.
  /// Every token must be outstanding and appear at most once per call;
  /// validation happens before any state changes, so a bad call leaves the
  /// session untouched.
  void observe_async(std::span<const AsyncResult> results);

  /// Async: abandon outstanding tokens that will never resolve. An empty
  /// span cancels every outstanding token (the un-wedge verb for a client
  /// that lost track). Returns the number of tokens cancelled.
  std::size_t cancel_async(std::span<const std::uint64_t> tokens);

  /// Apply already-journaled observations (from replay_journal, which
  /// drove them through the tuner) to the result and stopping bookkeeping.
  /// `rounds` is the number of journaled rounds, observed and abandoned,
  /// the replay covered: the round counter (status().rounds and the round
  /// span's index) continues from it, as in the session that wrote the
  /// journal. Only valid before the first suggest of a fresh session.
  void replay(std::span<const Observation> replayed, std::size_t rounds = 0);

  /// Async counterpart of replay(): apply the journaled observations and
  /// restore the outstanding-token set, the token counter and the round
  /// (ask) counter from an AsyncReplayResult. Only valid before the first
  /// ask of a fresh async session.
  void replay_async(const AsyncReplayResult& replayed);

  [[nodiscard]] SessionStatus status() const;

  /// Report what is durable if the in-memory session is dropped now.
  [[nodiscard]] SessionCheckpoint checkpoint() const;

  /// Terminal bookkeeping for a driver-completed run: finalizes the
  /// journal with the stop reason — except kInterrupted, which leaves the
  /// journal resumable (that is what --resume expects to find).
  void finish(StopReason reason);

  /// Terminal bookkeeping for a service session: finalizes the journal
  /// with "closed". Throws when a round is in flight (its suggestions
  /// would be orphaned) or the session already finished.
  void close();

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const TuneResult& result() const noexcept { return result_; }
  [[nodiscard]] TuneResult take_result() noexcept { return std::move(result_); }
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return result_.history.size();
  }
  [[nodiscard]] bool round_in_flight() const noexcept {
    return round_in_flight_;
  }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  [[nodiscard]] StopReason stop_reason() const noexcept { return reason_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// A journal append failed: the session is read-only (see
  /// SessionStatus::degraded).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] bool journaled() const noexcept { return journal_ != nullptr; }
  [[nodiscard]] Tuner& tuner() noexcept { return *tuner_; }

  /// Pre-size the history/best-so-far vectors (drivers know their budget).
  void reserve(std::size_t n);

 private:
  /// One observation's worth of result + stopping bookkeeping — identical
  /// for a replayed and a freshly evaluated observation, which is what
  /// makes a resumed session stop exactly where the uninterrupted one
  /// would.
  void apply(Observation o);

  void require_open(const char* verb) const;
  void require_mode(SessionMode mode, const char* verb) const;

  /// Run one journal mutation; an IoError marks the session degraded and
  /// rethrows as a structured hpb::Error naming the read-only contract.
  template <typename F>
  void journal_op(const char* what, F&& op);

  /// engine.* instruments of config_.recorder.metrics (which must be set),
  /// each looked up by name on its first use and then kept in `handle`: a
  /// lookup takes the registry's mutex, and registering on first use
  /// leaves the registry holding exactly the instruments the run used.
  obs::Counter& counter(obs::Counter*& handle, const char* name);
  obs::Gauge& gauge(obs::Gauge*& handle, const char* name);
  obs::Histogram& latency_ms(obs::Histogram*& handle, const char* name);

  SessionConfig config_;
  Tuner* tuner_ = nullptr;
  JournalWriter* journal_ = nullptr;
  std::unique_ptr<Tuner> owned_tuner_;
  std::unique_ptr<JournalWriter> owned_journal_;

  TuneResult result_;
  std::size_t since_improvement_ = 0;
  bool stopped_ = false;
  StopReason reason_ = StopReason::kBudgetExhausted;
  bool finished_ = false;
  struct Meters {
    obs::Counter* rounds = nullptr;
    obs::Counter* evaluations = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* eval_retries = nullptr;
    obs::Counter* cancelled_rounds = nullptr;
    obs::Counter* asks = nullptr;
    obs::Counter* cancelled_tokens = nullptr;
    obs::Gauge* outstanding = nullptr;
    obs::Gauge* best_value = nullptr;
    obs::Histogram* eval_ms = nullptr;
    obs::Histogram* round_ms = nullptr;
  };
  Meters meters_;

  // Atomic so the manager's health/eviction scans can read it without the
  // per-session op mutex; the reason string is only read under that mutex.
  std::atomic<bool> degraded_{false};
  std::string degraded_reason_;

  // In-flight round state (sync mode).
  bool round_in_flight_ = false;
  std::vector<space::Configuration> pending_;
  std::size_t round_requested_ = 0;
  std::size_t round_index_ = 0;
  std::uint64_t round_id_ = 0;
  std::uint64_t round_start_ = 0;

  // Outstanding tokens (async mode), ordered by issue. The ordered map
  // keeps status().pending_tokens deterministic.
  std::map<std::uint64_t, space::Configuration> outstanding_;
  std::uint64_t next_token_ = 1;
};

}  // namespace hpb::core
