// SessionManager: thousands of named, concurrent ask/tell tuning sessions
// behind one object — the core of the tuning service.
//
// Clients create a session by name, then suggest / observe / status / close
// it; between verbs the client may disappear entirely. The registry is
// striped (hash(name) → stripe, each stripe its own mutex + map), so verbs
// on different sessions proceed in parallel while verbs on one session are
// serialized by a per-session mutex.
//
// Cold eviction: when a stripe exceeds its share of `max_resident`, its
// least-recently-used idle session is dropped from memory. Nothing is lost
// — every hosted session is backed by the write-ahead journal (one write
// and one fsync per verb, before the verb returns), so the on-disk state
// already *is* the session.
// The next verb that touches an evicted name transparently resumes it: the
// factory rebuilds the tuner over the dataset's shared candidate pool,
// replay_journal re-drives it through the journaled rounds
// (bitwise-identical suggest sequence, proven by tests/test_session.cpp),
// and the journal re-opens in append mode. The replay adopts each
// journaled batch the tuner can vouch for without refitting and
// re-suggests the rest, the last one always, so resuming a HiPerBOt
// session costs one journal read and one fit. The resumed session's round
// counter continues from the journal's. A session with an unobserved round
// in flight is pinned hot — evicting it would orphan its suggestions.
//
// Observability: the manager emits `session.*` spans (create / resume /
// evict / close) and `manager.*` counters into its own recorder, and gives
// every resident session a private MetricsRegistry scope so one session's
// engine.* metrics never mix with another's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Identity of one hosted session — everything needed to build (or
/// rebuild) its tuner. Persisted in the journal header, so an evicted or
/// crashed session resumes from its name alone.
struct SessionSpec {
  /// Registry key and journal file stem. Restricted to
  /// [A-Za-z0-9._-]{1,128} (it names a file under the journal directory).
  std::string name;
  std::string method = "hiperbot";
  std::string dataset;
  std::uint64_t seed = 42;
  std::size_t batch_size = 1;
  /// Stopping conditions applied per observation (budget / patience /
  /// target recorded in the journal header; the session reports `stopped`
  /// through status, clients decide when to stop asking).
  StopConfig stop;
  /// Round-structured (default) or token-structured asynchronous session.
  /// Recorded in the journal header (`meta mode async`), so a resumed
  /// session keeps its mode.
  SessionMode mode = SessionMode::kSync;
};

/// What the factory must provide for a spec: the tuner and the parameter
/// space it suggests over (needed for journal replay and validation).
struct SessionBackend {
  std::unique_ptr<Tuner> tuner;
  space::SpacePtr space;
};

/// Builds the backend for a spec. Called with a registry stripe locked, so
/// it should be reasonably quick and must be thread-safe across concurrent
/// calls for different sessions. Throws hpb::Error on unknown methods /
/// datasets; the error propagates to the creating verb.
using SessionFactory = std::function<SessionBackend(const SessionSpec&)>;

struct SessionManagerConfig {
  /// Directory for per-session write-ahead journals
  /// (`<journal_dir>/<name>.hpbj`). Created (mkdir -p) by the constructor.
  /// Empty disables journaling — sessions then live only in memory and are
  /// never evicted (there would be nothing to resume from).
  std::string journal_dir{};
  /// Soft cap on resident (in-memory) sessions across all stripes; each
  /// stripe evicts beyond its share. 0 = unlimited (no eviction).
  std::size_t max_resident = 0;
  /// Lock stripes for the registry. More stripes, more verb parallelism.
  std::size_t num_stripes = 16;
  /// Per-session cap on outstanding async tokens (forwarded to
  /// SessionConfig::max_pending). A suggest that would exceed it is shed
  /// with hpb::OverloadError. 0 = unlimited.
  std::size_t max_pending_per_session = 0;
  /// Cold-start recovery: scan journal_dir in the constructor, adopt every
  /// resumable journal as a cold session and quarantine unreadable ones to
  /// `<name>.hpbj.corrupt` (see recovery()). Disable for tests that stage
  /// corrupt journals after construction.
  bool recover_on_start = true;
  /// Manager-level observability: `session.*` spans and `manager.*`
  /// counters. Per-session engine metrics go to each session's private
  /// registry, not here.
  obs::Recorder recorder{};
};

/// What the cold-start scan of the journal directory found. A restarted
/// daemon forgets nothing: every unfinalized journal is a session a client
/// can touch (suggest/status/observe) and get the exact continuation the
/// crashed process would have produced.
struct RecoveryReport {
  /// Resumable sessions adopted cold: the next verb naming one replays its
  /// journal and continues bitwise-identically.
  std::vector<std::string> adopted;
  /// Finalized journals (finished or closed runs) left on disk; their
  /// names stay reserved.
  std::vector<std::string> finished;
  /// Unreadable journals moved aside to `<name>.hpbj.corrupt` so the name
  /// is usable again and the evidence survives for inspection.
  std::vector<std::string> quarantined;
};

/// Snapshot of the manager's survivability counters, served by the wire
/// `health` verb.
struct ManagerHealth {
  std::size_t resident = 0;
  std::size_t degraded = 0;
  std::uint64_t created = 0;
  std::uint64_t evicted = 0;
  std::uint64_t resumed = 0;
  std::uint64_t closed = 0;
  std::uint64_t adopted = 0;      // cold sessions found at startup
  std::uint64_t quarantined = 0;  // lifetime, startup scan + resume-time
};

class SessionManager {
 public:
  SessionManager(SessionFactory factory, SessionManagerConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Create a fresh session. Throws if the name is invalid, already
  /// resident, or already has a journal on disk (finished or not).
  void create(const SessionSpec& spec);

  /// Ask the named session for up to k configurations. Resumes the
  /// session from its journal when it was evicted.
  [[nodiscard]] std::vector<space::Configuration> suggest(
      const std::string& name, std::size_t k);

  /// Deliver the evaluated round (suggestion order). Returns the
  /// post-observe status snapshot.
  SessionStatus observe(const std::string& name,
                        std::vector<Observation> observations);

  /// Async sessions: ask for up to k tokenized configurations without
  /// waiting on outstanding evaluations.
  [[nodiscard]] std::vector<AsyncSuggestion> suggest_async(
      const std::string& name, std::size_t k);

  /// One suggest over either mode, dispatched on the session's own mode
  /// under a single lease (the wire layer does not know a name's mode).
  /// Sync sessions fill `configs`; async sessions fill `suggestions`.
  struct SuggestOutcome {
    bool async = false;
    std::vector<space::Configuration> configs;
    std::vector<AsyncSuggestion> suggestions;
  };
  [[nodiscard]] SuggestOutcome suggest_any(const std::string& name,
                                           std::size_t k);

  /// Async sessions: deliver completed evaluations by token, in any order
  /// and any subset. Returns the post-observe status snapshot.
  SessionStatus observe_async(const std::string& name,
                              std::span<const AsyncResult> results);

  /// Release work that will never be observed. Async sessions: abandon the
  /// given tokens (empty = every outstanding token). Sync sessions: cancel
  /// the in-flight round whole (tokens must be empty). Returns the number
  /// of suggestions released.
  std::size_t cancel(const std::string& name,
                     std::span<const std::uint64_t> tokens = {});

  [[nodiscard]] SessionStatus status(const std::string& name);

  /// Finalize the session's journal ("closed") and drop it. Throws when
  /// the name is unknown, the session already closed, or a round is in
  /// flight. A closed name cannot be re-created while its finalized
  /// journal remains on disk.
  void close(const std::string& name);

  /// Force-evict one session (test hook; production eviction is LRU).
  /// Returns false when the session is missing, busy, journal-less, or has
  /// a round in flight.
  bool evict(const std::string& name);

  /// The cold-start scan's findings (empty when recover_on_start was off
  /// or journaling is disabled).
  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }

  /// Survivability counters for the `health` verb.
  [[nodiscard]] ManagerHealth health() const;

  /// Resident sessions currently degraded (journal append failed).
  [[nodiscard]] std::size_t degraded_count() const;

  /// Drain support: take a durability checkpoint of every resident idle
  /// session (journals are fsync'd per verb, so this verifies rather than
  /// flushes) and emit a `manager.checkpoint` span per session.
  /// Returns the number of sessions checkpointed.
  std::size_t checkpoint_all();

  /// Deterministic JSON snapshot of the named session's private metrics.
  [[nodiscard]] std::string session_metrics_json(const std::string& name);

  /// Resident (in-memory) sessions right now.
  [[nodiscard]] std::size_t resident_count() const;

  /// Lifetime counters (also exported as manager.* metrics when a
  /// registry is attached).
  [[nodiscard]] std::uint64_t created_count() const noexcept;
  [[nodiscard]] std::uint64_t evicted_count() const noexcept;
  [[nodiscard]] std::uint64_t resumed_count() const noexcept;
  [[nodiscard]] std::uint64_t closed_count() const noexcept;

  [[nodiscard]] const SessionManagerConfig& config() const noexcept {
    return config_;
  }

  /// Journal path for a (valid) session name; empty when journaling is
  /// disabled.
  [[nodiscard]] std::string journal_path(const std::string& name) const;

 private:
  struct Entry {
    SessionSpec spec;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<Session> session;
    std::mutex op;          // serializes verbs on this session
    std::size_t in_use = 0;  // guarded by the stripe mutex
    std::uint64_t tick = 0;  // LRU stamp, guarded by the stripe mutex
  };
  struct Stripe {
    mutable std::mutex m;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
  };
  /// RAII in-use pin: releases the entry (and runs LRU eviction) on scope
  /// exit even when the verb throws.
  class Lease;

  [[nodiscard]] Stripe& stripe_for(const std::string& name);
  [[nodiscard]] const Stripe& stripe_for(const std::string& name) const;

  /// Find (or resume from journal) the entry; bumps in_use under the
  /// stripe lock. Throws for unknown / closed sessions.
  [[nodiscard]] std::shared_ptr<Entry> acquire(const std::string& name);

  /// Drop the in-use pin, stamp the LRU tick, and evict beyond capacity.
  void release(Stripe& stripe, const std::shared_ptr<Entry>& entry);

  /// Evict LRU idle sessions while the stripe exceeds its share of
  /// max_resident. Caller holds the stripe mutex.
  void evict_over_capacity(Stripe& stripe);

  /// Rebuild an evicted session from its journal. Caller holds the stripe
  /// mutex and pins (in_use) the returned entry itself.
  [[nodiscard]] std::shared_ptr<Entry> resume_from_journal(
      Stripe& stripe, const std::string& name);

  [[nodiscard]] std::shared_ptr<Entry> make_entry(const SessionSpec& spec,
                                                  SessionBackend backend,
                                                  std::unique_ptr<JournalWriter>
                                                      journal);

  void emit_span(std::string_view name, const std::string& session_name);
  void count(const char* counter);

  /// Startup scan of journal_dir: adopt / record / quarantine every
  /// `*.hpbj` entry (see RecoveryReport).
  void recover();

  /// Move an unreadable journal to `<path>.corrupt` and record it. Returns
  /// the quarantine path.
  std::string quarantine_journal(const std::string& name,
                                 const std::string& path);

  SessionFactory factory_;
  SessionManagerConfig config_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t stripe_capacity_ = 0;  // 0 = unlimited
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> resumed_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  RecoveryReport recovery_;  // written once, in the constructor
};

/// Validate a session name ([A-Za-z0-9._-]{1,128}, not "." or "..") —
/// throws hpb::Error otherwise. Exposed for the wire layer's validation.
void validate_session_name(const std::string& name);

}  // namespace hpb::core
