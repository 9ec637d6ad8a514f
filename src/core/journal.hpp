// Write-ahead observation journal: crash-tolerant persistence for tuning
// sessions.
//
// A session journals each verb with one write(2) and at most one fsync
// before the tuner sees its records (a sync round marker is synced with
// its round's records), so the on-disk state is always a valid prefix of
// the run: kill -9 the process (or crash the OS) at any byte and what
// survives is the header plus zero or more complete verbs (a torn tail — a
// partial line or a half-written round — is detected and dropped by the
// reader). Resume is replay-based: tuners are deterministic given
// their suggest/observe call sequence, so driving a fresh tuner through the
// journal — each journaled batch entered as the suggest that produced it,
// observations answered from the journal instead of re-evaluating the
// objective — reconstructs the exact in-memory state (including RNG
// position and pending-batch tracking) the session had when it died. The
// continued run is therefore bitwise identical to an uninterrupted one.
//
// One event list, one replay. The two session modes keep their two body
// formats below, but read_journal turns either into one verb-ordered list
// of ask / observe / cancel events, with tokens numbered from 1 across
// asks. A sync round is an ask behind a barrier: its ask, then one observe
// of the whole round or one cancel of all its tokens. replay_journal walks
// that list for both modes.
//
// A batch is entered the cheap way when the tuner allows it: a tuner whose
// suggestion was fixed by state the journal already holds adopts the
// journaled batch without refitting (Tuner::adopt_batch; HiPerBOt does so
// under pooled Ranking past its initial design, where it draws nothing from
// the RNG). Every other batch is re-suggested and compared bit for bit, and
// so is the last one always, so a wrong method, seed, or dataset still
// fails the resume. A HiPerBOt resume thus costs one journal read and one
// fit, not one fit per journaled round.
//
// Format (line-oriented text; doubles as 16-hex-digit IEEE-754 bit
// patterns so values round-trip exactly):
//
//   hpbj v1
//   meta <key> <value>            # session parameters, see JournalHeader
//   round <index> <requested> <actual>
//   obs <status> <y-bits> <v0-bits> <v1-bits> ...
//   ...                           # exactly <actual> obs lines per round
//   end <reason>                  # present only when the session completed
//
// The round marker is written after suggest_batch (so <actual> is known)
// and before evaluation; its records follow once the round is evaluated. A
// round with fewer than <actual> records is incomplete and is dropped on
// resume — its evaluations are re-run, which is safe because the tuner
// state that produced them is reconstructed exactly. The marker is
// therefore not synced on its own: alone it recovers nothing, and the
// fsync of its records makes it durable with them. A round marker may
// instead be followed by a single `abandon` line: the round was cancelled
// whole (client died mid-round), replay re-suggests it and abandons every
// member, and the session keeps going instead of wedging. The reader
// numbers a round's members with the next tokens, as the session does.
//
// Asynchronous sessions (`meta mode async` in the header) journal a
// different, event-oriented body — self-contained lines, one write and one
// fsync per verb, in verb order:
//
//   ask <requested> <first_token> <actual> <cfg-bits ...>
//   aobs <token> <status> <y-bits>
//   acancel <token>
//
// `ask` lines carry the suggested configurations (actual * num_params
// 16-hex-digit values, configuration-major) and assign the consecutive
// tokens first_token .. first_token+actual-1; `aobs`/`acancel` resolve one
// token each in completion order (an observe or cancel verb of several
// tokens writes one line per token). The ask line is durable *before* its
// tokens are returned to any client, so a replayed journal's
// outstanding-token set always covers every token a client could have
// seen; completions arrive in any order and replay re-applies them in the
// exact journaled order, which is what makes an async resume
// bitwise-deterministic.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tuner.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Session parameters stored in the journal header — everything needed to
/// reconstruct the run besides the dataset itself. `dataset` and
/// `num_params` guard against resuming over the wrong data.
struct JournalHeader {
  std::string method;
  std::string dataset;
  /// Warm-start CSV replayed into the tuner before the session, if any.
  std::string warm_start;
  /// JSON-lines trace file the session wrote, if any. A resumed session
  /// re-opens this file in append mode and continues its span ids, so the
  /// stitched trace reads as one uninterrupted session.
  std::string trace_path;
  std::uint64_t seed = 0;
  std::size_t batch_size = 1;
  std::size_t num_params = 0;
  std::size_t max_evaluations = 0;
  std::size_t stagnation_patience = 0;
  double target_value = -std::numeric_limits<double>::infinity();
  double fail_rate = 0.0;
  double crash_rate = 0.0;
  double hang_rate = 0.0;
  /// Asynchronous session: the journal body is ask/aobs/acancel event
  /// lines instead of round/obs blocks. Absent in older journals (= sync).
  bool async = false;
};

/// One evaluation result, identified by the token its suggestion was
/// issued under: the unit of an async observe, and how the journal names
/// each member of a sync round.
struct AsyncResult {
  std::uint64_t token = 0;
  tabular::EvalStatus status = tabular::EvalStatus::kOk;
  double y = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return status == tabular::EvalStatus::kOk;
  }
};

/// One journaled verb, in journal (= verb) order. Both bodies read into
/// this shape: an async line is one event, and a sync round is an ask
/// followed by one observe event for the whole round, or, when the round
/// was abandoned, by one cancel event of all its tokens. Tokens count from
/// 1 across asks in both modes.
struct JournalEvent {
  enum class Kind { kAsk, kObserve, kCancel };
  Kind kind = Kind::kAsk;
  /// kAsk: the batch size requested and returned, and one configuration
  /// per token — none for an abandoned sync round, whose configurations
  /// were never journaled. Each journaled configuration lives here only.
  std::size_t requested = 0;
  std::vector<space::Configuration> configs;
  /// kAsk and kCancel: the `actual` consecutive tokens from `first_token`
  /// that the ask issued or the cancel releases (one for an async cancel,
  /// the whole round for an abandoned sync one).
  std::size_t actual = 0;
  std::uint64_t first_token = 0;
  /// kObserve: the results in delivery order (a sync round's in suggestion
  /// order); replay resolves each token through the ask that issued it.
  std::vector<AsyncResult> results;
};

/// A validated journal: header, every complete verb, and whether the
/// session finished. `valid_bytes` is the length of the durable prefix
/// (excluding any torn tail and the end marker); appending resumes there.
struct JournalContents {
  JournalHeader header;
  std::vector<JournalEvent> events;
  bool finalized = false;
  std::string finish_reason;
  std::uint64_t valid_bytes = 0;

  [[nodiscard]] std::size_t num_observations() const noexcept {
    std::size_t n = 0;
    for (const JournalEvent& e : events) {
      n += e.results.size();
    }
    return n;
  }
  /// Ask events: a sync journal's rounds, observed and abandoned.
  [[nodiscard]] std::size_t num_asks() const noexcept {
    std::size_t n = 0;
    for (const JournalEvent& e : events) {
      n += e.kind == JournalEvent::Kind::kAsk ? 1 : 0;
    }
    return n;
  }
};

/// Appending writer, one call per verb. Each call writes all of the verb's
/// lines with a single write(2), so a crash can only tear the verb's tail
/// — never reorder or interleave records — and fsyncs once before it
/// returns, except begin_round: a round marker alone recovers nothing (the
/// reader drops a round whose records are missing), so it rides along with
/// the fsync of the round's observe or abandon.
class JournalWriter {
 public:
  /// Start a fresh journal at `path` (truncating any existing file) and
  /// durably write the header.
  static JournalWriter create(const std::string& path,
                              const JournalHeader& header);

  /// Continue an interrupted session: truncate `path` to the validated
  /// prefix (dropping a torn tail, an incomplete round, and the end
  /// marker) and position round numbering after the last complete round.
  /// `contents` must be the result of read_journal(path).
  static JournalWriter append(const std::string& path,
                              const JournalContents& contents);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Open a round: the engine requested `requested` configurations and the
  /// tuner returned `actual`. Written before evaluation starts, and not
  /// synced: the round's observations or its abandon marker sync it.
  void begin_round(std::size_t requested, std::size_t actual);

  /// Durably append the evaluated observations of the current round, in
  /// suggestion order.
  void append_observations(std::span<const Observation> observations);

  /// Abandon the round opened by the last begin_round before any of its
  /// observations were appended: the client evaluating it died or cancelled.
  /// Replay re-suggests the round and abandons every member.
  void abandon_round();

  /// Async sessions: durably record a suggest batch *before* its tokens are
  /// returned to the client — `batch.size()` consecutive tokens starting at
  /// `first_token`, with the configurations inline (replay verifies the
  /// re-suggested batch against them bitwise).
  void begin_ask(std::size_t requested, std::uint64_t first_token,
                 std::span<const space::Configuration> batch);

  /// Async sessions: durably record completed evaluations — observation i
  /// resolves tokens[i] — in delivery order, whatever order the tokens were
  /// handed out in.
  void append_async_observations(std::span<const std::uint64_t> tokens,
                                 std::span<const Observation> observations);

  /// Async sessions: durably record the cancellation of these tokens.
  void append_cancels(std::span<const std::uint64_t> tokens);

  /// Durably mark the session complete (e.g. "budget_exhausted"). Not
  /// called on interruption — an unfinalized journal is what resume
  /// expects.
  void finalize(std::string_view reason);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  JournalWriter(std::string path, int fd, std::size_t next_round);

  /// Append `lines` (each '\n'-terminated) with one write(2), then fsync
  /// when `sync`.
  void write_lines(std::string_view lines, bool sync);

  std::string path_;
  int fd_ = -1;
  std::size_t next_round_ = 0;
};

/// Read and validate a journal, stopping at the first torn or malformed
/// line: everything after the last complete round is ignored (and reported
/// via valid_bytes for truncation on append). Throws only when the file is
/// unreadable or the header itself is invalid.
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// What a replay reconstructs: the journaled observations in journal
/// order (for the session's best-so-far and stopping bookkeeping), the
/// still-outstanding tokens in issue order — asks whose completion or
/// cancellation never hit the journal, always none in a sync journal,
/// whose reader drops an incomplete round — the next unissued token, and
/// the asks replayed (the session's round counter). A resumed session
/// re-exposes the outstanding tokens, so a client (or an operator issuing
/// `cancel`) can always resolve them; a torn round never wedges it.
struct ReplayResult {
  /// Replayed from an async journal; Session::replay refuses the other
  /// mode's result.
  bool async = false;
  std::vector<Observation> observations;
  std::vector<std::pair<std::uint64_t, space::Configuration>> outstanding;
  std::uint64_t next_token = 1;
  std::size_t asks = 0;
};

/// Deterministic resume: drive a fresh tuner through the journal's events
/// in the exact journaled order without touching the objective. Each ask's
/// batch is adopted (Tuner::adopt_batch) or re-suggested and compared bit
/// for bit; the last ask with configurations is always re-suggested, and
/// an ask without them (an abandoned sync round) is always re-suggested
/// and its size checked. Each observe event is one observe_batch call — a
/// sync round whole, an async token as a one-element group — answered
/// from the journal; each cancel abandons its tokens' configurations.
/// Throws if the tuner's suggestions diverge from the journal (wrong
/// method, seed, or dataset). The result is ready for Session::replay, or
/// for TuningEngine::run/run_until as the replayed prefix.
[[nodiscard]] ReplayResult replay_journal(Tuner& tuner,
                                          const space::ParameterSpace& space,
                                          const JournalContents& contents);

}  // namespace hpb::core
