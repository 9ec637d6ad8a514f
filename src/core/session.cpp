#include "core/session.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace hpb::core {

namespace {

void validate_config(const SessionConfig& config) {
  HPB_REQUIRE(config.batch_size > 0, "Session: batch_size must be positive");
  HPB_REQUIRE(config.eval_deadline.count() >= 0,
              "Session: eval_deadline must be >= 0");
  HPB_REQUIRE(config.stop.min_relative_improvement >= 0.0,
              "Session: min_relative_improvement must be >= 0");
}

}  // namespace

Session::Session(Tuner& tuner, SessionConfig config, JournalWriter* journal)
    : config_(std::move(config)), tuner_(&tuner), journal_(journal) {
  validate_config(config_);
}

Session::Session(std::unique_ptr<Tuner> tuner, SessionConfig config,
                 std::unique_ptr<JournalWriter> journal)
    : config_(std::move(config)),
      tuner_(tuner.get()),
      journal_(journal.get()),
      owned_tuner_(std::move(tuner)),
      owned_journal_(std::move(journal)) {
  HPB_REQUIRE(tuner_ != nullptr, "Session: tuner must not be null");
  validate_config(config_);
  // An owned tuner lives exactly as long as the session, so the recorder
  // pointer (into config_) can never dangle for it.
  if (config_.recorder.active()) {
    tuner_->set_recorder(&config_.recorder);
  }
}

void Session::require_open(const char* verb) const {
  HPB_REQUIRE(!finished_, std::string("Session::") + verb +
                              ": session is closed");
  // Degraded = the journal can no longer be appended (disk fault), so any
  // further mutation would silently diverge from the durable state. The
  // session stays readable (status/checkpoint) and resumable after a
  // restart; only mutations are refused.
  HPB_REQUIRE(!degraded_,
              std::string("Session::") + verb +
                  ": session is degraded (journal append failed: " +
                  degraded_reason_ +
                  "); status and checkpoint remain available, restart the "
                  "daemon with a healthy disk to resume from the journal");
}

template <typename F>
void Session::journal_op(const char* what, F&& op) {
  try {
    op();
  } catch (const IoError& e) {
    degraded_ = true;
    degraded_reason_ = e.what();
    throw Error(std::string("session journal ") + what + " failed: " +
                e.what() + "; the session is now degraded (read-only) — "
                "its durable journal prefix is still valid for resume");
  }
}

obs::Counter& Session::counter(obs::Counter*& handle, const char* name) {
  if (handle == nullptr) {
    handle = &config_.recorder.metrics->counter(name);
  }
  return *handle;
}

obs::Gauge& Session::gauge(obs::Gauge*& handle, const char* name) {
  if (handle == nullptr) {
    handle = &config_.recorder.metrics->gauge(name);
  }
  return *handle;
}

obs::Histogram& Session::latency_ms(obs::Histogram*& handle,
                                    const char* name) {
  if (handle == nullptr) {
    handle = &config_.recorder.metrics->histogram(
        name, obs::default_latency_buckets_ms());
  }
  return *handle;
}

void Session::require_mode(SessionMode mode, const char* verb) const {
  HPB_REQUIRE(config_.mode == mode,
              std::string("Session::") + verb +
                  (mode == SessionMode::kAsync
                       ? ": this is a synchronous session (use the round "
                         "verbs suggest/observe)"
                       : ": this is an asynchronous session (use the token "
                         "verbs suggest_async/observe_async/cancel_async)"));
}

void Session::reserve(std::size_t n) {
  result_.history.reserve(n);
  result_.best_so_far.reserve(n);
}

std::vector<space::Configuration> Session::suggest(std::size_t k) {
  require_open("suggest");
  require_mode(SessionMode::kSync, "suggest");
  HPB_REQUIRE(k > 0, "Session::suggest: k must be positive");
  HPB_REQUIRE(!round_in_flight_,
              "Session::suggest: a round of " +
                  std::to_string(pending_.size()) +
                  " suggestions is already in flight; observe it first");
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  // The round span id is allocated before any child span so children can
  // point at it; the span record itself is emitted from observe(), when
  // its duration is known.
  round_id_ = 0;
  round_start_ = 0;
  if (tracing) {
    round_id_ = rec.trace->next_id();
    round_start_ = rec.now_ns();
  }
  const std::uint64_t suggest_start = tracing ? rec.now_ns() : 0;
  std::vector<space::Configuration> batch = tuner_->suggest_batch(k);
  HPB_REQUIRE(!batch.empty(), "Session: tuner returned an empty batch");
  HPB_REQUIRE(batch.size() <= k,
              "Session: tuner returned more configurations than asked");
  if (tracing) {
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("requested", k),
        obs::TraceAttr::uint("actual", batch.size())};
    rec.trace->emit({.name = "suggest",
                     .id = rec.trace->next_id(),
                     .parent = round_id_,
                     .start_ns = suggest_start,
                     .end_ns = rec.now_ns(),
                     .attrs = attrs});
  }
  // The round marker goes out before evaluation starts: a crash mid-round
  // leaves an incomplete round the reader drops and re-evaluates. It is not
  // synced (alone it recovers nothing; the observe's fsync makes it durable
  // with its records), but writing it still degrades the session on a
  // failing disk before the client spends time evaluating the round.
  if (journal_ != nullptr) {
    journal_op("begin_round",
               [&] { journal_->begin_round(k, batch.size()); });
  }
  pending_ = batch;
  round_requested_ = k;
  round_in_flight_ = true;
  return batch;
}

void Session::observe(std::vector<Observation> observations,
                      std::span<const EvalMeter> meters) {
  require_open("observe");
  require_mode(SessionMode::kSync, "observe");
  HPB_REQUIRE(round_in_flight_,
              "Session::observe: no round is in flight; call suggest first");
  HPB_REQUIRE(observations.size() == pending_.size(),
              "Session::observe: the in-flight round has " +
                  std::to_string(pending_.size()) + " suggestions but " +
                  std::to_string(observations.size()) +
                  " results were delivered");
  HPB_REQUIRE(meters.empty() || meters.size() == observations.size(),
              "Session::observe: meters must be absent or one per result");
  for (std::size_t i = 0; i < observations.size(); ++i) {
    HPB_REQUIRE(
        observations[i].config.values() == pending_[i].values(),
        "Session::observe: result " + std::to_string(i) +
            " does not match the suggested configuration (results must be "
            "delivered in suggestion order; was this configuration ever "
            "suggested?)");
    HPB_REQUIRE(!observations[i].ok() || std::isfinite(observations[i].y),
                "Session::observe: a successful observation must carry a "
                "finite value");
  }

  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  // Evaluation spans and meters are reduced in suggestion order on the
  // caller's thread: trace files stay deterministic under a fake clock
  // even though the evaluations themselves may have run on pool workers.
  std::size_t failed = 0;
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    if (!observations[i].ok()) {
      ++failed;
    }
    if (!meters.empty()) {
      retries += meters[i].attempts - 1;
    }
    // Evaluate spans describe *local* evaluations; a remote client that
    // evaluated elsewhere delivers no meters and gets no evaluate spans.
    if (tracing && !meters.empty()) {
      std::vector<obs::TraceAttr> attrs;
      attrs.reserve(4);
      attrs.push_back(obs::TraceAttr::uint("index", i));
      attrs.push_back(obs::TraceAttr::str(
          "status", tabular::status_name(observations[i].status)));
      if (observations[i].ok()) {
        attrs.push_back(obs::TraceAttr::num("value", observations[i].y));
      }
      attrs.push_back(obs::TraceAttr::uint("attempts", meters[i].attempts));
      rec.trace->emit({.name = "evaluate",
                       .id = rec.trace->next_id(),
                       .parent = round_id_,
                       .start_ns = meters[i].start_ns,
                       .end_ns = meters[i].end_ns,
                       .attrs = attrs});
    }
  }
  if (rec.metrics != nullptr) {
    counter(meters_.rounds, "engine.rounds").add(1);
    counter(meters_.evaluations, "engine.evaluations")
        .add(observations.size());
    counter(meters_.failures, "engine.failures").add(failed);
    counter(meters_.eval_retries, "engine.eval_retries").add(retries);
    obs::Histogram& eval_ms = latency_ms(meters_.eval_ms, "engine.eval_ms");
    for (const EvalMeter& m : meters) {
      eval_ms.record(static_cast<double>(m.end_ns - m.start_ns) * 1e-6);
    }
  }
  // Records hit the disk, in one write and one fsync, before the tuner sees
  // any of them: on-disk state always leads in-memory state, so replay can
  // reconstruct the tuner exactly.
  if (journal_ != nullptr) {
    journal_op("append_observations",
               [&] { journal_->append_observations(observations); });
    if (tracing) {
      for (std::size_t i = 0; i < observations.size(); ++i) {
        const std::uint64_t ts = rec.now_ns();
        const obs::TraceAttr attrs[] = {obs::TraceAttr::uint("index", i)};
        rec.trace->emit({.name = "journal.append",
                         .id = rec.trace->next_id(),
                         .parent = round_id_,
                         .start_ns = ts,
                         .end_ns = ts,
                         .attrs = attrs});
      }
    }
  }
  const std::uint64_t observe_start = tracing ? rec.now_ns() : 0;
  tuner_->observe_batch(observations);
  if (tracing) {
    rec.trace->emit({.name = "observe",
                     .id = rec.trace->next_id(),
                     .parent = round_id_,
                     .start_ns = observe_start,
                     .end_ns = rec.now_ns(),
                     .attrs = {}});
    const std::uint64_t round_end = rec.now_ns();
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("round", round_index_),
        obs::TraceAttr::uint("requested", round_requested_),
        obs::TraceAttr::uint("actual", observations.size()),
        obs::TraceAttr::uint("failed", failed)};
    rec.trace->emit({.name = "round",
                     .id = round_id_,
                     .parent = 0,
                     .start_ns = round_start_,
                     .end_ns = round_end,
                     .attrs = attrs});
  }
  if (rec.metrics != nullptr && !meters.empty()) {
    // Round wall time: the traced span when available, else the envelope
    // of the evaluation meters (metrics-only runs make no round-level
    // clock reads).
    std::uint64_t start = meters.front().start_ns;
    std::uint64_t end = meters.front().end_ns;
    for (const EvalMeter& m : meters) {
      start = std::min(start, m.start_ns);
      end = std::max(end, m.end_ns);
    }
    if (tracing) {
      start = round_start_;
      end = rec.now_ns();
    }
    latency_ms(meters_.round_ms, "engine.round_ms")
        .record(static_cast<double>(end - start) * 1e-6);
  }
  for (Observation& o : observations) {
    apply(std::move(o));
  }
  round_in_flight_ = false;
  pending_.clear();
  ++round_index_;
}

std::size_t Session::cancel_round() {
  require_open("cancel");
  require_mode(SessionMode::kSync, "cancel");
  HPB_REQUIRE(round_in_flight_,
              "Session::cancel: no round is in flight; nothing to cancel");
  // Marker first: once the abandon line is durable, a crash between here
  // and the tuner updates replays to the same released state.
  if (journal_ != nullptr) {
    journal_op("abandon_round", [&] { journal_->abandon_round(); });
  }
  const std::size_t released = pending_.size();
  for (const space::Configuration& c : pending_) {
    tuner_->abandon(c);
  }
  const obs::Recorder& rec = config_.recorder;
  if (rec.tracing()) {
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("round", round_index_),
        obs::TraceAttr::uint("released", released)};
    rec.trace->emit({.name = "cancel_round",
                     .id = rec.trace->next_id(),
                     .parent = round_id_,
                     .start_ns = round_start_,
                     .end_ns = rec.now_ns(),
                     .attrs = attrs});
  }
  if (rec.metrics != nullptr) {
    counter(meters_.cancelled_rounds, "engine.cancelled_rounds").add(1);
  }
  round_in_flight_ = false;
  pending_.clear();
  ++round_index_;
  return released;
}

std::vector<AsyncSuggestion> Session::suggest_async(std::size_t k) {
  require_open("suggest");
  require_mode(SessionMode::kAsync, "suggest_async");
  HPB_REQUIRE(k > 0, "Session::suggest_async: k must be positive");
  // Shed before any state changes: an unbounded outstanding set is how a
  // confused client (suggest in a loop, observe never) runs the daemon
  // out of memory and the TPE fit out of usefulness.
  if (config_.max_pending > 0 &&
      outstanding_.size() + k > config_.max_pending) {
    throw OverloadError(
        "Session::suggest_async: " + std::to_string(outstanding_.size()) +
        " tokens are already outstanding and " + std::to_string(k) +
        " more would exceed the per-session pending cap of " +
        std::to_string(config_.max_pending) +
        "; observe or cancel outstanding tokens first");
  }
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  const std::uint64_t start = tracing ? rec.now_ns() : 0;
  std::vector<space::Configuration> batch = tuner_->suggest_batch(k);
  HPB_REQUIRE(!batch.empty(), "Session: tuner returned an empty batch");
  HPB_REQUIRE(batch.size() <= k,
              "Session: tuner returned more configurations than asked");
  // Write-ahead: the ask line (tokens + configurations) is durable before
  // any token escapes to a client, so the journal's outstanding set always
  // covers every token a client could hold.
  if (journal_ != nullptr) {
    journal_op("begin_ask",
               [&] { journal_->begin_ask(k, next_token_, batch); });
  }
  std::vector<AsyncSuggestion> suggestions;
  suggestions.reserve(batch.size());
  for (space::Configuration& c : batch) {
    outstanding_.emplace(next_token_, c);
    suggestions.push_back({next_token_, std::move(c)});
    ++next_token_;
  }
  if (tracing) {
    const obs::TraceAttr attrs[] = {
        obs::TraceAttr::uint("requested", k),
        obs::TraceAttr::uint("actual", suggestions.size()),
        obs::TraceAttr::uint("first_token", suggestions.front().token),
        obs::TraceAttr::uint("outstanding", outstanding_.size())};
    rec.trace->emit({.name = "ask",
                     .id = rec.trace->next_id(),
                     .parent = 0,
                     .start_ns = start,
                     .end_ns = rec.now_ns(),
                     .attrs = attrs});
  }
  if (rec.metrics != nullptr) {
    counter(meters_.asks, "engine.asks").add(1);
    gauge(meters_.outstanding, "engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
  ++round_index_;
  return suggestions;
}

void Session::observe_async(std::span<const AsyncResult> results) {
  require_open("observe");
  require_mode(SessionMode::kAsync, "observe_async");
  HPB_REQUIRE(!results.empty(),
              "Session::observe_async: no results delivered");
  // Validate everything before touching any state: a bad call (foreign or
  // duplicate token, non-finite value) leaves the session unchanged.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AsyncResult& r = results[i];
    HPB_REQUIRE(outstanding_.contains(r.token),
                "Session::observe_async: token " + std::to_string(r.token) +
                    " is not outstanding (already resolved, cancelled, or "
                    "never issued)");
    for (std::size_t j = 0; j < i; ++j) {
      HPB_REQUIRE(results[j].token != r.token,
                  "Session::observe_async: token " +
                      std::to_string(r.token) +
                      " appears twice in one delivery");
    }
    HPB_REQUIRE(r.status != tabular::EvalStatus::kOk || std::isfinite(r.y),
                "Session::observe_async: a successful observation must "
                "carry a finite value");
  }
  std::vector<std::uint64_t> tokens;
  std::vector<Observation> delivered;
  tokens.reserve(results.size());
  delivered.reserve(results.size());
  for (const AsyncResult& r : results) {
    Observation o;
    o.config = outstanding_.find(r.token)->second;
    o.status = r.status;
    o.y = r.ok() ? r.y : std::numeric_limits<double>::quiet_NaN();
    tokens.push_back(r.token);
    delivered.push_back(std::move(o));
  }
  // Disk before tuner: the whole delivery is durable, in one write and one
  // fsync, before the tuner sees any of it, and replay re-applies the
  // completions in the exact journaled order.
  if (journal_ != nullptr) {
    journal_op("append_async_observations", [&] {
      journal_->append_async_observations(tokens, delivered);
    });
  }
  const obs::Recorder& rec = config_.recorder;
  const bool tracing = rec.tracing();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const AsyncResult& r = results[i];
    Observation& o = delivered[i];
    const std::uint64_t start = tracing ? rec.now_ns() : 0;
    if (o.ok()) {
      tuner_->observe(o.config, o.y);
    } else {
      ++failed;
      tuner_->observe_failure(o.config, o.status);
    }
    if (tracing) {
      const obs::TraceAttr attrs[] = {
          obs::TraceAttr::uint("token", r.token),
          obs::TraceAttr::str("status", tabular::status_name(o.status))};
      rec.trace->emit({.name = "observe_async",
                       .id = rec.trace->next_id(),
                       .parent = 0,
                       .start_ns = start,
                       .end_ns = rec.now_ns(),
                       .attrs = attrs});
    }
    outstanding_.erase(r.token);
    apply(std::move(o));
  }
  if (rec.metrics != nullptr) {
    counter(meters_.evaluations, "engine.evaluations").add(results.size());
    counter(meters_.failures, "engine.failures").add(failed);
    gauge(meters_.outstanding, "engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
}

std::size_t Session::cancel_async(std::span<const std::uint64_t> tokens) {
  require_open("cancel");
  require_mode(SessionMode::kAsync, "cancel_async");
  std::vector<std::uint64_t> to_cancel;
  if (tokens.empty()) {
    // Cancel-all: the un-wedge verb for a client that lost track of its
    // tokens (or an operator releasing a dead client's work).
    to_cancel.reserve(outstanding_.size());
    for (const auto& [token, config] : outstanding_) {
      to_cancel.push_back(token);
    }
  } else {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      HPB_REQUIRE(outstanding_.contains(tokens[i]),
                  "Session::cancel_async: token " +
                      std::to_string(tokens[i]) +
                      " is not outstanding (already resolved, cancelled, or "
                      "never issued)");
      for (std::size_t j = 0; j < i; ++j) {
        HPB_REQUIRE(tokens[j] != tokens[i],
                    "Session::cancel_async: token " +
                        std::to_string(tokens[i]) +
                        " appears twice in one cancellation");
      }
    }
    to_cancel.assign(tokens.begin(), tokens.end());
  }
  if (journal_ != nullptr && !to_cancel.empty()) {
    journal_op("append_cancels", [&] { journal_->append_cancels(to_cancel); });
  }
  for (const std::uint64_t token : to_cancel) {
    const auto it = outstanding_.find(token);
    tuner_->abandon(it->second);
    outstanding_.erase(it);
  }
  const obs::Recorder& rec = config_.recorder;
  if (rec.metrics != nullptr && !to_cancel.empty()) {
    counter(meters_.cancelled_tokens, "engine.cancelled_tokens")
        .add(to_cancel.size());
    gauge(meters_.outstanding, "engine.outstanding")
        .set(static_cast<double>(outstanding_.size()));
  }
  return to_cancel.size();
}

void Session::replay(std::span<const Observation> replayed,
                     std::size_t rounds) {
  require_open("replay");
  HPB_REQUIRE(!round_in_flight_,
              "Session::replay: a round is in flight; replay only precedes "
              "fresh rounds");
  for (const Observation& o : replayed) {
    apply(o);
  }
  round_index_ += rounds;
}

void Session::replay_async(const AsyncReplayResult& replayed) {
  require_open("replay");
  require_mode(SessionMode::kAsync, "replay_async");
  HPB_REQUIRE(outstanding_.empty() && next_token_ == 1,
              "Session::replay_async: replay only precedes fresh asks");
  for (const Observation& o : replayed.observations) {
    apply(o);
  }
  for (const auto& [token, config] : replayed.outstanding) {
    outstanding_.emplace(token, config);
  }
  next_token_ = replayed.next_token;
  round_index_ += replayed.asks;
}

void Session::apply(Observation o) {
  // A failed evaluation never improves and can never hit the target; a
  // first success "improves" by definition.
  const bool first_success =
      o.ok() && result_.history.size() == result_.num_failed;
  const bool improved =
      o.ok() && (first_success ||
                 o.y < result_.best_value -
                           config_.stop.min_relative_improvement *
                               std::abs(result_.best_value));
  if (o.ok()) {
    if (first_success || o.y < result_.best_value) {
      result_.best_value = o.y;
      result_.best_config = o.config;
    }
  } else {
    ++result_.num_failed;
  }
  result_.history.push_back(std::move(o));
  result_.best_so_far.push_back(result_.best_value);
  if (config_.recorder.metrics != nullptr &&
      result_.best_value != std::numeric_limits<double>::infinity()) {
    gauge(meters_.best_value, "engine.best_value").set(result_.best_value);
  }

  // Stopping conditions are evaluated per observation (stagnation patience
  // counts within a batch too); once a condition fires the rest of the
  // round is still recorded above — those evaluations already happened.
  if (stopped_) {
    return;
  }
  if (result_.best_value <= config_.stop.target_value) {
    reason_ = StopReason::kTargetReached;
    stopped_ = true;
    return;
  }
  since_improvement_ = improved ? 0 : since_improvement_ + 1;
  if (config_.stop.stagnation_patience > 0 &&
      since_improvement_ >= config_.stop.stagnation_patience) {
    reason_ = StopReason::kStagnation;
    stopped_ = true;
  }
}

SessionStatus Session::status() const {
  SessionStatus s;
  s.evaluations = result_.history.size();
  s.num_failed = result_.num_failed;
  s.rounds = round_index_;
  if (config_.mode == SessionMode::kAsync) {
    s.async = true;
    s.pending = outstanding_.size();
    s.pending_tokens.reserve(outstanding_.size());
    for (const auto& [token, config] : outstanding_) {
      s.pending_tokens.push_back(token);
    }
  } else {
    s.pending = round_in_flight_ ? pending_.size() : 0;
  }
  s.best_value = result_.best_value;
  s.best_config = result_.best_config.values();
  s.stopped = stopped_;
  s.reason = reason_;
  s.finished = finished_;
  s.degraded = degraded_;
  s.degraded_reason = degraded_reason_;
  return s;
}

SessionCheckpoint Session::checkpoint() const {
  SessionCheckpoint c;
  c.journaled = journal_ != nullptr;
  if (journal_ != nullptr) {
    c.journal_path = journal_->path();
  }
  c.rounds = round_index_;
  c.observations = result_.history.size();
  c.round_in_flight = round_in_flight_;
  return c;
}

void Session::finish(StopReason reason) {
  require_open("finish");
  // kInterrupted deliberately leaves the journal unfinalized: an
  // interrupted session is exactly what --resume expects to find.
  if (journal_ != nullptr && reason != StopReason::kInterrupted) {
    journal_op("finalize",
               [&] { journal_->finalize(stop_reason_name(reason)); });
  }
  stopped_ = true;
  reason_ = reason;
  finished_ = reason != StopReason::kInterrupted;
}

void Session::close() {
  require_open("close");
  HPB_REQUIRE(!round_in_flight_,
              "Session::close: a round of " + std::to_string(pending_.size()) +
                  " suggestions is in flight; observe it (or cancel it) "
                  "before closing");
  HPB_REQUIRE(outstanding_.empty(),
              "Session::close: " + std::to_string(outstanding_.size()) +
                  " tokens are outstanding; observe or cancel them before "
                  "closing");
  if (journal_ != nullptr) {
    journal_op("finalize", [&] { journal_->finalize("closed"); });
  }
  finished_ = true;
}

}  // namespace hpb::core
