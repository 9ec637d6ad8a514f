#include "core/session_manager.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace hpb::core {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

SessionSpec spec_from_header(const std::string& name,
                             const JournalHeader& header) {
  SessionSpec spec;
  spec.name = name;
  spec.method = header.method;
  spec.dataset = header.dataset;
  spec.seed = header.seed;
  spec.batch_size = header.batch_size;
  spec.stop.max_evaluations = header.max_evaluations;
  spec.stop.stagnation_patience = header.stagnation_patience;
  spec.stop.target_value = header.target_value;
  spec.mode = header.async ? SessionMode::kAsync : SessionMode::kSync;
  return spec;
}

JournalHeader header_from_spec(const SessionSpec& spec,
                               std::size_t num_params) {
  JournalHeader header;
  header.method = spec.method;
  header.dataset = spec.dataset;
  header.seed = spec.seed;
  header.batch_size = spec.batch_size;
  header.num_params = num_params;
  header.max_evaluations = spec.stop.max_evaluations;
  header.stagnation_patience = spec.stop.stagnation_patience;
  header.target_value = spec.stop.target_value;
  header.async = spec.mode == SessionMode::kAsync;
  return header;
}

}  // namespace

void validate_session_name(const std::string& name) {
  HPB_REQUIRE(!name.empty() && name.size() <= 128,
              "session name must be 1..128 characters");
  HPB_REQUIRE(name != "." && name != "..",
              "session name must not be '.' or '..'");
  for (char c : name) {
    HPB_REQUIRE(name_char_ok(c),
                "session name '" + name +
                    "' contains invalid characters (allowed: letters, "
                    "digits, '.', '_', '-')");
  }
}

/// Pins an acquired entry for the duration of one verb and releases it —
/// stamping the LRU tick and running capacity eviction — on every exit
/// path, including a throwing verb.
class SessionManager::Lease {
 public:
  Lease(SessionManager& manager, std::shared_ptr<Entry> entry)
      : manager_(manager), entry_(std::move(entry)), lock_(entry_->op) {}
  ~Lease() {
    lock_.unlock();
    manager_.release(manager_.stripe_for(entry_->spec.name), entry_);
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  [[nodiscard]] Entry& entry() noexcept { return *entry_; }
  [[nodiscard]] Session& session() noexcept { return *entry_->session; }

 private:
  SessionManager& manager_;
  std::shared_ptr<Entry> entry_;
  std::unique_lock<std::mutex> lock_;
};

SessionManager::SessionManager(SessionFactory factory,
                               SessionManagerConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  HPB_REQUIRE(factory_ != nullptr,
              "SessionManager: a session factory is required");
  HPB_REQUIRE(config_.num_stripes > 0,
              "SessionManager: num_stripes must be positive");
  stripes_.reserve(config_.num_stripes);
  for (std::size_t i = 0; i < config_.num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  if (config_.max_resident > 0) {
    stripe_capacity_ =
        std::max<std::size_t>(1, config_.max_resident / config_.num_stripes);
  }
  if (!config_.journal_dir.empty()) {
    fs::ensure_dir(config_.journal_dir);
    if (config_.recover_on_start) {
      recover();
    }
  }
}

// Cold-start recovery: a restarted daemon's registry is empty, but the
// journals on disk *are* the sessions. Scanning up front (instead of
// waiting for a client to touch each name) quarantines corrupt journals
// before they can fail a verb, and lets `health` report how much state
// survived the restart.
void SessionManager::recover() {
  DIR* dir = ::opendir(config_.journal_dir.c_str());
  HPB_REQUIRE(dir != nullptr, "SessionManager: cannot scan journal dir '" +
                                  config_.journal_dir +
                                  "': " + std::strerror(errno));
  std::vector<std::string> names;
  for (const dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    constexpr std::string_view kSuffix = ".hpbj";
    if (file.size() <= kSuffix.size() ||
        file.compare(file.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;  // quarantined (.corrupt), tmp, or foreign files
    }
    names.push_back(file.substr(0, file.size() - kSuffix.size()));
  }
  ::closedir(dir);
  // Deterministic report order regardless of directory iteration order.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = journal_path(name);
    try {
      validate_session_name(name);
      const JournalContents contents = read_journal(path);
      if (contents.finalized) {
        recovery_.finished.push_back(name);
      } else {
        // Adoption is lazy: the journal stays the durable session and the
        // first verb naming it resumes it (resume_from_journal), exactly
        // like an LRU-evicted session. Nothing to build here.
        recovery_.adopted.push_back(name);
        emit_span("session.adopt", name);
      }
    } catch (const Error&) {
      quarantine_journal(name, path);
      recovery_.quarantined.push_back(name);
    }
  }
  if (config_.recorder.metrics != nullptr) {
    config_.recorder.metrics->counter("manager.recovered_adopted")
        .add(recovery_.adopted.size());
    config_.recorder.metrics->counter("manager.recovered_quarantined")
        .add(recovery_.quarantined.size());
  }
}

std::string SessionManager::quarantine_journal(const std::string& name,
                                               const std::string& path) {
  const std::string quarantine = path + ".corrupt";
  // rename(2) replaces an older quarantine of the same name — the newest
  // corpse is the one worth inspecting, and the session name must become
  // usable again either way.
  if (::rename(path.c_str(), quarantine.c_str()) != 0) {
    throw IoError("quarantine rename '" + path + "' -> '" + quarantine +
                      "': " + std::strerror(errno),
                  errno);
  }
  ++quarantined_;
  count("manager.quarantined");
  emit_span("session.quarantine", name);
  return quarantine;
}

// Resident sessions are dropped without finalizing their journals —
// exactly the crash contract: an unfinalized journal is what the next
// process's resume expects to find.
SessionManager::~SessionManager() = default;

SessionManager::Stripe& SessionManager::stripe_for(const std::string& name) {
  return *stripes_[std::hash<std::string>{}(name) % stripes_.size()];
}

const SessionManager::Stripe& SessionManager::stripe_for(
    const std::string& name) const {
  return *stripes_[std::hash<std::string>{}(name) % stripes_.size()];
}

std::string SessionManager::journal_path(const std::string& name) const {
  if (config_.journal_dir.empty()) {
    return {};
  }
  return config_.journal_dir + "/" + name + ".hpbj";
}

std::shared_ptr<SessionManager::Entry> SessionManager::make_entry(
    const SessionSpec& spec, SessionBackend backend,
    std::unique_ptr<JournalWriter> journal) {
  auto entry = std::make_shared<Entry>();
  entry->spec = spec;
  entry->metrics = std::make_unique<obs::MetricsRegistry>();
  SessionConfig sc;
  sc.batch_size = spec.batch_size;
  sc.stop = spec.stop;
  sc.mode = spec.mode;
  sc.max_pending = config_.max_pending_per_session;
  // Each session meters into its own registry (engine.* names never mix
  // across sessions); spans and the clock are shared manager-wide.
  sc.recorder = {.trace = config_.recorder.trace,
                 .metrics = entry->metrics.get(),
                 .clock = config_.recorder.clock};
  entry->session = std::make_unique<Session>(
      std::move(backend.tuner), std::move(sc), std::move(journal));
  entry->session->reserve(spec.stop.max_evaluations);
  entry->tick = ++tick_;
  return entry;
}

void SessionManager::emit_span(std::string_view span_name,
                               const std::string& session_name) {
  const obs::Recorder& rec = config_.recorder;
  if (!rec.tracing()) {
    return;
  }
  const std::uint64_t ts = rec.now_ns();
  const obs::TraceAttr attrs[] = {
      obs::TraceAttr::str("session", session_name)};
  rec.trace->emit({.name = span_name,
                   .id = rec.trace->next_id(),
                   .parent = 0,
                   .start_ns = ts,
                   .end_ns = ts,
                   .attrs = attrs});
}

void SessionManager::count(const char* counter) {
  if (config_.recorder.metrics != nullptr) {
    config_.recorder.metrics->counter(counter).add(1);
  }
}

void SessionManager::create(const SessionSpec& spec) {
  validate_session_name(spec.name);
  HPB_REQUIRE(spec.batch_size > 0,
              "SessionManager::create: batch_size must be positive");
  HPB_REQUIRE(spec.stop.max_evaluations > 0,
              "SessionManager::create: max_evaluations must be positive");
  Stripe& stripe = stripe_for(spec.name);
  std::lock_guard<std::mutex> lock(stripe.m);
  HPB_REQUIRE(stripe.map.find(spec.name) == stripe.map.end(),
              "session '" + spec.name + "' already exists");
  // Create-vs-adopt: a name whose journal survives on disk is an existing
  // (cold) session, not a free name — adopt it by touching it with
  // suggest/observe/status, or pick a new name. create() never silently
  // truncates a journal a crashed daemon left behind.
  const std::string path = journal_path(spec.name);
  HPB_REQUIRE(path.empty() || !file_exists(path),
              "session '" + spec.name +
                  "' already exists on disk (cold); touch it with "
                  "suggest/observe/status to adopt and resume it, or choose "
                  "another name (journal: " + path + ")");
  SessionBackend backend = factory_(spec);
  HPB_REQUIRE(backend.tuner != nullptr && backend.space != nullptr,
              "SessionManager: factory returned an incomplete backend");
  std::unique_ptr<JournalWriter> journal;
  if (!path.empty()) {
    journal = std::make_unique<JournalWriter>(JournalWriter::create(
        path, header_from_spec(spec, backend.space->num_params())));
  }
  stripe.map.emplace(spec.name,
                     make_entry(spec, std::move(backend), std::move(journal)));
  ++created_;
  count("manager.created");
  emit_span("session.create", spec.name);
  evict_over_capacity(stripe);
}

std::shared_ptr<SessionManager::Entry> SessionManager::resume_from_journal(
    Stripe& stripe, const std::string& name) {
  const std::string path = journal_path(name);
  HPB_REQUIRE(!path.empty() && file_exists(path),
              "unknown session '" + name + "'");
  JournalContents contents;
  try {
    contents = read_journal(path);
  } catch (const Error& e) {
    // The journal is unreadable (corrupt header / I/O error): move it
    // aside so the name recovers, keep the evidence, fail this one verb
    // with a structured story instead of crashing the daemon.
    const std::string quarantine = quarantine_journal(name, path);
    throw Error("session '" + name + "' had a corrupt journal (" + e.what() +
                "); it was quarantined to " + quarantine +
                " and the session no longer exists");
  }
  HPB_REQUIRE(!contents.finalized,
              "session '" + name + "' is closed (" + contents.finish_reason +
                  ")");
  const SessionSpec spec = spec_from_header(name, contents.header);
  SessionBackend backend = factory_(spec);
  HPB_REQUIRE(backend.tuner != nullptr && backend.space != nullptr,
              "SessionManager: factory returned an incomplete backend");
  // Deterministic tuners rebuild their exact state from their journaled
  // suggest/observe sequence; the resumed session's next suggestion is
  // bitwise-identical to the one the evicted instance would have made.
  std::shared_ptr<Entry> entry;
  if (contents.header.async) {
    AsyncReplayResult replayed =
        replay_journal_async(*backend.tuner, *backend.space, contents);
    auto journal =
        std::make_unique<JournalWriter>(JournalWriter::append(path, contents));
    entry = make_entry(spec, std::move(backend), std::move(journal));
    entry->session->replay_async(replayed);
  } else {
    std::vector<Observation> replayed =
        replay_journal(*backend.tuner, *backend.space, contents);
    auto journal =
        std::make_unique<JournalWriter>(JournalWriter::append(path, contents));
    entry = make_entry(spec, std::move(backend), std::move(journal));
    entry->session->replay(replayed, contents.rounds.size());
  }
  stripe.map.emplace(name, entry);
  ++resumed_;
  count("manager.resumed");
  emit_span("session.resume", name);
  return entry;
}

std::shared_ptr<SessionManager::Entry> SessionManager::acquire(
    const std::string& name) {
  validate_session_name(name);
  Stripe& stripe = stripe_for(name);
  std::lock_guard<std::mutex> lock(stripe.m);
  std::shared_ptr<Entry> entry;
  const auto it = stripe.map.find(name);
  if (it != stripe.map.end()) {
    entry = it->second;
  } else {
    entry = resume_from_journal(stripe, name);
  }
  ++entry->in_use;
  entry->tick = ++tick_;
  return entry;
}

void SessionManager::release(Stripe& stripe,
                             const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(stripe.m);
  --entry->in_use;
  entry->tick = ++tick_;
  evict_over_capacity(stripe);
}

void SessionManager::evict_over_capacity(Stripe& stripe) {
  if (stripe_capacity_ == 0) {
    return;
  }
  while (stripe.map.size() > stripe_capacity_) {
    // Idle entries are safe to inspect under the stripe mutex: every verb
    // bumps in_use under this mutex before touching the session, so
    // in_use == 0 here happens-after any prior verb completed.
    auto victim = stripe.map.end();
    for (auto it = stripe.map.begin(); it != stripe.map.end(); ++it) {
      Entry& e = *it->second;
      // A degraded session is pinned hot: evicting it would let the next
      // verb "resume" from its journal and mask the disk fault behind a
      // half-replayed session. It stays resident, read-only, and visible
      // in health until an operator restarts with a healthy disk.
      if (e.in_use > 0 || !e.session->journaled() ||
          e.session->round_in_flight() || e.session->degraded()) {
        continue;
      }
      if (victim == stripe.map.end() || e.tick < victim->second->tick) {
        victim = it;
      }
    }
    if (victim == stripe.map.end()) {
      return;  // everything is busy, journal-less, or mid-round: stay hot
    }
    const std::string name = victim->first;
    stripe.map.erase(victim);
    ++evicted_;
    count("manager.evicted");
    emit_span("session.evict", name);
  }
}

std::vector<space::Configuration> SessionManager::suggest(
    const std::string& name, std::size_t k) {
  Lease lease(*this, acquire(name));
  if (k == 0) {
    k = lease.entry().spec.batch_size;
  }
  return lease.session().suggest(k);
}

SessionStatus SessionManager::observe(const std::string& name,
                                      std::vector<Observation> observations) {
  Lease lease(*this, acquire(name));
  lease.session().observe(std::move(observations));
  return lease.session().status();
}

std::vector<AsyncSuggestion> SessionManager::suggest_async(
    const std::string& name, std::size_t k) {
  Lease lease(*this, acquire(name));
  if (k == 0) {
    k = lease.entry().spec.batch_size;
  }
  return lease.session().suggest_async(k);
}

SessionManager::SuggestOutcome SessionManager::suggest_any(
    const std::string& name, std::size_t k) {
  Lease lease(*this, acquire(name));
  if (k == 0) {
    k = lease.entry().spec.batch_size;
  }
  SuggestOutcome out;
  if (lease.session().config().mode == SessionMode::kAsync) {
    out.async = true;
    out.suggestions = lease.session().suggest_async(k);
  } else {
    out.configs = lease.session().suggest(k);
  }
  return out;
}

SessionStatus SessionManager::observe_async(
    const std::string& name, std::span<const AsyncResult> results) {
  Lease lease(*this, acquire(name));
  lease.session().observe_async(results);
  return lease.session().status();
}

std::size_t SessionManager::cancel(const std::string& name,
                                   std::span<const std::uint64_t> tokens) {
  Lease lease(*this, acquire(name));
  if (lease.session().config().mode == SessionMode::kAsync) {
    return lease.session().cancel_async(tokens);
  }
  HPB_REQUIRE(tokens.empty(),
              "SessionManager::cancel: synchronous sessions have no tokens; "
              "cancel releases the whole in-flight round");
  return lease.session().cancel_round();
}

SessionStatus SessionManager::status(const std::string& name) {
  Lease lease(*this, acquire(name));
  return lease.session().status();
}

void SessionManager::close(const std::string& name) {
  {
    Lease lease(*this, acquire(name));
    lease.session().close();  // throws with a round in flight
  }
  Stripe& stripe = stripe_for(name);
  std::lock_guard<std::mutex> lock(stripe.m);
  stripe.map.erase(name);
  ++closed_;
  count("manager.closed");
  emit_span("session.close", name);
}

bool SessionManager::evict(const std::string& name) {
  validate_session_name(name);
  Stripe& stripe = stripe_for(name);
  std::lock_guard<std::mutex> lock(stripe.m);
  const auto it = stripe.map.find(name);
  if (it == stripe.map.end()) {
    return false;
  }
  Entry& e = *it->second;
  if (e.in_use > 0 || !e.session->journaled() ||
      e.session->round_in_flight() || e.session->degraded()) {
    return false;
  }
  stripe.map.erase(it);
  ++evicted_;
  count("manager.evicted");
  emit_span("session.evict", name);
  return true;
}

std::string SessionManager::session_metrics_json(const std::string& name) {
  Lease lease(*this, acquire(name));
  return lease.entry().metrics->to_json();
}

ManagerHealth SessionManager::health() const {
  ManagerHealth h;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->m);
    h.resident += stripe->map.size();
    for (const auto& [name, entry] : stripe->map) {
      if (entry->session->degraded()) {
        ++h.degraded;
      }
    }
  }
  h.created = created_.load(std::memory_order_relaxed);
  h.evicted = evicted_.load(std::memory_order_relaxed);
  h.resumed = resumed_.load(std::memory_order_relaxed);
  h.closed = closed_.load(std::memory_order_relaxed);
  h.adopted = recovery_.adopted.size();
  h.quarantined = quarantined_.load(std::memory_order_relaxed);
  return h;
}

std::size_t SessionManager::degraded_count() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->m);
    for (const auto& [name, entry] : stripe->map) {
      if (entry->session->degraded()) {
        ++n;
      }
    }
  }
  return n;
}

std::size_t SessionManager::checkpoint_all() {
  std::size_t n = 0;
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    // Pin every resident entry under the stripe mutex, then checkpoint
    // outside it (op-mutex after stripe-mutex would invert the Lease
    // ordering, which releases the op mutex before re-taking the stripe).
    std::vector<std::shared_ptr<Entry>> entries;
    {
      std::lock_guard<std::mutex> lock(stripe.m);
      entries.reserve(stripe.map.size());
      for (auto& [name, entry] : stripe.map) {
        ++entry->in_use;
        entries.push_back(entry);
      }
    }
    for (auto& entry : entries) {
      {
        std::lock_guard<std::mutex> op(entry->op);
        (void)entry->session->checkpoint();
      }
      emit_span("manager.checkpoint", entry->spec.name);
      ++n;
      release(stripe, entry);
    }
  }
  count("manager.checkpoint_all");
  return n;
}

std::size_t SessionManager::resident_count() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->m);
    n += stripe->map.size();
  }
  return n;
}

std::uint64_t SessionManager::created_count() const noexcept {
  return created_.load(std::memory_order_relaxed);
}
std::uint64_t SessionManager::evicted_count() const noexcept {
  return evicted_.load(std::memory_order_relaxed);
}
std::uint64_t SessionManager::resumed_count() const noexcept {
  return resumed_.load(std::memory_order_relaxed);
}
std::uint64_t SessionManager::closed_count() const noexcept {
  return closed_.load(std::memory_order_relaxed);
}

}  // namespace hpb::core
