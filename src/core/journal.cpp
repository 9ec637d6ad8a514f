#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace hpb::core {
namespace {

constexpr std::string_view kMagic = "hpbj v1";

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string hex16(double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits_of(v)));
  return buf;
}

bool parse_u64(std::string_view tok, std::uint64_t& out, int base = 10) {
  if (tok.empty()) {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out, base);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

bool parse_bits(std::string_view tok, double& out) {
  std::uint64_t bits = 0;
  if (tok.size() != 16 || !parse_u64(tok, bits, 16)) {
    return false;
  }
  out = double_of(bits);
  return true;
}

/// Split a line into at most `max_tokens` space-separated tokens; the last
/// token keeps the rest of the line verbatim (meta values and end reasons
/// may contain spaces).
std::vector<std::string_view> tokenize(std::string_view line,
                                       std::size_t max_tokens) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start < line.size() && tokens.size() + 1 < max_tokens) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      break;
    }
    tokens.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  if (start <= line.size()) {
    tokens.push_back(line.substr(start));
  }
  return tokens;
}

std::vector<std::string_view> split_all(std::string_view line) {
  return tokenize(line, std::numeric_limits<std::size_t>::max());
}

std::string errno_text() { return std::strerror(errno); }

}  // namespace

// ---------------------------------------------------------------- writer

JournalWriter::JournalWriter(std::string path, int fd, std::size_t next_round)
    : path_(std::move(path)), fd_(fd), next_round_(next_round) {}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      next_round_(other.next_round_) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    next_round_ = other.next_round_;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void JournalWriter::write_lines(std::string_view lines, bool sync) {
  HPB_REQUIRE(fd_ >= 0, "JournalWriter: writer was moved from or closed");
  // fs::write_all + sync_fd throw hpb::IoError on a real (or injected)
  // disk fault; the session above marks itself degraded instead of the
  // process dying — the durable prefix on disk is still a valid journal.
  fs::write_all(fd_, lines, path_);
  if (sync) {
    fs::sync_fd(fd_, path_);
  }
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalHeader& header) {
  HPB_REQUIRE(!header.method.empty(), "journal: header.method is empty");
  HPB_REQUIRE(header.num_params > 0, "journal: header.num_params must be > 0");
  HPB_REQUIRE(header.batch_size > 0, "journal: header.batch_size must be > 0");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  // A missing parent directory is the one misconfiguration every caller
  // hits eventually (typo'd --journal / --session-dir); name it instead of
  // aborting the run with a bare ENOENT at the first append.
  HPB_REQUIRE(!(fd < 0 && errno == ENOENT),
              "journal open '" + path +
                  "': parent directory does not exist (create it first, or "
                  "check the --journal / --session-dir path)");
  if (fd < 0) {
    throw IoError("journal open '" + path + "': " + errno_text(), errno);
  }
  JournalWriter writer(path, fd, 0);
  // The whole header goes out in one durable write: it is either entirely
  // present or the journal is unusable — no torn-header states to handle.
  std::ostringstream head;
  head << kMagic << '\n'
       << "meta method " << header.method << '\n'
       << "meta dataset " << header.dataset << '\n';
  if (header.async) {
    head << "meta mode async\n";
  }
  if (!header.warm_start.empty()) {
    head << "meta warm_start " << header.warm_start << '\n';
  }
  if (!header.trace_path.empty()) {
    head << "meta trace " << header.trace_path << '\n';
  }
  head << "meta seed " << header.seed << '\n'
       << "meta batch " << header.batch_size << '\n'
       << "meta params " << header.num_params << '\n'
       << "meta budget " << header.max_evaluations << '\n'
       << "meta patience " << header.stagnation_patience << '\n'
       << "meta target " << hex16(header.target_value) << '\n'
       << "meta fail_rate " << hex16(header.fail_rate) << '\n'
       << "meta crash_rate " << hex16(header.crash_rate) << '\n'
       << "meta hang_rate " << hex16(header.hang_rate) << '\n';
  writer.write_lines(head.str(), /*sync=*/true);
  fs::sync_parent_dir(path);
  return writer;
}

JournalWriter JournalWriter::append(const std::string& path,
                                    const JournalContents& contents) {
  HPB_REQUIRE(contents.valid_bytes > 0,
              "journal append: contents carry no validated prefix");
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    throw IoError("journal open '" + path + "': " + errno_text(), errno);
  }
  // Drop the torn tail / incomplete round / end marker, then continue. A
  // clean journal already ends at valid_bytes: truncating it anyway would
  // still touch its mtime and make the fsync below commit that.
  const auto valid = static_cast<off_t>(contents.valid_bytes);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0 ||
      (size != valid &&
       (::ftruncate(fd, valid) != 0 || ::lseek(fd, 0, SEEK_END) < 0))) {
    const int err = errno;
    ::close(fd);
    throw IoError("journal truncate '" + path + "': " + std::strerror(err),
                  err);
  }
  JournalWriter writer(path, fd, contents.rounds.size());
  // A journal left by a killed process can hold lines that were written
  // but never flushed, and the resume acts on them: make them durable
  // before any verb is acknowledged on top of them.
  fs::sync_fd(fd, path);
  return writer;
}

void JournalWriter::begin_round(std::size_t requested, std::size_t actual) {
  HPB_REQUIRE(actual > 0 && actual <= requested,
              "journal begin_round: actual batch out of range");
  std::ostringstream line;
  line << "round " << next_round_ << ' ' << requested << ' ' << actual
       << '\n';
  write_lines(line.str(), /*sync=*/false);
  ++next_round_;
}

void JournalWriter::append_observations(
    std::span<const Observation> observations) {
  HPB_REQUIRE(!observations.empty(),
              "journal append_observations: no observations");
  std::ostringstream lines;
  for (const Observation& o : observations) {
    lines << "obs " << tabular::status_name(o.status) << ' ' << hex16(o.y);
    for (std::size_t p = 0; p < o.config.size(); ++p) {
      lines << ' ' << hex16(o.config[p]);
    }
    lines << '\n';
  }
  write_lines(lines.str(), /*sync=*/true);
}

void JournalWriter::abandon_round() {
  HPB_REQUIRE(next_round_ > 0,
              "journal abandon_round: no round has been opened");
  write_lines("abandon\n", /*sync=*/true);
}

void JournalWriter::begin_ask(std::size_t requested,
                              std::uint64_t first_token,
                              std::span<const space::Configuration> batch) {
  HPB_REQUIRE(!batch.empty() && batch.size() <= requested,
              "journal begin_ask: actual batch out of range");
  HPB_REQUIRE(first_token > 0, "journal begin_ask: tokens start at 1");
  std::ostringstream line;
  line << "ask " << requested << ' ' << first_token << ' ' << batch.size();
  for (const space::Configuration& c : batch) {
    for (std::size_t p = 0; p < c.size(); ++p) {
      line << ' ' << hex16(c[p]);
    }
  }
  line << '\n';
  write_lines(line.str(), /*sync=*/true);
}

void JournalWriter::append_async_observations(
    std::span<const std::uint64_t> tokens,
    std::span<const Observation> observations) {
  HPB_REQUIRE(!tokens.empty() && tokens.size() == observations.size(),
              "journal append_async_observations: need one observation per "
              "token");
  std::ostringstream lines;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    lines << "aobs " << tokens[i] << ' '
          << tabular::status_name(observations[i].status) << ' '
          << hex16(observations[i].y) << '\n';
  }
  write_lines(lines.str(), /*sync=*/true);
}

void JournalWriter::append_cancels(std::span<const std::uint64_t> tokens) {
  HPB_REQUIRE(!tokens.empty(), "journal append_cancels: no tokens");
  std::ostringstream lines;
  for (const std::uint64_t token : tokens) {
    lines << "acancel " << token << '\n';
  }
  write_lines(lines.str(), /*sync=*/true);
}

void JournalWriter::finalize(std::string_view reason) {
  HPB_REQUIRE(!reason.empty() && reason.find('\n') == std::string_view::npos,
              "journal finalize: reason must be a single non-empty line");
  std::string line = "end ";
  line += reason;
  line += '\n';
  write_lines(line, /*sync=*/true);
}

// ---------------------------------------------------------------- reader

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HPB_REQUIRE(in.good(), "read_journal: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  JournalContents contents;
  std::size_t offset = 0;
  // Pull the next '\n'-terminated line; a line without its newline is a
  // torn tail and does not count.
  auto next_line = [&](std::string_view& line) {
    const std::size_t nl = data.find('\n', offset);
    if (nl == std::string::npos) {
      return false;
    }
    line = std::string_view(data).substr(offset, nl - offset);
    offset = nl + 1;
    return true;
  };

  std::string_view line;
  HPB_REQUIRE(next_line(line) && line == kMagic,
              "read_journal: '" + path + "' is not a v1 observation journal");

  JournalHeader& h = contents.header;
  bool in_header = true;
  contents.valid_bytes = offset;
  while (in_header) {
    const std::size_t line_start = offset;
    if (!next_line(line)) {
      break;  // header-only journal (valid: zero rounds)
    }
    const auto tokens = tokenize(line, 3);
    if (tokens.size() == 3 && tokens[0] == "meta") {
      const std::string_view key = tokens[1];
      const std::string_view value = tokens[2];
      std::uint64_t u = 0;
      bool ok = true;
      if (key == "method") {
        h.method = value;
      } else if (key == "dataset") {
        h.dataset = value;
      } else if (key == "warm_start") {
        h.warm_start = value;
      } else if (key == "trace") {
        h.trace_path = value;
      } else if (key == "seed") {
        ok = parse_u64(value, h.seed);
      } else if (key == "batch") {
        ok = parse_u64(value, u);
        h.batch_size = u;
      } else if (key == "params") {
        ok = parse_u64(value, u);
        h.num_params = u;
      } else if (key == "budget") {
        ok = parse_u64(value, u);
        h.max_evaluations = u;
      } else if (key == "patience") {
        ok = parse_u64(value, u);
        h.stagnation_patience = u;
      } else if (key == "target") {
        ok = parse_bits(value, h.target_value);
      } else if (key == "fail_rate") {
        ok = parse_bits(value, h.fail_rate);
      } else if (key == "crash_rate") {
        ok = parse_bits(value, h.crash_rate);
      } else if (key == "hang_rate") {
        ok = parse_bits(value, h.hang_rate);
      } else if (key == "mode") {
        ok = value == "async" || value == "sync";
        h.async = value == "async";
      }  // unknown meta keys are skipped for forward compatibility
      HPB_REQUIRE(ok, "read_journal: malformed header line '" +
                          std::string(line) + "'");
      contents.valid_bytes = offset;
    } else {
      // First non-meta line: the header is complete; rewind and leave.
      offset = line_start;
      in_header = false;
    }
  }
  HPB_REQUIRE(!h.method.empty() && h.num_params > 0 && h.batch_size > 0,
              "read_journal: incomplete header in '" + path + "'");

  if (h.async) {
    // Asynchronous body: one self-contained event line per verb. Every
    // valid line extends the durable prefix on its own — there is no
    // multi-line round to tear, only the final line.
    std::unordered_map<std::uint64_t, space::Configuration> outstanding;
    std::uint64_t next_token = 1;
    for (;;) {
      if (!next_line(line)) {
        break;
      }
      const auto tokens = split_all(line);
      if (tokens.size() == 2 && tokens[0] == "end") {
        contents.finalized = true;
        contents.finish_reason = tokens[1];
        break;  // valid_bytes deliberately excludes the end marker
      }
      AsyncEvent event;
      if (tokens.size() >= 4 && tokens[0] == "ask") {
        std::uint64_t requested = 0, first_token = 0, actual = 0;
        if (!parse_u64(tokens[1], requested) ||
            !parse_u64(tokens[2], first_token) ||
            !parse_u64(tokens[3], actual) || actual == 0 ||
            actual > requested || first_token != next_token ||
            tokens.size() != 4 + actual * h.num_params) {
          break;  // torn or foreign tail; the prefix so far stands
        }
        event.kind = AsyncEvent::Kind::kAsk;
        event.requested = static_cast<std::size_t>(requested);
        event.first_token = first_token;
        bool ok = true;
        for (std::uint64_t i = 0; i < actual && ok; ++i) {
          std::vector<double> values(h.num_params, 0.0);
          for (std::size_t p = 0; p < h.num_params && ok; ++p) {
            ok = parse_bits(tokens[4 + i * h.num_params + p], values[p]);
          }
          if (ok) {
            event.configs.emplace_back(std::move(values));
          }
        }
        if (!ok) {
          break;
        }
        for (std::uint64_t i = 0; i < actual; ++i) {
          outstanding.emplace(first_token + i, event.configs[i]);
        }
        next_token = first_token + actual;
      } else if (tokens.size() == 4 && tokens[0] == "aobs") {
        std::uint64_t token = 0;
        if (!parse_u64(tokens[1], token)) {
          break;
        }
        const auto it = outstanding.find(token);
        if (it == outstanding.end()) {
          break;  // unknown/already-resolved token: corruption, stop here
        }
        event.kind = AsyncEvent::Kind::kObserve;
        event.token = token;
        try {
          event.observation.status =
              tabular::status_from_name(std::string(tokens[2]));
        } catch (const Error&) {
          break;
        }
        if (!parse_bits(tokens[3], event.observation.y)) {
          break;
        }
        // NaN under an ok status is corruption, exactly as for sync obs
        // records; infinities stay legal.
        if (event.observation.status == tabular::EvalStatus::kOk &&
            std::isnan(event.observation.y)) {
          break;
        }
        event.observation.config = it->second;
        outstanding.erase(it);
      } else if (tokens.size() == 2 && tokens[0] == "acancel") {
        std::uint64_t token = 0;
        if (!parse_u64(tokens[1], token)) {
          break;
        }
        const auto it = outstanding.find(token);
        if (it == outstanding.end()) {
          break;
        }
        event.kind = AsyncEvent::Kind::kCancel;
        event.token = token;
        event.observation.config = it->second;
        outstanding.erase(it);
      } else {
        break;
      }
      contents.events.push_back(std::move(event));
      contents.valid_bytes = offset;
    }
    return contents;
  }

  // Rounds, until the end marker, EOF, or the first torn/malformed line.
  for (;;) {
    if (!next_line(line)) {
      break;
    }
    auto tokens = split_all(line);
    if (tokens.size() == 2 && tokens[0] == "end") {
      contents.finalized = true;
      contents.finish_reason = tokens[1];
      break;  // valid_bytes deliberately excludes the end marker
    }
    std::uint64_t index = 0, requested = 0, actual = 0;
    if (tokens.size() != 4 || tokens[0] != "round" ||
        !parse_u64(tokens[1], index) || !parse_u64(tokens[2], requested) ||
        !parse_u64(tokens[3], actual) || index != contents.rounds.size() ||
        actual == 0 || actual > requested) {
      break;  // torn or foreign tail; the prefix so far stands
    }
    JournalRound round;
    round.requested = static_cast<std::size_t>(requested);
    round.actual = static_cast<std::size_t>(actual);
    bool complete = true;
    for (std::uint64_t i = 0; i < actual; ++i) {
      if (!next_line(line)) {
        complete = false;
        break;
      }
      // A round marker directly followed by an abandon marker is a
      // cancelled round: no observations ever existed, and replay
      // re-suggests then abandons it instead of re-evaluating.
      if (i == 0 && line == "abandon") {
        round.abandoned = true;
        break;
      }
      tokens = split_all(line);
      if (tokens.size() != 3 + h.num_params || tokens[0] != "obs") {
        complete = false;
        break;
      }
      Observation o;
      try {
        o.status = tabular::status_from_name(std::string(tokens[1]));
      } catch (const Error&) {
        complete = false;
        break;
      }
      if (!parse_bits(tokens[2], o.y)) {
        complete = false;
        break;
      }
      // A successful observation never carries NaN (the writer reserves it
      // for failed records), so NaN bits under an ok status are corruption.
      // Infinities stay legal: extreme objective values round-trip exactly.
      if (o.status == tabular::EvalStatus::kOk && std::isnan(o.y)) {
        complete = false;
        break;
      }
      std::vector<double> values(h.num_params, 0.0);
      for (std::size_t p = 0; p < h.num_params; ++p) {
        if (!parse_bits(tokens[3 + p], values[p])) {
          complete = false;
          break;
        }
      }
      if (!complete) {
        break;
      }
      o.config = space::Configuration(std::move(values));
      round.observations.push_back(std::move(o));
    }
    if (!complete) {
      break;  // incomplete round: dropped, will be re-evaluated on resume
    }
    contents.rounds.push_back(std::move(round));
    contents.valid_bytes = offset;
  }
  return contents;
}

// ---------------------------------------------------------------- replay

namespace {

/// Re-enter one journaled batch — round `index` of a sync journal or ask
/// event `index` of an async one (`what` names which) — into `tuner` as
/// the suggest that produced it. Any batch but the journal's last is first
/// offered to Tuner::adopt_batch, which skips the fit when the tuner can
/// show the suggestion is already fixed by the journal. The last batch, and
/// every batch the tuner declines, is re-suggested and compared bit for
/// bit, so a wrong method, seed, or dataset still fails the resume.
void replay_batch(Tuner& tuner, std::size_t requested,
                  std::span<const space::Configuration> journaled,
                  bool last, const char* what, std::size_t index) {
  if (!last && tuner.adopt_batch(requested, journaled)) {
    return;
  }
  const std::vector<space::Configuration> batch =
      tuner.suggest_batch(requested);
  HPB_REQUIRE(batch.size() == journaled.size(),
              std::string(what) + " " + std::to_string(index) +
                  " diverged — tuner proposed " +
                  std::to_string(batch.size()) +
                  " configurations, journal recorded " +
                  std::to_string(journaled.size()) +
                  " (wrong method, seed, or dataset?)");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    HPB_REQUIRE(batch[i].values() == journaled[i].values(),
                std::string(what) + " " + std::to_string(index) +
                    " configuration " + std::to_string(i) +
                    " diverged — the tuner did not re-propose the journaled "
                    "configuration (wrong method, seed, or dataset?)");
  }
}

}  // namespace

std::vector<Observation> replay_journal(Tuner& tuner,
                                        const space::ParameterSpace& space,
                                        const JournalContents& contents) {
  HPB_REQUIRE(contents.header.num_params == space.num_params(),
              "replay_journal: journal has " +
                  std::to_string(contents.header.num_params) +
                  " parameters but the space has " +
                  std::to_string(space.num_params()));
  std::vector<Observation> replayed;
  replayed.reserve(contents.num_observations());
  // The last observed round is the one re-suggested in full: an abandoned
  // round after it has no configurations to compare.
  std::size_t last_observed = 0;
  for (std::size_t r = 0; r < contents.rounds.size(); ++r) {
    if (!contents.rounds[r].abandoned) {
      last_observed = r;
    }
  }
  std::vector<space::Configuration> journaled;
  for (std::size_t r = 0; r < contents.rounds.size(); ++r) {
    const JournalRound& round = contents.rounds[r];
    if (round.abandoned) {
      // The round was cancelled whole before any observation, and the
      // journal holds no configurations for it: re-suggesting advances the
      // tuner (RNG, pending tracking) exactly as the original suggest did;
      // abandoning each member restores the cancelled state.
      const std::vector<space::Configuration> batch =
          tuner.suggest_batch(round.requested);
      HPB_REQUIRE(batch.size() == round.actual,
                  "replay_journal: abandoned round " + std::to_string(r) +
                      " diverged — tuner proposed " +
                      std::to_string(batch.size()) +
                      " configurations, journal recorded " +
                      std::to_string(round.actual) +
                      " (wrong method, seed, or dataset?)");
      for (const space::Configuration& c : batch) {
        tuner.abandon(c);
      }
      continue;
    }
    journaled.clear();
    for (const Observation& o : round.observations) {
      journaled.push_back(o.config);
    }
    replay_batch(tuner, round.requested, journaled, r == last_observed,
                 "replay_journal: round", r);
    tuner.observe_batch(round.observations);
    replayed.insert(replayed.end(), round.observations.begin(),
                    round.observations.end());
  }
  return replayed;
}

AsyncReplayResult replay_journal_async(Tuner& tuner,
                                       const space::ParameterSpace& space,
                                       const JournalContents& contents) {
  HPB_REQUIRE(contents.header.async,
              "replay_journal_async: journal is not an async journal");
  HPB_REQUIRE(contents.header.num_params == space.num_params(),
              "replay_journal_async: journal has " +
                  std::to_string(contents.header.num_params) +
                  " parameters but the space has " +
                  std::to_string(space.num_params()));
  AsyncReplayResult result;
  // Ordered map: tokens are issued in increasing order, so iteration order
  // equals issue order — the resumed session re-exposes outstanding tokens
  // exactly as the original issued them.
  std::map<std::uint64_t, space::Configuration> outstanding;
  std::size_t last_ask = 0;
  for (std::size_t e = 0; e < contents.events.size(); ++e) {
    if (contents.events[e].kind == AsyncEvent::Kind::kAsk) {
      last_ask = e;
    }
  }
  for (std::size_t e = 0; e < contents.events.size(); ++e) {
    const AsyncEvent& event = contents.events[e];
    switch (event.kind) {
      case AsyncEvent::Kind::kAsk: {
        replay_batch(tuner, event.requested, event.configs, e == last_ask,
                     "replay_journal_async: ask event", e);
        for (std::size_t i = 0; i < event.configs.size(); ++i) {
          outstanding.emplace(event.first_token + i, event.configs[i]);
        }
        result.next_token = event.first_token + event.configs.size();
        ++result.asks;
        break;
      }
      case AsyncEvent::Kind::kObserve: {
        outstanding.erase(event.token);
        if (event.observation.status == tabular::EvalStatus::kOk) {
          tuner.observe(event.observation.config, event.observation.y);
        } else {
          tuner.observe_failure(event.observation.config,
                                event.observation.status);
        }
        result.observations.push_back(event.observation);
        break;
      }
      case AsyncEvent::Kind::kCancel: {
        const auto it = outstanding.find(event.token);
        HPB_REQUIRE(it != outstanding.end(),
                    "replay_journal_async: cancel event " + std::to_string(e) +
                        " references an unknown token");
        tuner.abandon(it->second);
        outstanding.erase(it);
        break;
      }
    }
  }
  result.outstanding.assign(outstanding.begin(), outstanding.end());
  return result;
}

}  // namespace hpb::core
