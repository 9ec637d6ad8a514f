#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
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

/// Append the configurations in `tokens`, `num_params` bit patterns each,
/// to `out`; false on a malformed value.
bool parse_configs(std::span<const std::string_view> tokens,
                   std::size_t num_params,
                   std::vector<space::Configuration>& out) {
  for (std::size_t at = 0; at < tokens.size(); at += num_params) {
    std::vector<double> values(num_params, 0.0);
    for (std::size_t p = 0; p < num_params; ++p) {
      if (!parse_bits(tokens[at + p], values[p])) {
        return false;
      }
    }
    out.emplace_back(std::move(values));
  }
  return true;
}

/// Parse a record's status and objective bits into `out`. A successful
/// record never carries NaN (the writer reserves it for failed records),
/// so NaN bits under an ok status are corruption; infinities stay legal:
/// extreme objective values round-trip exactly.
bool parse_result(std::string_view status, std::string_view bits,
                  AsyncResult& out) {
  try {
    out.status = tabular::status_from_name(std::string(status));
  } catch (const Error&) {
    return false;
  }
  return parse_bits(bits, out.y) && !(out.ok() && std::isnan(out.y));
}

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
  JournalWriter writer(path, fd, contents.num_asks());
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

  // Both bodies, until the end marker, EOF, or the first torn or malformed
  // line, into one event list. A verb is parsed whole before its events
  // are committed, so a rejected verb leaves nothing behind: the prefix so
  // far stands, and valid_bytes ends with the last complete verb.
  // `next` is the next unissued token. Only async lines name tokens, so
  // only the async body tracks which are open: open[t] is true while token
  // t is issued and unresolved (token 0 is never issued, so there
  // open.size() == next). Memory grows with the bytes read alone: an async
  // ask's count is bounded by its line, and a sync round, whose count no
  // line backs when it was abandoned, is never expanded per token.
  std::uint64_t next = 1;
  std::vector<bool> open(1, false);
  std::size_t asks = 0;
  auto ask = [&](std::size_t requested, std::size_t actual,
                 std::vector<space::Configuration> configs) {
    JournalEvent event;
    event.requested = requested;
    event.actual = actual;
    event.first_token = next;
    event.configs = std::move(configs);
    next += actual;
    contents.events.push_back(std::move(event));
    ++asks;
  };
  auto is_open = [&](std::string_view tok, std::uint64_t& token) {
    return parse_u64(tok, token) && token < open.size() && open[token];
  };
  auto observe = [&](std::vector<AsyncResult> results) {
    JournalEvent event;
    event.kind = JournalEvent::Kind::kObserve;
    event.results = std::move(results);
    contents.events.push_back(std::move(event));
  };
  auto cancel = [&](std::uint64_t first, std::size_t count) {
    JournalEvent event;
    event.kind = JournalEvent::Kind::kCancel;
    event.first_token = first;
    event.actual = count;
    contents.events.push_back(std::move(event));
  };
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
    std::uint64_t requested = 0, first = 0, actual = 0, token = 0;
    AsyncResult result;
    std::vector<space::Configuration> configs;
    if (h.async) {
      // Asynchronous body: one self-contained line per event.
      if (tokens.size() >= 4 && tokens[0] == "ask") {
        // The count is checked against the line before it multiplies:
        // a product that wraps must not pass for the line's length.
        if (!parse_u64(tokens[1], requested) ||
            !parse_u64(tokens[2], first) || !parse_u64(tokens[3], actual) ||
            actual == 0 || actual > requested || first != next ||
            actual > (tokens.size() - 4) / h.num_params ||
            tokens.size() != 4 + actual * h.num_params ||
            !parse_configs(std::span(tokens).subspan(4), h.num_params,
                           configs)) {
          break;
        }
        ask(requested, actual, std::move(configs));
        open.resize(next, true);
      } else if (tokens.size() == 4 && tokens[0] == "aobs" &&
                 is_open(tokens[1], token) &&
                 parse_result(tokens[2], tokens[3], result)) {
        open[token] = false;
        result.token = token;
        observe({result});
      } else if (tokens.size() == 2 && tokens[0] == "acancel" &&
                 is_open(tokens[1], token)) {
        open[token] = false;
        cancel(token, 1);
      } else {
        break;  // torn or foreign tail, or an unknown/resolved token
      }
      contents.valid_bytes = offset;
      continue;
    }
    // Synchronous body: a round marker, then `actual` obs records or one
    // abandon line. The round becomes an ask, then one observe of the
    // whole round or one cancel of all its tokens. Its tokens must not run
    // past the last one.
    std::uint64_t index = 0;
    if (tokens.size() != 4 || tokens[0] != "round" ||
        !parse_u64(tokens[1], index) || !parse_u64(tokens[2], requested) ||
        !parse_u64(tokens[3], actual) || index != asks || actual == 0 ||
        actual > requested ||
        actual > std::numeric_limits<std::uint64_t>::max() - next) {
      break;
    }
    first = next;
    std::vector<AsyncResult> results;
    bool abandoned = false;
    while (results.size() < actual) {
      if (!next_line(line)) {
        break;
      }
      // A round marker directly followed by an abandon marker is a
      // cancelled round: no observations ever existed.
      if (results.empty() && line == "abandon") {
        abandoned = true;
        break;
      }
      tokens = split_all(line);
      if (tokens.size() != 3 + h.num_params || tokens[0] != "obs" ||
          !parse_result(tokens[1], tokens[2], result) ||
          !parse_configs(std::span(tokens).subspan(3), h.num_params,
                         configs)) {
        break;
      }
      result.token = first + results.size();
      results.push_back(result);
    }
    if (!abandoned && results.size() < actual) {
      break;  // incomplete round: dropped, will be re-evaluated on resume
    }
    ask(requested, actual, std::move(configs));
    if (abandoned) {
      cancel(first, actual);
    } else {
      observe(std::move(results));
    }
    contents.valid_bytes = offset;
  }
  return contents;
}

// ---------------------------------------------------------------- replay

namespace {

/// Re-enter ask `index` of the journal — a round of a sync journal (`what`
/// names which) — into `tuner` as the suggest that produced it, and return
/// its configurations. Any ask but the journal's `last` with
/// configurations is first offered to Tuner::adopt_batch, which skips the
/// fit when the tuner can show the suggestion is already fixed by the
/// journal. The last one, and every one the tuner declines, is
/// re-suggested and compared bit for bit, so a wrong method, seed, or
/// dataset still fails the resume. An ask without configurations (an
/// abandoned sync round) is re-suggested and only its size is checked:
/// re-suggesting advances the tuner (RNG, pending tracking) exactly as the
/// original suggest did, and the round's cancel events then abandon each
/// member.
std::vector<space::Configuration> replay_ask(Tuner& tuner,
                                             const JournalEvent& ask,
                                             bool last, const char* what,
                                             std::size_t index) {
  if (!last && !ask.configs.empty() &&
      tuner.adopt_batch(ask.requested, ask.configs)) {
    return ask.configs;
  }
  std::vector<space::Configuration> batch = tuner.suggest_batch(ask.requested);
  const std::size_t journaled =
      ask.configs.empty() ? ask.actual : ask.configs.size();
  HPB_REQUIRE(batch.size() == journaled,
              std::string(what) + " " + std::to_string(index) +
                  " diverged — tuner proposed " +
                  std::to_string(batch.size()) +
                  " configurations, journal recorded " +
                  std::to_string(journaled) +
                  " (wrong method, seed, or dataset?)");
  for (std::size_t i = 0; i < ask.configs.size(); ++i) {
    HPB_REQUIRE(batch[i].values() == ask.configs[i].values(),
                std::string(what) + " " + std::to_string(index) +
                    " configuration " + std::to_string(i) +
                    " diverged — the tuner did not re-propose the journaled "
                    "configuration (wrong method, seed, or dataset?)");
  }
  return batch;
}

}  // namespace

ReplayResult replay_journal(Tuner& tuner, const space::ParameterSpace& space,
                            const JournalContents& contents) {
  HPB_REQUIRE(contents.header.num_params == space.num_params(),
              "replay_journal: journal has " +
                  std::to_string(contents.header.num_params) +
                  " parameters but the space has " +
                  std::to_string(space.num_params()));
  ReplayResult result;
  result.async = contents.header.async;
  result.observations.reserve(contents.num_observations());
  const char* what =
      result.async ? "replay_journal: ask" : "replay_journal: round";
  // The last ask with configurations is always re-suggested in full: an
  // abandoned round after it has none to compare.
  std::size_t last = 0;
  for (std::size_t e = 0; e < contents.events.size(); ++e) {
    if (!contents.events[e].configs.empty()) {
      last = e;
    }
  }
  // Ordered map: tokens are issued in increasing order, so iteration order
  // equals issue order — the resumed session re-exposes outstanding tokens
  // exactly as the original issued them.
  std::map<std::uint64_t, space::Configuration> outstanding;
  std::vector<Observation> group;
  for (std::size_t e = 0; e < contents.events.size(); ++e) {
    const JournalEvent& event = contents.events[e];
    switch (event.kind) {
      case JournalEvent::Kind::kAsk: {
        std::vector<space::Configuration> batch =
            replay_ask(tuner, event, e == last, what, result.asks);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          outstanding.emplace(event.first_token + i, std::move(batch[i]));
        }
        result.next_token = event.first_token + event.actual;
        ++result.asks;
        break;
      }
      case JournalEvent::Kind::kObserve: {
        group.clear();
        for (const AsyncResult& r : event.results) {
          auto node = outstanding.extract(r.token);
          HPB_REQUIRE(!node.empty(), "replay_journal: event " +
                                         std::to_string(e) +
                                         " observes an unknown token");
          group.push_back({std::move(node.mapped()), r.y, r.status});
        }
        tuner.observe_batch(group);
        std::move(group.begin(), group.end(),
                  std::back_inserter(result.observations));
        break;
      }
      case JournalEvent::Kind::kCancel: {
        for (std::size_t i = 0; i < event.actual; ++i) {
          const auto it = outstanding.find(event.first_token + i);
          HPB_REQUIRE(it != outstanding.end(),
                      "replay_journal: event " + std::to_string(e) +
                          " cancels an unknown token");
          tuner.abandon(it->second);
          outstanding.erase(it);
        }
        break;
      }
    }
  }
  result.outstanding.assign(std::make_move_iterator(outstanding.begin()),
                            std::make_move_iterator(outstanding.end()));
  return result;
}

}  // namespace hpb::core
