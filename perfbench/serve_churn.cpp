// serve_churn: the tuning daemon's layers in process — SessionManager,
// WireService and LineServer on a Unix socket — under session churn.
//
// Two client connections, one thread each, run closed loops. Each client
// round-robins 16 open hiperbot sessions on kripke (alternately sync and
// async); a session runs 60 evaluations as `suggest` count 2 followed by an
// `observe` of both results, then closes. With the residency cap at 8 most
// suggests resume a session from its journal (journal read, backend build,
// replay) and every observe appends to a session that was just touched.
//
// The clients run their waves of 16 sessions in lockstep (Lockstep), and a
// wave is the window the end-to-end timings are summarized over. Each
// client thread and the server thread that answers it share one CPU; the
// two connections use distinct CPUs that change every wave
// (ConnectionPins).
//
// Traced phases wrap the LineServer handler (wire.handle_line spans), the
// SessionFactory (core.session_manager.build spans) and every tuner
// (core.tuner.* spans via TimedTuner); clients record one span per request.
// Requests are strictly sequential per connection, so (client, sequence
// number) identifies a request on both sides of the socket.
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "core/journal.hpp"
#include "core/session_manager.hpp"
#include "obs/json_util.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hpb::service::JsonValue;

constexpr int kClients = 2;
constexpr int kSessionsPerClient = 16;
/// HiPerBOt draws its first 20 evaluations (10 rounds) at random, and a
/// suggest in those rounds costs about half of a fitted one. With 40
/// evaluations half the suggests would be random and the median would fall
/// in the gap between the two groups; with 60 it lies well inside the
/// fitted rounds.
constexpr std::size_t kEvalsPerSession = 60;
/// best_ratio_50 looks at this prefix of every session.
constexpr std::size_t kQualityEvals = 50;
constexpr std::size_t kSuggestCount = 2;
constexpr std::size_t kMaxResident = 8;
/// Set-up takes a few milliseconds, and each repeat ~0.1 s with the daemon's
/// shutdown, so 50 repeats (half before and half after the measured
/// interval) sample twice ~2.5 s of the host for a quiet one.
constexpr int kSetupRepeats = 50;
/// Waves (16 sessions each) every client completes whatever --seconds
/// says, so the digest and best_ratio_50 cover the same sessions always.
constexpr std::size_t kPrefixWaves = 3;
/// Per-verb layer self times must sum to the client mean within this share.
/// They do exactly while every span nests in its parent, so the check
/// catches spans that leak out of their parent.
constexpr double kAccountingTolerance = 0.01;
constexpr std::string_view kDataset = "kripke";

enum SeedStream : std::uint64_t { kSessionSeed = 1, kNameTag = 2 };

/// Blocking newline-delimited client over a Unix socket.
class LineClient {
 public:
  explicit LineClient(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd_);
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + why);
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send one request line (without its newline) and wait for the
  /// response line.
  std::string request(const std::string& line) {
    const std::string framed = line + '\n';
    std::string_view rest = framed;
    while (!rest.empty()) {
      const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    std::size_t newline = buffer_.find('\n');
    while (newline == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("connection closed before a response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
      newline = buffer_.find('\n');
    }
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
  }

 private:
  int fd_;
  std::string buffer_;
};

/// The verb of a request line the clients wrote ({"verb":"<verb>",...}).
const char* verb_of(std::string_view line) {
  if (line.size() < 9) {
    return "other";
  }
  for (const char* verb : {"suggest", "observe", "create", "close"}) {
    if (line.substr(9, std::strlen(verb)) == verb) {
      return verb;
    }
  }
  return "other";
}

/// Request ids: client index in the high half, per-connection sequence
/// number in the low half. Set-up connections use kSetupClient.
constexpr std::uint64_t kSetupClient = 0xffff;
std::uint64_t request_id(std::uint64_t client, std::uint64_t seq) {
  return (client << 32) | seq;
}

/// Client index from a session name of the form c<digit>-...; every
/// measured connection opens with a create naming one of its sessions.
std::uint64_t client_of(std::string_view line) {
  const std::string_view key = "\"session\":\"c";
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos || at + key.size() >= line.size()) {
    return kSetupClient;
  }
  const char digit = line[at + key.size()];
  return digit >= '0' && digit <= '9'
             ? static_cast<std::uint64_t>(digit - '0')
             : kSetupClient;
}

/// The measured client a server thread answers, from the first line the
/// thread handles (LineServer runs one thread per connection).
std::uint64_t connection_client(std::string_view line) {
  thread_local const std::uint64_t client = client_of(line);
  return client;
}

/// Keeps each measured connection on one CPU: the client thread and the
/// server thread that answers it. A request and its response then wake a
/// thread on the CPU that just blocked, not on another vCPU, which on a
/// shared VM may have to wait for the host to run it. The connections move
/// every wave, so the quietest wave can find CPUs the host is not slowing:
/// client 0 visits every CPU in turn, and client 1 keeps an offset from it
/// that steps through 1 .. n-1 each time client 0 has been round, so the
/// two never share a CPU and every pair of CPUs takes its turn.
class ConnectionPins {
 public:
  static_assert(kClients == 2, "placement is defined for two clients");

  /// Client `client`, before wave `wave`: move there.
  void client_at(int client, std::size_t wave) {
    const std::size_t n = cpus_.size();
    std::size_t cpu = 0;
    if (n > 1) {
      const std::size_t offset = 1 + (wave / n) % (n - 1);
      cpu = (wave + static_cast<std::size_t>(client) * offset) % n;
    }
    if (cpu != target_[client].load(std::memory_order_relaxed)) {
      cpus_.pin(cpu);
      target_[client].store(cpu, std::memory_order_release);
    }
  }
  /// A server thread, before it handles a line of `client`: join it.
  void follow(std::uint64_t client) const {
    if (client >= static_cast<std::uint64_t>(kClients)) {
      return;  // a set-up connection
    }
    thread_local std::size_t pinned = kUnpinned;
    const std::size_t cpu = target_[client].load(std::memory_order_acquire);
    if (cpu != pinned && cpu != kUnpinned) {
      cpus_.pin(cpu);
      pinned = cpu;
    }
  }

 private:
  static constexpr std::size_t kUnpinned = static_cast<std::size_t>(-1);
  CpuRotation cpus_;
  std::atomic<std::size_t> target_[kClients] = {kUnpinned, kUnpinned};
};

/// Wave boundaries the clients share: a wave starts when every client has
/// finished the one before, so a wave is one unit of like work (both
/// clients' sessions through all their rounds, whose costs differ by round)
/// and the clients move to their next CPUs together. The phase ends at the
/// first boundary after --seconds once the prefix waves are done.
class Lockstep {
 public:
  Lockstep(double seconds, std::uint64_t start_ns)
      : barrier_(kClients, Decide{this}),
        seconds_(seconds),
        start_ns_(start_ns) {}

  /// After a wave: wait for the other clients; false when the phase ends.
  bool next() {
    barrier_.arrive_and_wait();
    return !stop_;
  }
  /// A client that gives up (after an error) stops holding the others.
  void leave() { barrier_.arrive_and_drop(); }
  /// Waves every client completed.
  [[nodiscard]] std::size_t waves() const { return waves_; }

 private:
  struct Decide {
    Lockstep* self;
    void operator()() noexcept {
      ++self->waves_;
      const double elapsed =
          static_cast<double>(now_ns() - self->start_ns_) / 1e9;
      self->stop_ = elapsed >= self->seconds_ && self->waves_ >= kPrefixWaves;
    }
  };

  std::barrier<Decide> barrier_;
  double seconds_;
  std::uint64_t start_ns_;
  std::size_t waves_ = 0;  // written by the completion step only
  bool stop_ = false;
};

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

/// One daemon: manager, wire service and listening server. Members are
/// destroyed server first, so no handler runs against a dead service.
struct Daemon {
  std::unique_ptr<hpb::core::SessionManager> manager;
  std::unique_ptr<hpb::service::WireService> wire;
  std::unique_ptr<hpb::service::LineServer> server;
  std::string socket;
};

/// SessionFactory that times each build and wraps the tuner in a TimedTuner.
hpb::core::SessionFactory traced_factory(SpanLog& spans) {
  return [inner = hpb::service::dataset_session_factory(),
          &spans](const hpb::core::SessionSpec& spec) {
    const SpanContext context = current_context();
    const std::uint64_t id = spans.next_id();
    const std::uint64_t start = now_ns();
    hpb::core::SessionBackend backend = inner(spec);
    spans.add({.name = "core.session_manager.build",
               .id = id,
               .parent = context.parent,
               .request = context.request,
               .start_ns = start,
               .end_ns = now_ns()});
    backend.tuner =
        std::make_unique<TimedTuner>(std::move(backend.tuner), nullptr, &spans);
    return backend;
  };
}

/// LineServer handler recording one wire.handle_line span per request and
/// installing it as the context of the layer calls beneath.
hpb::service::LineServer::Handler traced_handler(
    hpb::service::WireService& wire, SpanLog& spans) {
  return [&wire, &spans](std::string_view line) {
    thread_local std::uint64_t seq = 0;  // one server thread per connection
    const std::uint64_t request = request_id(connection_client(line), seq++);
    const std::uint64_t id = spans.next_id();
    const ScopedContext context({.parent = id, .request = request});
    const std::uint64_t start = now_ns();
    std::string response = wire.handle_line(line);
    spans.add({.name = "service.wire.handle_line",
               .verb = verb_of(line),
               .id = id,
               .parent = 0,  // the client span; linked by request id
               .request = request,
               .start_ns = start,
               .end_ns = now_ns()});
    return response;
  };
}

/// `pins` (null for set-up daemons) places each measured connection's
/// server thread with its client.
std::unique_ptr<Daemon> start_daemon(const std::string& dir, bool traced,
                                     SpanLog& spans,
                                     const ConnectionPins* pins) {
  auto d = std::make_unique<Daemon>();
  hpb::core::SessionManagerConfig config;
  config.journal_dir = dir + "/journals";
  config.max_resident = kMaxResident;
  d->manager = std::make_unique<hpb::core::SessionManager>(
      traced ? traced_factory(spans) : hpb::service::dataset_session_factory(),
      std::move(config));
  d->wire = std::make_unique<hpb::service::WireService>(*d->manager);
  d->socket = dir + "/s.sock";
  hpb::service::WireService& wire = *d->wire;
  hpb::service::LineServer::Handler handler =
      traced ? traced_handler(wire, spans)
             : [&wire](std::string_view line) {
                 return wire.handle_line(line);
               };
  if (pins != nullptr) {
    handler = [pins, inner = std::move(handler)](std::string_view line) {
      pins->follow(connection_client(line));
      return inner(line);
    };
  }
  d->server = std::make_unique<hpb::service::LineServer>(
      std::move(handler), hpb::service::ServerConfig{.unix_path = d->socket});
  d->server->start();
  return d;
}

std::string create_line(const std::string& name, std::uint64_t seed,
                        bool async) {
  return "{\"verb\":\"create\",\"session\":\"" + name + "\",\"dataset\":\"" +
         std::string(kDataset) +
         "\",\"method\":\"hiperbot\",\"seed\":" + std::to_string(seed) +
         ",\"batch_size\":" + std::to_string(kSuggestCount) +
         ",\"max_evaluations\":" + std::to_string(kEvalsPerSession) +
         (async ? ",\"mode\":\"async\"}" : "}");
}

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// What one client thread measured and checked.
struct ClientResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t suggest_requests = 0;
  std::vector<std::uint64_t> prefix_digests;  // per session, prefix waves
  std::vector<double> prefix_best_ratio;      // per session, prefix waves
  std::vector<std::string> sessions;          // every session created
  std::vector<std::string> problems;
  std::size_t waves = 0;
};

/// One open session as its client sees it.
struct ClientSession {
  std::string name;
  bool async = false;
  bool alive = true;
  std::size_t evaluations = 0;
  double best = std::numeric_limits<double>::infinity();
  Digest digest;
};

class Client {
 public:
  Client(int index, const RunOptions& opts, const std::string& socket,
         const hpb::tabular::TabularObjective& table, Lockstep& lockstep,
         EndToEnd& e2e, ConnectionPins& pins, SpanLog* spans)
      : index_(index),
        opts_(opts),
        socket_(socket),
        table_(table),
        lockstep_(lockstep),
        e2e_(e2e),
        pins_(pins),
        spans_(spans),
        tag_(std::to_string(derive_seed(opts.seed, kNameTag, 0) % 1000000)) {}

  ClientResult run() {
    try {
      LineClient connection(socket_);
      connection_ = &connection;
      for (wave_ = 0;; ++wave_) {
        pins_.client_at(index_, wave_);
        run_wave(wave_);
        result_.waves = wave_ + 1;
        if (!lockstep_.next()) {
          break;
        }
      }
    } catch (const std::exception& e) {
      ++result_.failed;
      result_.problems.push_back("client " + std::to_string(index_) + ": " +
                                 e.what());
      lockstep_.leave();
    }
    connection_ = nullptr;
    return std::move(result_);
  }

 private:
  void run_wave(std::size_t wave) {
    std::vector<ClientSession> sessions(kSessionsPerClient);
    for (int j = 0; j < kSessionsPerClient; ++j) {
      ClientSession& s = sessions[j];
      const std::uint64_t item =
          (static_cast<std::uint64_t>(index_) << 40) | (wave << 8) |
          static_cast<std::uint64_t>(j);
      s.name = std::string("c") + std::to_string(index_) + "-" + tag_ + "-w" +
               std::to_string(wave) + "-s" + std::to_string(j);
      s.async = (static_cast<std::uint64_t>(j) + opts_.seed) % 2 == 1;
      const std::uint64_t seed =
          derive_seed(opts_.seed, kSessionSeed, item) % 1000000000000ULL;
      result_.sessions.push_back(s.name);
      s.alive =
          expect_ok(s, send("create", create_line(s.name, seed, s.async)));
    }
    for (std::size_t round = 0; round * kSuggestCount < kEvalsPerSession;
         ++round) {
      for (ClientSession& s : sessions) {
        if (s.alive) {
          step(s);
        }
      }
    }
    for (ClientSession& s : sessions) {
      if (!s.alive) {
        continue;
      }
      if (s.evaluations != kEvalsPerSession) {
        problem(s, "ran " + std::to_string(s.evaluations) + " evaluations");
      }
      expect_ok(s, send("close", "{\"verb\":\"close\",\"session\":\"" +
                                     s.name + "\"}"));
      if (wave < kPrefixWaves) {
        result_.prefix_digests.push_back(s.digest.value());
        result_.prefix_best_ratio.push_back(s.best / table_.best_value());
      }
    }
  }

  /// One suggest (count 2) and the observe of both results.
  void step(ClientSession& s) {
    const std::string response =
        send("suggest", "{\"verb\":\"suggest\",\"session\":\"" + s.name +
                            "\",\"count\":" + std::to_string(kSuggestCount) +
                            "}");
    ++result_.suggest_requests;
    if (!expect_ok(s, response)) {
      return;
    }
    const Timing suggest_wait = last_;
    const JsonValue parsed = hpb::service::parse_json(response);
    const std::vector<JsonValue>& configs = parsed.find("configs")->as_array();
    const JsonValue* tokens = parsed.find("tokens");
    std::string results;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::vector<double> values;
      std::string values_json;
      for (const JsonValue& v : configs[i].as_array()) {
        values.push_back(v.as_number());
        s.digest.add(values.back());
        values_json += values_json.empty() ? "" : ",";
        values_json += hpb::obs::json_double(values.back());
      }
      const double y =
          table_.value_of(hpb::space::Configuration(std::move(values)));
      if (s.evaluations + i < kQualityEvals) {
        s.best = std::min(s.best, y);
      }
      results += i == 0 ? "" : ",";
      if (tokens != nullptr) {
        const double token = tokens->as_array().at(i).as_number();
        s.digest.add(token);
        results += "{\"token\":" + hpb::obs::json_double(token);
      } else {
        results += "{\"config\":[" + values_json + "]";
      }
      results += ",\"y\":" + hpb::obs::json_double(y) + "}";
    }
    const std::string observed =
        send("observe", "{\"verb\":\"observe\",\"session\":\"" + s.name +
                            "\",\"results\":[" + results + "]}");
    if (!expect_ok(s, observed)) {
      return;
    }
    e2e_.add_step(
        wave_, {.end_ns = last_.end_ns,
                .duration_ns = suggest_wait.duration_ns + last_.duration_ns});
    e2e_.add_evaluations(wave_, last_.end_ns, configs.size());
    s.evaluations += configs.size();
    if (s.evaluations >= kEvalsPerSession) {
      const JsonValue status =
          *hpb::service::parse_json(observed).find("status");
      if (status.find("evaluations")->as_number() !=
          static_cast<double>(kEvalsPerSession)) {
        problem(s, "reached its budget with status " + observed);
      }
    }
  }

  /// Time one request (kept in last_); record suggest latencies and spans.
  std::string send(const char* verb, const std::string& line) {
    const std::uint64_t request = request_id(index_, seq_++);
    ++result_.attempted;
    const std::uint64_t start = now_ns();
    std::string response = connection_->request(line);
    const std::uint64_t end = now_ns();
    last_ = {.end_ns = end, .duration_ns = end - start};
    if (is_ok(response) && std::string_view(verb) == "suggest") {
      e2e_.add_suggest(wave_, last_);
    }
    if (spans_ != nullptr) {
      spans_->add({.name = "client.request",
                   .verb = verb,
                   .id = spans_->next_id(),
                   .parent = 0,
                   .request = request,
                   .start_ns = start,
                   .end_ns = end});
    }
    return response;
  }

  bool expect_ok(ClientSession& s, const std::string& response) {
    if (is_ok(response)) {
      return true;
    }
    ++result_.failed;
    problem(s, response);
    s.alive = false;
    return false;
  }

  void problem(const ClientSession& s, const std::string& what) {
    if (result_.problems.size() < 8) {
      result_.problems.push_back(s.name + ": " + what);
    }
  }

  int index_;
  const RunOptions& opts_;
  std::string socket_;
  const hpb::tabular::TabularObjective& table_;
  Lockstep& lockstep_;
  EndToEnd& e2e_;
  ConnectionPins& pins_;
  SpanLog* spans_;
  std::string tag_;  // seed-derived part of every session name
  LineClient* connection_ = nullptr;
  std::uint64_t seq_ = 0;
  std::size_t wave_ = 0;  // the wave being run
  Timing last_;  // the latest request's wait
  ClientResult result_;
};

/// Per-verb layer sums over the measured requests of a traced phase.
struct VerbLayers {
  double requests = 0.0;
  double client_ns = 0.0;
  double handle_ns = 0.0;
  double server_self_ns = 0.0;
  double wire_self_ns = 0.0;
  double build_ns = 0.0;
  double tuner_ns = 0.0;
  std::size_t unmatched = 0;    // requests without a handler span
  std::size_t overlapping = 0;  // children overlapping an earlier child
};

std::uint64_t overlap(const Span& a, const Span& b) {
  const std::uint64_t lo = std::max(a.start_ns, b.start_ns);
  const std::uint64_t hi = std::min(a.end_ns, b.end_ns);
  return hi > lo ? hi - lo : 0;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

PhaseResult run_serve_churn(const RunOptions& opts, bool traced) {
  PhaseResult out;
  EndToEnd e2e;
  SpanLog spans;
  // The clients' own copy of the table: they evaluate what they are told.
  const hpb::tabular::TabularObjective table =
      hpb::apps::dataset_by_name(std::string(kDataset)).make();
  const std::string phase_dir = traced ? "serve-traced" : "serve";

  // Set-up: daemon start plus the warm-up create (which builds the dataset
  // the sessions share). Returns the daemon and the set-up time.
  ConnectionPins connection_pins;
  auto set_up = [&](int i, const ConnectionPins* pins) {
    const std::string dir = phase_dir + "/setup" + std::to_string(i);
    fs::create_directories(dir);
    const std::uint64_t start = now_ns();
    std::unique_ptr<Daemon> d = start_daemon(dir, traced, spans, pins);
    LineClient warmup(d->socket);
    const std::string created =
        warmup.request(create_line("warmup", opts.seed, false));
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    const std::string closed =
        warmup.request("{\"verb\":\"close\",\"session\":\"warmup\"}");
    if (!is_ok(created) || !is_ok(closed)) {
      out.check_failures.push_back("warm-up failed: " + created + " " +
                                   closed);
    }
    return std::make_pair(std::move(d), seconds);
  };
  // Timed repeats, each confined to one CPU in turn with the daemon threads
  // it starts: half before the measured interval and half after it, so the
  // quickest one samples the disk at two moments a run apart. (A phase ends
  // by deleting thousands of journals, and on a disk with online discard
  // that slows a create-and-sync for seconds: the next run's first half
  // may fall into that stretch.) The daemon that serves the measurement is
  // set up once more, untimed, so its threads may run on every CPU.
  auto timed_set_ups = [&](int first, int count) {
    const CpuRotation rotation;
    for (int i = first; i < first + count; ++i) {
      rotation.pin(static_cast<std::size_t>(i));
      e2e.setup_s.push_back(set_up(i, nullptr).second);
    }
    (void)spans.take();  // set-up requests are not part of the measurement
  };
  timed_set_ups(0, kSetupRepeats / 2);
  std::unique_ptr<Daemon> daemon =
      set_up(kSetupRepeats, &connection_pins).first;
  (void)spans.take();
  const std::string journal_fs =
      filesystem_name(daemon->manager->config().journal_dir);
  const std::uint64_t created_before = daemon->manager->created_count();

  const std::uint64_t steal_before = steal_ticks_now();
  std::vector<ClientResult> results(kClients);
  Lockstep lockstep(opts.seconds, now_ns());
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        results[c] = Client(c, opts, daemon->socket, table, lockstep, e2e,
                            connection_pins, traced ? &spans : nullptr)
                         .run();
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  e2e.finish(lockstep.waves());
  out.steal_ticks = steal_ticks_now() - steal_before;
  daemon->server->stop();
  const std::vector<Span> all = spans.take();
  timed_set_ups(kSetupRepeats + 1, kSetupRepeats - kSetupRepeats / 2);

  Digest digest;
  std::uint64_t suggests = 0;
  std::vector<std::string> sessions;
  for (ClientResult& r : results) {
    e2e.best_ratio.insert(e2e.best_ratio.end(), r.prefix_best_ratio.begin(),
                          r.prefix_best_ratio.end());
    out.attempted += r.attempted;
    out.failed += r.failed;
    suggests += r.suggest_requests;
    for (std::uint64_t d : r.prefix_digests) {
      digest.add(d);
    }
    sessions.insert(sessions.end(), r.sessions.begin(), r.sessions.end());
    out.check_failures.insert(out.check_failures.end(), r.problems.begin(),
                              r.problems.end());
  }
  out.digest = digest.hex();
  out.end_to_end = e2e.metrics();
  out.late_samples = e2e.late_samples();

  // Output checks: evictions and resumes both happened, every session was
  // created and closed, and every closed journal re-reads to its budget.
  hpb::core::SessionManager& manager = *daemon->manager;
  const std::uint64_t created = manager.created_count() - created_before;
  if (manager.evicted_count() == 0 || manager.resumed_count() == 0) {
    out.check_failures.push_back(
        "expected evictions and resumes, got " +
        std::to_string(manager.evicted_count()) + " and " +
        std::to_string(manager.resumed_count()));
  }
  if (created != sessions.size() ||
      manager.closed_count() != manager.created_count()) {
    out.check_failures.push_back(
        std::to_string(sessions.size()) + " sessions requested, " +
        std::to_string(created) + " created, " +
        std::to_string(manager.closed_count()) + " closed");
  }
  double journal_bytes = 0.0;
  double journal_observations = 0.0;
  for (const std::string& name : sessions) {
    const std::string path = manager.journal_path(name);
    try {
      const hpb::core::JournalContents contents =
          hpb::core::read_journal(path);
      journal_bytes += static_cast<double>(fs::file_size(path));
      journal_observations += static_cast<double>(contents.num_observations());
      if (!contents.finalized ||
          contents.num_observations() != kEvalsPerSession) {
        out.check_failures.push_back(
            "journal " + name + " holds " +
            std::to_string(contents.num_observations()) + " observations" +
            (contents.finalized ? "" : " and is not finalized"));
      }
    } catch (const std::exception& e) {
      out.check_failures.push_back("journal " + name + ": " + e.what());
    }
  }

  std::size_t waves = 0;
  for (const ClientResult& r : results) {
    waves += r.waves;
  }
  out.detail_json =
      "\"journal_fs\":\"" + journal_fs + "\",\"clients\":" +
      std::to_string(kClients) + ",\"sessions_per_client\":" +
      std::to_string(kSessionsPerClient) + ",\"waves\":" +
      std::to_string(waves) + ",\"prefix_waves_per_client\":" +
      std::to_string(kPrefixWaves) + ",\"sessions\":" +
      std::to_string(sessions.size()) + ",\"max_resident\":" +
      std::to_string(kMaxResident) + ",\"evicted\":" +
      std::to_string(manager.evicted_count()) + ",\"resumed\":" +
      std::to_string(manager.resumed_count());

  if (traced) {
    // Group the spans by request: the client span is the root, the handler
    // span its child, builds and tuner calls the handler's children.
    struct Request {
      const Span* client = nullptr;
      const Span* handler = nullptr;
      std::vector<const Span*> children;
    };
    std::unordered_map<std::uint64_t, Request> requests;
    double builds = 0.0, build_ns = 0.0;
    double tuner_suggests = 0.0, tuner_suggest_ns = 0.0;
    double tuner_observes = 0.0, tuner_observe_ns = 0.0;
    for (const Span& s : all) {
      const std::string_view name = s.name;
      if (name == "client.request") {
        requests[s.request].client = &s;
      } else if (name == "service.wire.handle_line") {
        requests[s.request].handler = &s;
      } else {
        requests[s.request].children.push_back(&s);
        if (name == "core.session_manager.build") {
          builds += 1.0;
          build_ns += static_cast<double>(s.duration());
        } else if (name == "core.tuner.suggest") {
          tuner_suggests += 1.0;
          tuner_suggest_ns += static_cast<double>(s.duration());
        } else if (name == "core.tuner.observe") {
          tuner_observes += 1.0;
          tuner_observe_ns += static_cast<double>(s.duration());
        }
      }
    }

    VerbLayers by_verb[2];  // suggest, observe
    for (auto& [id, r] : requests) {
      if (r.client == nullptr) {
        continue;
      }
      const std::string_view verb = r.client->verb;
      if (verb != "suggest" && verb != "observe") {
        continue;
      }
      VerbLayers& v = by_verb[verb == "suggest" ? 0 : 1];
      v.requests += 1.0;
      v.client_ns += static_cast<double>(r.client->duration());
      if (r.handler == nullptr || std::string_view(r.handler->verb) != verb) {
        ++v.unmatched;
        v.server_self_ns += static_cast<double>(r.client->duration());
        continue;
      }
      // Self time of a span: its duration minus the part its children
      // cover. Children that leak outside their parent break the sum;
      // children that overlap each other would be counted twice.
      v.handle_ns += static_cast<double>(r.handler->duration());
      v.server_self_ns += static_cast<double>(
          r.client->duration() - overlap(*r.client, *r.handler));
      std::sort(r.children.begin(), r.children.end(),
                [](const Span* a, const Span* b) {
                  return a->start_ns < b->start_ns;
                });
      std::uint64_t covered = 0;
      std::uint64_t previous_end = 0;
      for (const Span* child : r.children) {
        covered += overlap(*child, *r.handler);
        (std::string_view(child->name) == "core.session_manager.build"
             ? v.build_ns
             : v.tuner_ns) += static_cast<double>(child->duration());
        if (child->start_ns < previous_end) {
          ++v.overlapping;
        }
        previous_end = std::max(previous_end, child->end_ns);
      }
      v.wire_self_ns += static_cast<double>(r.handler->duration()) -
                        static_cast<double>(covered);
    }

    const VerbLayers& sg = by_verb[0];
    const VerbLayers& ob = by_verb[1];
    Layers l;
    l.server_self_us = per(sg.server_self_ns + ob.server_self_ns,
                           sg.requests + ob.requests) / 1e3;
    l.wire_suggest_us = per(sg.handle_ns, sg.requests) / 1e3;
    l.wire_observe_us = per(ob.handle_ns, ob.requests) / 1e3;
    l.wire_self_us = per(sg.wire_self_ns + ob.wire_self_ns,
                         sg.requests + ob.requests) / 1e3;
    l.build_us = per(build_ns, builds) / 1e3;
    l.resumes_per_suggest =
        per(static_cast<double>(manager.resumed_count()),
            static_cast<double>(suggests));
    l.journal_bytes_per_eval = per(journal_bytes, journal_observations);
    l.tuner_suggest_us = per(tuner_suggest_ns, tuner_suggests) / 1e3;
    l.tuner_observe_us = per(tuner_observe_ns, tuner_observes) / 1e3;
    l.tuner_calls_per_suggest =
        per(tuner_suggests, static_cast<double>(suggests));
    out.per_layer = per_layer_metrics(l);

    out.detail_json += ",\"layers\":{\"tolerance\":" +
                       json_number(kAccountingTolerance);
    const char* names[2] = {"suggest", "observe"};
    for (int i = 0; i < 2; ++i) {
      const VerbLayers& v = by_verb[i];
      const double client_us = per(v.client_ns, v.requests) / 1e3;
      const double server_us = per(v.server_self_ns, v.requests) / 1e3;
      const double wire_us = per(v.wire_self_ns, v.requests) / 1e3;
      const double build_us = per(v.build_ns, v.requests) / 1e3;
      const double tuner_us = per(v.tuner_ns, v.requests) / 1e3;
      const double sum_us = server_us + wire_us + build_us + tuner_us;
      const double rel_error = per(std::abs(sum_us - client_us), client_us);
      out.detail_json += std::string(",\"") + names[i] +
                         "\":{\"requests\":" + json_number(v.requests) +
                         ",\"client_mean_us\":" + json_number(client_us) +
                         ",\"server_self_us\":" + json_number(server_us) +
                         ",\"wire_self_us\":" + json_number(wire_us) +
                         ",\"build_us\":" + json_number(build_us) +
                         ",\"tuner_us\":" + json_number(tuner_us) +
                         ",\"sum_us\":" + json_number(sum_us) +
                         ",\"relative_error\":" + json_number(rel_error) +
                         ",\"unmatched\":" + std::to_string(v.unmatched) +
                         ",\"overlapping\":" + std::to_string(v.overlapping) +
                         "}";
      if (v.unmatched > 0 || v.overlapping > 0 ||
          rel_error > kAccountingTolerance) {
        out.check_failures.push_back(
            std::string("layer accounting (") + names[i] + "): layers sum to " +
            json_number(sum_us) + " us against a client mean of " +
            json_number(client_us) + " us, " + std::to_string(v.unmatched) +
            " requests without a handler span, " +
            std::to_string(v.overlapping) +
            " build or tuner spans overlapping another of their request");
      }
    }
    out.detail_json += "}";

    // Span file: the requests of the first prefix wave of each client,
    // with handler spans linked to their client span.
    const std::uint64_t per_wave_requests =
        kSessionsPerClient * (2 + 2 * kEvalsPerSession / kSuggestCount);
    for (const Span& s : all) {
      if ((s.request & 0xffffffffULL) >= per_wave_requests) {
        continue;
      }
      Span linked = s;
      const auto r = requests.find(s.request);
      if (std::string_view(s.name) == "service.wire.handle_line" &&
          r != requests.end() && r->second.client != nullptr) {
        linked.parent = r->second.client->id;
      }
      out.trace_lines.push_back(span_json(linked));
    }
  }

  daemon.reset();
  fs::remove_all(phase_dir);
  return out;
}

}  // namespace perfbench
