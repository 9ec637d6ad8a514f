// Load generator for the tuning service: drives thousands of interleaved
// sessions through a real LineServer socket and reports wire-level
// latency.
//
// Topology: one in-process SessionManager (journal-backed, LRU-evicting)
// behind a WireService + LineServer on a Unix socket; N worker threads,
// each holding one connection and a *window* of open sessions it
// round-robins across. The window interleaving is the point — a session is
// touched, left idle while its worker serves the rest of the window, and
// touched again, which is exactly the access pattern that drives LRU
// eviction and journal resume when max_resident < workers × window. Each
// session runs create → (suggest → evaluate client-side → observe)* →
// close for a fixed number of evaluations.
//
// All run artifacts (socket, session journals) live in a private mkdtemp
// directory that is removed on every exit path — normal return, die(),
// SIGINT/SIGTERM — so an interrupted bench never litters the repository
// with stray sockets.
//
// --chaos adds a survivability proof: the daemon runs as a *separate
// process* (this binary re-exec'd with --serve-child), a reference pass
// records every session's suggest sequence against an unharmed daemon,
// then a second pass SIGKILLs the daemon mid-storm, restarts it on the
// same session dir, resyncs every client from `status`, and requires the
// completed suggest sequences to be bitwise-identical to the reference —
// plus it measures kill→healthy recovery latency via the `health` verb.
//
// Reported (and written as JSON): client-observed p50/p99/mean latency per
// verb, sessions/sec, suggests/sec, the manager's eviction/resume
// counters, and (with --chaos) recovery latency and the bitwise verdict,
// so a perf or durability regression shows up as a number, not a feeling.
//
// Usage: service_storm [--smoke] [--chaos] [--sessions N] [--workers N]
//                      [--window N] [--evals N] [--batch N]
//                      [--max-resident N] [--method NAME] [--dataset NAME]
//                      [--out PATH]
//   --smoke   tiny run (CI wiring check, label `bench`)
//   --chaos   kill/restart survivability phase (spawns child daemons)
//   --out     JSON output path (default BENCH_service.json)
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/session_manager.hpp"
#include "obs/json_util.hpp"
#include "service/factory.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "tabular/tabular_objective.hpp"

namespace hpb {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Run-artifact cleanup, robust against every exit path.
//
// The signal handler may only touch async-signal-safe calls: it kills the
// chaos child (so no orphan daemon outlives the bench), unlinks the bound
// sockets, and _exits. The full temp-dir removal runs on the normal and
// die() paths, where std::filesystem is allowed.

char g_temp_dir[512] = "";
char g_socket_paths[2][512] = {"", ""};
std::atomic<int> g_child_pid{0};

void storm_signal_handler(int) {
  const int child = g_child_pid.load(std::memory_order_relaxed);
  if (child > 0) {
    ::kill(child, SIGKILL);
  }
  for (const char* path : g_socket_paths) {
    if (path[0] != '\0') {
      ::unlink(path);
    }
  }
  ::_exit(130);
}

void remove_run_artifacts() {
  const int child = g_child_pid.exchange(0, std::memory_order_relaxed);
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  if (g_temp_dir[0] != '\0') {
    std::error_code ec;
    std::filesystem::remove_all(g_temp_dir, ec);
    g_temp_dir[0] = '\0';
  }
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "service_storm: %s\n", message.c_str());
  remove_run_artifacts();
  std::exit(1);
}

void register_socket_path(std::size_t slot, const std::string& path) {
  if (slot < 2 && path.size() < sizeof(g_socket_paths[0])) {
    std::memcpy(g_socket_paths[slot], path.c_str(), path.size() + 1);
  }
}

std::string make_temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && base[0] != '\0' ? base
                                                                    : "/tmp") +
                     "/hpb_storm.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    die("mkdtemp '" + tmpl + "': " + std::strerror(errno));
  }
  const std::string dir(buf.data());
  if (dir.size() < sizeof(g_temp_dir)) {
    std::memcpy(g_temp_dir, dir.c_str(), dir.size() + 1);
  }
  return dir;
}

/// Blocking line-oriented client over a Unix socket. `fatal` clients die()
/// on any socket error; non-fatal ones report it through connected() /
/// empty rpc() results (the chaos pass expects the daemon to vanish).
class LineClient {
 public:
  explicit LineClient(const std::string& path, bool fatal = true)
      : fatal_(fatal) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      fail("socket: " + std::string(std::strerror(errno)));
      return;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect '" + path + "': " + std::strerror(errno));
    }
  }
  ~LineClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// One request, one response line. Returns "" (never valid JSON) when a
  /// non-fatal client loses the server mid-call.
  std::string rpc(const std::string& request) {
    if (fd_ < 0) {
      return {};
    }
    std::string out = request + "\n";
    std::string_view data = out;
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        fail("send: " + std::string(std::strerror(errno)));
        return {};
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        fail("server closed the connection mid-response");
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void fail(const std::string& message) {
    if (fatal_) {
      die(message);
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
  bool fatal_ = true;
  std::string buffer_;
};

service::JsonValue expect_ok(const std::string& response) {
  service::JsonValue v = service::parse_json(response);
  const service::JsonValue* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    die("request failed: " + response);
  }
  return v;
}

struct Percentiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  std::size_t count = 0;
};

Percentiles summarize(std::vector<std::uint64_t>& ns) {
  Percentiles out;
  out.count = ns.size();
  if (ns.empty()) {
    return out;
  }
  std::sort(ns.begin(), ns.end());
  const auto at = [&](double q) {
    const std::size_t i = std::min(
        ns.size() - 1, static_cast<std::size_t>(q * double(ns.size() - 1)));
    return static_cast<double>(ns[i]) * 1e-6;
  };
  out.p50_ms = at(0.50);
  out.p99_ms = at(0.99);
  double sum = 0.0;
  for (const std::uint64_t v : ns) {
    sum += static_cast<double>(v);
  }
  out.mean_ms = sum * 1e-6 / static_cast<double>(ns.size());
  return out;
}

struct Options {
  std::size_t sessions = 10000;
  std::size_t workers = 8;
  std::size_t window = 32;
  std::size_t evals = 6;
  std::size_t batch = 2;
  std::size_t max_resident = 128;
  /// Evaluations per mode in the async-vs-sync throughput comparison
  /// (straggler-skewed simulated evaluation times).
  std::size_t compare_evals = 400;
  std::string method = "random";
  std::string dataset = "kripke";
  std::string out = "BENCH_service.json";
  bool smoke = false;
  bool chaos = false;
  /// This binary's own path (argv[0]); --chaos re-execs it with
  /// --serve-child to host the daemon out of process.
  std::string self;
};

// ---------------------------------------------------------------------------
// Async-vs-sync throughput comparison.
//
// Simulated straggler-skewed evaluation times (deterministic per eval
// index): most evaluations are fast, a few are stragglers an order of
// magnitude slower — the skew every shared HPC queue produces. A sync
// client must hold the whole round open until its slowest member returns;
// an async client observes each completion as it lands and immediately
// refills the slot with suggest count=1, so a straggler occupies one slot
// instead of stalling the round.

constexpr double kShortEvalMs = 0.2;
constexpr double kStragglerEvalMs = 8.0;
constexpr std::uint64_t kStragglerOneIn = 10;  // 10% stragglers

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double eval_delay_ms(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(seed * 0x100000001B3ULL + index) % kStragglerOneIn == 0
             ? kStragglerEvalMs
             : kShortEvalMs;
}

/// Parse one suggest/observe response's configs into value vectors.
std::vector<std::vector<double>> parse_configs(
    const service::JsonValue& response) {
  std::vector<std::vector<double>> out;
  const auto& configs = response.find("configs")->as_array();
  out.reserve(configs.size());
  for (const service::JsonValue& c : configs) {
    std::vector<double> values;
    values.reserve(c.as_array().size());
    for (const service::JsonValue& v : c.as_array()) {
      values.push_back(v.as_number());
    }
    out.push_back(std::move(values));
  }
  return out;
}

std::string config_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += obs::json_double(values[i]);
  }
  out += ']';
  return out;
}

double evaluate_values(tabular::TabularObjective& dataset,
                       const std::vector<double>& values) {
  space::Configuration config;
  config.values() = values;
  return dataset.evaluate_result(config).value;
}

/// Sync mode: whole rounds, each held open for its slowest member.
double run_compare_sync(const std::string& socket_path,
                        tabular::TabularObjective& dataset,
                        const Options& opt, std::size_t evals,
                        std::size_t batch) {
  LineClient client(socket_path);
  expect_ok(client.rpc(
      "{\"verb\":\"create\",\"session\":\"cmp_sync\",\"dataset\":\"" +
      opt.dataset + "\",\"method\":\"hiperbot\",\"batch_size\":" +
      std::to_string(batch) + ",\"max_evaluations\":" +
      std::to_string(evals) + ",\"seed\":1}"));
  const auto t0 = Clock::now();
  std::size_t done = 0;
  std::uint64_t index = 0;
  while (done < evals) {
    const service::JsonValue suggest = expect_ok(
        client.rpc("{\"verb\":\"suggest\",\"session\":\"cmp_sync\"}"));
    const std::vector<std::vector<double>> configs = parse_configs(suggest);
    double round_ms = 0.0;
    std::string results = "[";
    for (std::size_t i = 0; i < configs.size(); ++i) {
      round_ms = std::max(round_ms, eval_delay_ms(1, index++));
      if (i > 0) {
        results += ',';
      }
      results += "{\"config\":" + config_json(configs[i]) + ",\"y\":" +
                 obs::json_double(evaluate_values(dataset, configs[i])) + "}";
    }
    results += ']';
    // The round completes when its slowest evaluation does.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(round_ms));
    expect_ok(client.rpc("{\"verb\":\"observe\",\"session\":\"cmp_sync\","
                         "\"results\":" + results + "}"));
    done += configs.size();
  }
  const double wall_s =
      static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-9;
  expect_ok(client.rpc("{\"verb\":\"close\",\"session\":\"cmp_sync\"}"));
  return wall_s;
}

/// Async mode: a window of outstanding tokens; each completion is observed
/// the moment it lands and its slot refilled with suggest count=1.
double run_compare_async(const std::string& socket_path,
                         tabular::TabularObjective& dataset,
                         const Options& opt, std::size_t evals,
                         std::size_t batch) {
  LineClient client(socket_path);
  expect_ok(client.rpc(
      "{\"verb\":\"create\",\"session\":\"cmp_async\",\"dataset\":\"" +
      opt.dataset + "\",\"method\":\"hiperbot\",\"mode\":\"async\","
      "\"batch_size\":" + std::to_string(batch) + ",\"max_evaluations\":" +
      std::to_string(evals) + ",\"seed\":1}"));
  struct InFlight {
    Clock::time_point ready;
    std::uint64_t token = 0;
    double y = 0.0;
  };
  const auto later = [](const InFlight& a, const InFlight& b) {
    return a.ready > b.ready;
  };
  std::vector<InFlight> heap;  // min-heap on completion time
  const auto t0 = Clock::now();
  std::uint64_t index = 0;
  std::size_t issued = 0;
  const auto issue = [&](std::size_t count) {
    const service::JsonValue suggest = expect_ok(client.rpc(
        "{\"verb\":\"suggest\",\"session\":\"cmp_async\",\"count\":" +
        std::to_string(count) + "}"));
    const std::vector<std::vector<double>> configs = parse_configs(suggest);
    const auto& tokens = suggest.find("tokens")->as_array();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      InFlight f;
      f.ready = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        eval_delay_ms(1, index++)));
      f.token = static_cast<std::uint64_t>(tokens[i].as_number());
      f.y = evaluate_values(dataset, configs[i]);
      heap.push_back(f);
      std::push_heap(heap.begin(), heap.end(), later);
      ++issued;
    }
  };
  issue(batch);
  std::size_t done = 0;
  while (done < evals) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const InFlight f = heap.back();
    heap.pop_back();
    std::this_thread::sleep_until(f.ready);
    expect_ok(client.rpc(
        "{\"verb\":\"observe\",\"session\":\"cmp_async\",\"results\":"
        "[{\"token\":" + std::to_string(f.token) + ",\"y\":" +
        obs::json_double(f.y) + "}]}"));
    ++done;
    if (issued < evals) {
      issue(1);
    }
  }
  const double wall_s =
      static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-9;
  expect_ok(client.rpc("{\"verb\":\"close\",\"session\":\"cmp_async\"}"));
  return wall_s;
}

struct WorkerStats {
  std::vector<std::uint64_t> suggest_ns;
  std::vector<std::uint64_t> observe_ns;
  std::size_t sessions_completed = 0;
};

/// One open session as the client sees it: its name and how far along it
/// is.
struct SlotState {
  std::string name;
  std::size_t evals_done = 0;
  bool active = false;
};

void run_worker(const Options& opt, const std::string& socket_path,
                tabular::TabularObjective& dataset,
                std::atomic<std::size_t>& next_session, WorkerStats& stats) {
  LineClient client(socket_path);
  std::vector<SlotState> window(opt.window);
  const std::string create_suffix =
      std::string("\",\"dataset\":\"") + opt.dataset + "\",\"method\":\"" +
      opt.method + "\",\"batch_size\":" + std::to_string(opt.batch) +
      ",\"max_evaluations\":" + std::to_string(opt.evals) + ",\"seed\":";

  std::size_t active = 0;
  bool draining = false;
  std::size_t slot = 0;
  while (true) {
    // Fill empty slots with fresh sessions until the global quota is out.
    if (!draining) {
      for (SlotState& s : window) {
        if (s.active) {
          continue;
        }
        const std::size_t id =
            next_session.fetch_add(1, std::memory_order_relaxed);
        if (id >= opt.sessions) {
          draining = true;
          break;
        }
        s.name = "s" + std::to_string(id);
        s.evals_done = 0;
        s.active = true;
        ++active;
        expect_ok(client.rpc("{\"verb\":\"create\",\"session\":\"" + s.name +
                             create_suffix + std::to_string(id) + "}"));
      }
    }
    if (active == 0) {
      return;  // drained: every session this worker owned is closed
    }
    // Round-robin: one suggest/observe round for the next active slot.
    while (!window[slot % opt.window].active) {
      ++slot;
    }
    SlotState& s = window[slot % opt.window];
    ++slot;

    const auto t0 = Clock::now();
    const service::JsonValue suggest = expect_ok(
        client.rpc("{\"verb\":\"suggest\",\"session\":\"" + s.name + "\"}"));
    stats.suggest_ns.push_back(elapsed_ns(t0, Clock::now()));

    // Evaluate client-side against the same tabular dataset the service
    // tunes over — the remote-evaluation split the service exists for.
    std::string results = "[";
    const auto& configs = suggest.find("configs")->as_array();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto& values = configs[i].as_array();
      space::Configuration config;
      config.values().reserve(values.size());
      std::string config_json = "[";
      for (std::size_t j = 0; j < values.size(); ++j) {
        config.values().push_back(values[j].as_number());
        if (j > 0) {
          config_json += ',';
        }
        config_json += obs::json_double(values[j].as_number());
      }
      config_json += ']';
      const tabular::EvalResult r = dataset.evaluate_result(config);
      if (i > 0) {
        results += ',';
      }
      results += "{\"config\":" + config_json +
                 ",\"y\":" + obs::json_double(r.value) + "}";
    }
    results += ']';
    s.evals_done += configs.size();

    const auto t1 = Clock::now();
    expect_ok(client.rpc("{\"verb\":\"observe\",\"session\":\"" + s.name +
                         "\",\"results\":" + results + "}"));
    stats.observe_ns.push_back(elapsed_ns(t1, Clock::now()));

    if (s.evals_done >= opt.evals) {
      expect_ok(client.rpc("{\"verb\":\"close\",\"session\":\"" + s.name +
                           "\"}"));
      s.active = false;
      --active;
      ++stats.sessions_completed;
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos phase: out-of-process daemon, SIGKILL mid-storm, restart, verify.

/// The daemon half of --chaos: exactly what `hiperbot serve` does, hosted
/// by this binary so the bench needs no second executable. Runs until
/// SIGTERM (clean shutdown) — or SIGKILL, which is the point.
std::atomic<bool> g_serve_child_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void serve_child_signal(int) {
  g_serve_child_stop.store(true, std::memory_order_relaxed);
}

int run_serve_child(const std::string& socket_path,
                    const std::string& session_dir) {
  std::signal(SIGTERM, serve_child_signal);
  std::signal(SIGINT, serve_child_signal);
  core::SessionManagerConfig mconfig;
  mconfig.journal_dir = session_dir;
  core::SessionManager manager(service::dataset_session_factory(),
                               std::move(mconfig));
  service::WireService wire(manager);
  service::LineServer server(
      [&wire](std::string_view line) { return wire.handle_line(line); },
      {.unix_path = socket_path, .stop_flag = &g_serve_child_stop});
  server.serve();
  server.stop();
  return 0;
}

int spawn_daemon(const Options& opt, const std::string& socket_path,
                 const std::string& session_dir) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    die("fork: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::execl(opt.self.c_str(), opt.self.c_str(), "--serve-child", "--socket",
            socket_path.c_str(), "--session-dir", session_dir.c_str(),
            static_cast<char*>(nullptr));
    // exec failed; nothing below the fork is safe except leaving.
    ::_exit(127);
  }
  g_child_pid.store(pid, std::memory_order_relaxed);
  return pid;
}

void kill_daemon(int pid, int signum) {
  ::kill(pid, signum);
  ::waitpid(pid, nullptr, 0);
  g_child_pid.store(0, std::memory_order_relaxed);
}

/// Poll the `health` verb until the daemon answers; returns ms from call
/// to first healthy response — the kill→serving recovery latency when
/// called right after a restart exec.
double wait_healthy(const std::string& socket_path, std::uint64_t* adopted,
                    int timeout_ms = 30000) {
  const auto t0 = Clock::now();
  while (true) {
    LineClient probe(socket_path, /*fatal=*/false);
    if (probe.connected()) {
      const std::string response = probe.rpc("{\"verb\":\"health\"}");
      if (!response.empty()) {
        const service::JsonValue v = expect_ok(response);
        if (adopted != nullptr) {
          *adopted = static_cast<std::uint64_t>(
              v.find("health")->find("adopted")->as_number());
        }
        return static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-6;
      }
    }
    if (static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-6 >
        static_cast<double>(timeout_ms)) {
      die("daemon did not become healthy within " +
          std::to_string(timeout_ms) + "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct ChaosStats {
  double recovery_ms = 0.0;
  std::uint64_t adopted_after_restart = 0;
  std::size_t resuggested_rounds = 0;
  std::size_t rounds = 0;
};

/// Per-session suggest sequences: seq[name][round] is the canonical JSON
/// of that round's configs. Bitwise equality of these across the reference
/// and chaos passes is the survivability verdict.
using SuggestSequences = std::map<std::string, std::vector<std::string>>;

/// Drive `sessions` interleaved sync sessions against an out-of-process
/// daemon. kill_after_suggests > 0 SIGKILLs the daemon once that many
/// suggests have been answered — with a window of unobserved rounds in
/// flight — restarts it on the same session dir, resyncs every session
/// from `status`, and finishes the workload.
SuggestSequences run_chaos_pass(const Options& opt,
                                const std::string& socket_path,
                                const std::string& session_dir,
                                tabular::TabularObjective& dataset,
                                std::size_t sessions, std::size_t evals,
                                std::size_t batch,
                                std::size_t kill_after_suggests,
                                ChaosStats* stats) {
  spawn_daemon(opt, socket_path, session_dir);
  wait_healthy(socket_path, nullptr);
  auto client = std::make_unique<LineClient>(socket_path);

  struct ChaosSlot {
    std::string name;
    std::size_t seed = 0;
    std::size_t evals_done = 0;
    bool created = false;
    bool pending = false;  // a suggested round awaits its observe
    std::vector<std::vector<double>> round_configs;
    bool finished = false;
  };
  std::vector<ChaosSlot> slots(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    slots[i].name = "c" + std::to_string(i);
    slots[i].seed = 1000 + i;
  }
  SuggestSequences seq;
  std::size_t suggests_done = 0;
  bool killed = kill_after_suggests == 0;
  std::size_t unfinished = sessions;

  const std::string create_suffix =
      std::string("\",\"dataset\":\"") + opt.dataset + "\",\"method\":\"" +
      opt.method + "\",\"batch_size\":" + std::to_string(batch) +
      ",\"max_evaluations\":" + std::to_string(evals) + ",\"seed\":";

  const auto record_round = [&](ChaosSlot& s,
                                const std::vector<std::vector<double>>& cfgs) {
    std::string rendered;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      if (i > 0) {
        rendered += ';';
      }
      rendered += config_json(cfgs[i]);
    }
    const std::size_t round = s.evals_done / batch;
    std::vector<std::string>& rounds = seq[s.name];
    if (round < rounds.size()) {
      // This round was already suggested before the kill; the resumed
      // daemon replayed the journal and must re-mint it bit for bit.
      if (rounds[round] != rendered) {
        die("resumed suggest for " + s.name + " round " +
            std::to_string(round) + " diverged:\n  before: " + rounds[round] +
            "\n  after:  " + rendered);
      }
      if (stats != nullptr) {
        ++stats->resuggested_rounds;
      }
    } else {
      rounds.push_back(rendered);
    }
  };

  const auto chaos_restart = [&]() {
    // SIGKILL: no destructors, no finalize records, fsync'd journals only
    // — the crash the journal exists for.
    kill_daemon(g_child_pid.load(std::memory_order_relaxed), SIGKILL);
    const auto t0 = Clock::now();
    spawn_daemon(opt, socket_path, session_dir);
    std::uint64_t adopted = 0;
    const double recovery_ms = wait_healthy(socket_path, &adopted);
    if (stats != nullptr) {
      stats->recovery_ms =
          static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-6;
      stats->adopted_after_restart = adopted;
      (void)recovery_ms;  // included in the spawn-to-healthy span above
    }
    client = std::make_unique<LineClient>(socket_path);
    // Resync every session from the restarted daemon's durable state: the
    // journal knows how many observations survived; unobserved rounds
    // were dropped and will be re-suggested.
    for (ChaosSlot& s : slots) {
      if (s.finished) {
        continue;
      }
      s.pending = false;
      s.round_configs.clear();
      const std::string response =
          client->rpc("{\"verb\":\"status\",\"session\":\"" + s.name + "\"}");
      const service::JsonValue v = service::parse_json(response);
      const service::JsonValue* ok = v.find("ok");
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
        s.created = true;
        s.evals_done = static_cast<std::size_t>(
            v.find("status")->find("evaluations")->as_number());
      } else {
        // Never created (the kill beat its create verb): start over.
        s.created = false;
        s.evals_done = 0;
      }
      std::vector<std::string>& rounds = seq[s.name];
      // Client-side record beyond the durable prefix belongs to rounds
      // the crash erased; keep them — the resumed daemon must re-mint
      // them identically (checked in record_round).
      (void)rounds;
    }
  };

  std::size_t cursor = 0;
  while (unfinished > 0) {
    ChaosSlot& s = slots[cursor % sessions];
    ++cursor;
    if (s.finished) {
      continue;
    }
    if (!s.created) {
      const std::string response =
          client->rpc("{\"verb\":\"create\",\"session\":\"" + s.name +
                      create_suffix + std::to_string(s.seed) + "}");
      const service::JsonValue v = service::parse_json(response);
      const service::JsonValue* ok = v.find("ok");
      if (ok == nullptr || !ok->is_bool() ||
          (!ok->as_bool() &&
           response.find("already exists") == std::string::npos)) {
        die("create failed: " + response);
      }
      // "already exists on disk (cold)" after a restart is adoption, not
      // failure: the journal survived the kill and the next verb resumes
      // it.
      s.created = true;
      continue;
    }
    if (!s.pending) {
      const service::JsonValue suggest = expect_ok(client->rpc(
          "{\"verb\":\"suggest\",\"session\":\"" + s.name + "\"}"));
      s.round_configs = parse_configs(suggest);
      record_round(s, s.round_configs);
      s.pending = true;
      ++suggests_done;
      if (!killed && suggests_done >= kill_after_suggests) {
        killed = true;
        chaos_restart();
      }
      continue;
    }
    std::string results = "[";
    for (std::size_t i = 0; i < s.round_configs.size(); ++i) {
      if (i > 0) {
        results += ',';
      }
      results += "{\"config\":" + config_json(s.round_configs[i]) +
                 ",\"y\":" +
                 obs::json_double(
                     evaluate_values(dataset, s.round_configs[i])) +
                 "}";
    }
    results += ']';
    const service::JsonValue observed = expect_ok(
        client->rpc("{\"verb\":\"observe\",\"session\":\"" + s.name +
                    "\",\"results\":" + results + "}"));
    s.evals_done = static_cast<std::size_t>(
        observed.find("status")->find("evaluations")->as_number());
    s.pending = false;
    if (s.evals_done >= evals) {
      expect_ok(client->rpc("{\"verb\":\"close\",\"session\":\"" + s.name +
                            "\"}"));
      s.finished = true;
      --unfinished;
    }
  }
  if (stats != nullptr) {
    for (const auto& [name, rounds] : seq) {
      stats->rounds += rounds.size();
    }
  }
  client.reset();
  kill_daemon(g_child_pid.load(std::memory_order_relaxed), SIGTERM);
  return seq;
}

ChaosStats run_chaos(const Options& opt, const std::string& temp_dir,
                     tabular::TabularObjective& dataset) {
  const std::size_t sessions = opt.smoke ? 8 : 32;
  const std::size_t evals = opt.smoke ? 4 : 6;
  const std::size_t batch = 2;
  const std::size_t total_suggests = sessions * (evals / batch);
  // Kill mid-stream: past the create wave, well short of done, with a
  // full window of unobserved rounds in flight.
  const std::size_t kill_after = std::max<std::size_t>(1, total_suggests / 2);

  const std::string socket_path = temp_dir + "/chaos.sock";
  register_socket_path(1, socket_path);
  std::printf(
      "  chaos          %zu sessions x %zu evals, SIGKILL after %zu/%zu "
      "suggests\n",
      sessions, evals, kill_after, total_suggests);

  const std::string ref_dir = temp_dir + "/chaos_ref.sessions";
  const SuggestSequences reference = run_chaos_pass(
      opt, socket_path, ref_dir, dataset, sessions, evals, batch,
      /*kill_after_suggests=*/0, nullptr);

  ChaosStats stats;
  const std::string chaos_dir = temp_dir + "/chaos_kill.sessions";
  const SuggestSequences survived = run_chaos_pass(
      opt, socket_path, chaos_dir, dataset, sessions, evals, batch,
      kill_after, &stats);

  if (survived != reference) {
    die("chaos pass diverged from the reference suggest sequences");
  }
  if (stats.resuggested_rounds == 0) {
    die("chaos kill landed with no unobserved rounds in flight; the "
        "resume path was not exercised");
  }
  std::printf(
      "    survived     recovery %.1fms, %llu sessions adopted, %zu/%zu "
      "rounds re-suggested bitwise-equal\n",
      stats.recovery_ms,
      static_cast<unsigned long long>(stats.adopted_after_restart),
      stats.resuggested_rounds, stats.rounds);
  return stats;
}

int run(Options opt) {
  if (opt.smoke) {
    opt.sessions = 60;
    opt.workers = 2;
    opt.window = 8;
    opt.evals = 4;
    opt.max_resident = 8;
    opt.compare_evals = 40;
  }
  std::signal(SIGINT, storm_signal_handler);
  std::signal(SIGTERM, storm_signal_handler);
  // Every run artifact lives under one private temp dir: no stray sockets
  // or journal trees in the working directory, one remove_all to clean up.
  const std::string temp_dir = make_temp_dir();
  const std::string session_dir = temp_dir + "/storm.sessions";
  const std::string socket_path = temp_dir + "/storm.sock";
  register_socket_path(0, socket_path);

  core::SessionManagerConfig mconfig;
  mconfig.journal_dir = session_dir;
  mconfig.max_resident = opt.max_resident;
  core::SessionManager manager(service::dataset_session_factory(),
                               std::move(mconfig));
  service::WireService wire(manager);
  service::LineServer server(
      [&wire](std::string_view line) { return wire.handle_line(line); },
      {.unix_path = socket_path});
  server.start();

  // The client-side copy of the dataset (the service's factory builds its
  // own; values are identical by construction). Tabular evaluation is a
  // read-only lookup, safe to share across worker threads.
  tabular::TabularObjective dataset = apps::dataset_by_name(opt.dataset).make();

  std::printf(
      "service_storm: %zu sessions x %zu evals (batch %zu, method %s), "
      "%zu workers x window %zu, max_resident %zu\n",
      opt.sessions, opt.evals, opt.batch, opt.method.c_str(), opt.workers,
      opt.window, opt.max_resident);

  std::atomic<std::size_t> next_session{0};
  std::vector<WorkerStats> stats(opt.workers);
  std::vector<std::thread> workers;
  workers.reserve(opt.workers);
  const auto t0 = Clock::now();
  for (std::size_t w = 0; w < opt.workers; ++w) {
    workers.emplace_back([&, w] {
      run_worker(opt, socket_path, dataset, next_session, stats[w]);
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const double wall_s = static_cast<double>(elapsed_ns(t0, Clock::now())) * 1e-9;

  std::vector<std::uint64_t> suggest_ns;
  std::vector<std::uint64_t> observe_ns;
  std::size_t completed = 0;
  for (WorkerStats& s : stats) {
    suggest_ns.insert(suggest_ns.end(), s.suggest_ns.begin(),
                      s.suggest_ns.end());
    observe_ns.insert(observe_ns.end(), s.observe_ns.begin(),
                      s.observe_ns.end());
    completed += s.sessions_completed;
  }
  if (completed != opt.sessions) {
    die("completed " + std::to_string(completed) + " of " +
        std::to_string(opt.sessions) + " sessions");
  }
  if (manager.resident_count() != 0) {
    die("expected every session closed, " +
        std::to_string(manager.resident_count()) + " still resident");
  }
  const Percentiles suggest = summarize(suggest_ns);
  const Percentiles observe = summarize(observe_ns);
  const double sessions_per_sec =
      static_cast<double>(completed) / std::max(wall_s, 1e-9);

  std::printf("  wall time      %.2fs (%.0f sessions/s, %.0f suggests/s)\n",
              wall_s, sessions_per_sec,
              static_cast<double>(suggest.count) / std::max(wall_s, 1e-9));
  std::printf("  suggest        p50 %.3fms  p99 %.3fms  mean %.3fms  (n=%zu)\n",
              suggest.p50_ms, suggest.p99_ms, suggest.mean_ms, suggest.count);
  std::printf("  observe        p50 %.3fms  p99 %.3fms  mean %.3fms  (n=%zu)\n",
              observe.p50_ms, observe.p99_ms, observe.mean_ms, observe.count);
  std::printf("  manager        %llu created, %llu evicted, %llu resumed, "
              "%llu closed\n",
              static_cast<unsigned long long>(manager.created_count()),
              static_cast<unsigned long long>(manager.evicted_count()),
              static_cast<unsigned long long>(manager.resumed_count()),
              static_cast<unsigned long long>(manager.closed_count()));

  // Interleaved windows larger than the residency cap must actually have
  // exercised the eviction/resume path — a silent zero here would mean the
  // bench measured nothing but the hot path.
  if (opt.max_resident < opt.workers * opt.window &&
      (manager.evicted_count() == 0 || manager.resumed_count() == 0)) {
    die("eviction/resume path was not exercised (evicted=" +
        std::to_string(manager.evicted_count()) + ", resumed=" +
        std::to_string(manager.resumed_count()) + ")");
  }

  // Straggler-skewed throughput: the same service, one client per mode.
  // Sync pays max(delay) per round; async pays each delay once, overlapped
  // across the token window, and should clearly win.
  const std::size_t cmp_evals = opt.compare_evals;
  const std::size_t cmp_batch = std::max<std::size_t>(4, opt.batch);
  const double sync_wall_s =
      run_compare_sync(socket_path, dataset, opt, cmp_evals, cmp_batch);
  const double async_wall_s =
      run_compare_async(socket_path, dataset, opt, cmp_evals, cmp_batch);
  const double sync_eps =
      static_cast<double>(cmp_evals) / std::max(sync_wall_s, 1e-9);
  const double async_eps =
      static_cast<double>(cmp_evals) / std::max(async_wall_s, 1e-9);
  const double speedup = async_eps / std::max(sync_eps, 1e-9);
  std::printf(
      "  async-vs-sync  %zu evals, window %zu, %.0f%% stragglers "
      "(%.1fms vs %.1fms)\n",
      cmp_evals, cmp_batch, 100.0 / static_cast<double>(kStragglerOneIn),
      kStragglerEvalMs, kShortEvalMs);
  std::printf("    sync         %.2fs (%.0f evals/s)\n", sync_wall_s,
              sync_eps);
  std::printf("    async        %.2fs (%.0f evals/s, %.2fx)\n", async_wall_s,
              async_eps, speedup);
  if (!opt.smoke && speedup <= 1.0) {
    die("async mode did not beat sync batch throughput (speedup " +
        std::to_string(speedup) + "x)");
  }
  server.stop();

  // Survivability proof, against an out-of-process daemon (the in-process
  // one above is stopped; its worker threads are joined, so the fork+exec
  // below starts from a quiet process).
  ChaosStats chaos;
  if (opt.chaos) {
    chaos = run_chaos(opt, temp_dir, dataset);
  }

  std::string json = "{\n  \"bench\": \"service_storm\",\n";
  json += "  \"sessions\": " + std::to_string(opt.sessions) + ",\n";
  json += "  \"workers\": " + std::to_string(opt.workers) + ",\n";
  json += "  \"window\": " + std::to_string(opt.window) + ",\n";
  json += "  \"evals_per_session\": " + std::to_string(opt.evals) + ",\n";
  json += "  \"batch_size\": " + std::to_string(opt.batch) + ",\n";
  json += "  \"max_resident\": " + std::to_string(opt.max_resident) + ",\n";
  json += "  \"method\": \"" + opt.method + "\",\n";
  json += "  \"dataset\": \"" + opt.dataset + "\",\n";
  json += "  \"wall_seconds\": " + obs::json_double(wall_s) + ",\n";
  json += "  \"sessions_per_sec\": " + obs::json_double(sessions_per_sec) +
          ",\n";
  const auto verb_json = [](const char* name, const Percentiles& p) {
    return std::string("  \"") + name + "\": {\"p50_ms\": " +
           obs::json_double(p.p50_ms) + ", \"p99_ms\": " +
           obs::json_double(p.p99_ms) + ", \"mean_ms\": " +
           obs::json_double(p.mean_ms) + ", \"count\": " +
           std::to_string(p.count) + "}";
  };
  json += verb_json("suggest", suggest) + ",\n";
  json += verb_json("observe", observe) + ",\n";
  json += "  \"async_compare\": {\"evals\": " + std::to_string(cmp_evals) +
          ", \"window\": " + std::to_string(cmp_batch) +
          ", \"straggler_rate\": " +
          obs::json_double(1.0 / static_cast<double>(kStragglerOneIn)) +
          ", \"short_ms\": " + obs::json_double(kShortEvalMs) +
          ", \"straggler_ms\": " + obs::json_double(kStragglerEvalMs) +
          ",\n    \"sync\": {\"wall_seconds\": " +
          obs::json_double(sync_wall_s) + ", \"evals_per_sec\": " +
          obs::json_double(sync_eps) +
          "},\n    \"async\": {\"wall_seconds\": " +
          obs::json_double(async_wall_s) + ", \"evals_per_sec\": " +
          obs::json_double(async_eps) + "},\n    \"speedup\": " +
          obs::json_double(speedup) + "},\n";
  if (opt.chaos) {
    json += "  \"chaos\": {\"recovery_ms\": " +
            obs::json_double(chaos.recovery_ms) +
            ", \"adopted_after_restart\": " +
            std::to_string(chaos.adopted_after_restart) +
            ", \"resuggested_rounds\": " +
            std::to_string(chaos.resuggested_rounds) + ", \"rounds\": " +
            std::to_string(chaos.rounds) + ", \"bitwise_equal\": true},\n";
  }
  json += "  \"evicted\": " + std::to_string(manager.evicted_count()) + ",\n";
  json += "  \"resumed\": " + std::to_string(manager.resumed_count()) + ",\n";
  json += "  \"connections\": " +
          std::to_string(server.connections_accepted()) + "\n}\n";
  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    die("cannot write " + opt.out);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", opt.out.c_str());

  // The journals are run artifacts, not results: a clean exit leaves only
  // the JSON report behind.
  remove_run_artifacts();
  return 0;
}

}  // namespace
}  // namespace hpb

int main(int argc, char** argv) {
  hpb::Options opt;
  opt.self = argc > 0 ? argv[0] : "service_storm";
  bool serve_child = false;
  std::string child_socket;
  std::string child_session_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "service_storm: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--serve-child") {
      serve_child = true;
    } else if (arg == "--socket") {
      child_socket = next();
    } else if (arg == "--session-dir") {
      child_session_dir = next();
    } else if (arg == "--sessions") {
      opt.sessions = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--workers") {
      opt.workers = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--window") {
      opt.window = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--evals") {
      opt.evals = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--batch") {
      opt.batch = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--max-resident") {
      opt.max_resident = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--method") {
      opt.method = next();
    } else if (arg == "--dataset") {
      opt.dataset = next();
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: service_storm [--smoke] [--chaos] [--sessions N] "
                   "[--workers N] [--window N] [--evals N] [--batch N] "
                   "[--max-resident N] [--method NAME] [--dataset NAME] "
                   "[--out PATH]\n");
      return 2;
    }
  }
  if (serve_child) {
    if (child_socket.empty() || child_session_dir.empty()) {
      std::fprintf(stderr,
                   "service_storm: --serve-child needs --socket and "
                   "--session-dir\n");
      return 2;
    }
    return hpb::run_serve_child(child_socket, child_session_dir);
  }
  if (opt.sessions == 0 || opt.workers == 0 || opt.window == 0 ||
      opt.evals == 0 || opt.batch == 0) {
    std::fprintf(stderr, "service_storm: all sizes must be positive\n");
    return 2;
  }
  return hpb::run(opt);
}
