// Daemon survivability coverage:
//   - cold-start recovery: the startup scan adopts every resumable journal
//     (continuation is bitwise-identical to the uncrashed run), records
//     finalized ones, quarantines unreadable ones to *.hpbj.corrupt, and
//     create-vs-adopt collisions tell the client how to resume;
//   - disk-fault tolerance: an injected ENOSPC on one session's journal
//     append degrades exactly that session (read-only status/checkpoint,
//     structured error on mutation, never evicted) while other sessions
//     keep tuning, and the degraded session's durable prefix resumes
//     cleanly after a restart;
//   - fs fault-injection seam: typed IoError with the planned errno, skip
//     budget, matched-op counter;
//   - idempotent wire retries: a retried rid returns the recorded response
//     byte-identically — no new tokens minted, no observation
//     double-applied — and error responses are never cached;
//   - overload shedding: the per-session pending cap and the server
//     connection cap both answer with the structured `overloaded` code;
//   - graceful drain: drained servers answer everything already sent, then
//     close; checkpoint_all covers every resident session;
//   - the `health` verb reports resident/degraded/adopted/quarantined.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "core/session.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/json_util.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::Observation;
using core::SessionManager;
using core::SessionManagerConfig;
using core::SessionSpec;
using core::SessionStatus;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "recovery_" + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

core::SessionFactory test_factory() {
  auto dataset = std::make_shared<tabular::TabularObjective>(
      testutil::separable_dataset());
  return [dataset](const SessionSpec& spec) {
    core::SessionBackend backend;
    backend.tuner = eval::make_named_tuner(spec.method, *dataset, spec.seed);
    backend.space = dataset->space_ptr();
    return backend;
  };
}

SessionSpec spec_named(const std::string& name, std::size_t batch = 2,
                       std::size_t budget = 40) {
  SessionSpec spec;
  spec.name = name;
  spec.method = "random";
  spec.dataset = "separable";
  spec.seed = 7;
  spec.batch_size = batch;
  spec.stop.max_evaluations = budget;
  return spec;
}

/// Run one full suggest→observe round and return the suggested configs.
std::vector<space::Configuration> run_round(SessionManager& manager,
                                            const std::string& name) {
  std::vector<space::Configuration> configs = manager.suggest(name, 0);
  std::vector<Observation> observations;
  observations.reserve(configs.size());
  for (const space::Configuration& c : configs) {
    Observation o;
    o.config = c;
    o.y = testutil::separable_value(c);
    observations.push_back(std::move(o));
  }
  manager.observe(name, std::move(observations));
  return configs;
}

// --------------------------------------------------- cold-start recovery

TEST(Recovery, StartupScanAdoptsResumableAndRecordsFinished) {
  const std::string dir = fresh_dir("adopt");
  {
    SessionManager manager(test_factory(), {.journal_dir = dir});
    manager.create(spec_named("alpha"));
    manager.create(spec_named("beta"));
    run_round(manager, "alpha");
    manager.create(spec_named("done"));
    manager.close("done");
    // No close for alpha/beta: the manager dies like a crashed daemon.
  }
  SessionManager restarted(test_factory(), {.journal_dir = dir});
  const core::RecoveryReport& report = restarted.recovery();
  ASSERT_EQ(report.adopted.size(), 2u);
  EXPECT_EQ(report.adopted[0], "alpha");  // sorted for determinism
  EXPECT_EQ(report.adopted[1], "beta");
  ASSERT_EQ(report.finished.size(), 1u);
  EXPECT_EQ(report.finished[0], "done");
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(restarted.health().adopted, 2u);
  // Adoption is lazy: nothing resident until a verb touches a name.
  EXPECT_EQ(restarted.resident_count(), 0u);
  EXPECT_EQ(restarted.status("alpha").evaluations, 2u);
  EXPECT_EQ(restarted.resident_count(), 1u);
}

TEST(Recovery, AdoptedSessionContinuesBitwise) {
  const std::string dir = fresh_dir("bitwise");
  std::vector<space::Configuration> expected;
  {
    SessionManager manager(test_factory(), {.journal_dir = dir});
    manager.create(spec_named("ref"));
    run_round(manager, "ref");
    run_round(manager, "ref");
    // Open a round and crash with it unobserved: the journal holds a
    // `round` record with no observations, exactly the torn state a
    // SIGKILL mid-round leaves.
    expected = manager.suggest("ref", 0);
  }
  SessionManager restarted(test_factory(), {.journal_dir = dir});
  ASSERT_EQ(restarted.recovery().adopted.size(), 1u);
  // The incomplete round is dropped on replay and re-minted identically.
  const std::vector<space::Configuration> resumed =
      restarted.suggest("ref", 0);
  ASSERT_EQ(resumed.size(), expected.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].values(), expected[i].values())
        << "resumed suggest diverges at config " << i;
  }
}

TEST(Recovery, CorruptJournalQuarantinedAtStartup) {
  const std::string dir = fresh_dir("quarantine");
  {
    SessionManager manager(test_factory(), {.journal_dir = dir});
    manager.create(spec_named("good"));
  }
  {
    std::ofstream bad(dir + "/bad.hpbj", std::ios::binary);
    bad << "this is not a journal\n";
  }
  SessionManager restarted(test_factory(), {.journal_dir = dir});
  const core::RecoveryReport& report = restarted.recovery();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], "bad");
  ASSERT_EQ(report.adopted.size(), 1u);
  EXPECT_EQ(report.adopted[0], "good");
  EXPECT_FALSE(std::filesystem::exists(dir + "/bad.hpbj"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/bad.hpbj.corrupt"));
  EXPECT_EQ(restarted.health().quarantined, 1u);
  // The quarantined name is free again.
  restarted.create(spec_named("bad"));
  EXPECT_EQ(restarted.status("bad").evaluations, 0u);
}

TEST(Recovery, CorruptJournalQuarantinedAtResumeTime) {
  const std::string dir = fresh_dir("quarantine_resume");
  SessionManager manager(test_factory(),
                         {.journal_dir = dir, .recover_on_start = false});
  {
    std::ofstream bad(dir + "/torn.hpbj", std::ios::binary);
    bad << "garbage header\n";
  }
  try {
    (void)manager.status("torn");
    FAIL() << "expected the corrupt journal to fail the verb";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/torn.hpbj.corrupt"));
  // The session is gone now — the same verb reports unknown, not corrupt.
  try {
    (void)manager.status("torn");
    FAIL() << "expected unknown session after quarantine";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown session"),
              std::string::npos)
        << e.what();
  }
}

TEST(Recovery, CreateVsAdoptCollisionExplainsResume) {
  const std::string dir = fresh_dir("collision");
  {
    SessionManager manager(test_factory(), {.journal_dir = dir});
    manager.create(spec_named("keep"));
    run_round(manager, "keep");
  }
  SessionManager restarted(test_factory(), {.journal_dir = dir});
  try {
    restarted.create(spec_named("keep"));
    FAIL() << "create over a surviving journal must not truncate it";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cold"), std::string::npos)
        << e.what();
  }
  // Touching the name adopts it with its durable history intact.
  EXPECT_EQ(restarted.status("keep").evaluations, 2u);
}

// --------------------------------------------------- disk-fault tolerance

TEST(FaultInjection, PlannedFaultThrowsTypedIoError) {
  fs::clear_fault_plan();
  const std::string dir = fresh_dir("fsio");
  fs::ensure_dir(dir);
  const std::string path = dir + "/victim.txt";
  fs::set_fault_plan({.path_substring = "victim", .error_number = ENOSPC});
  try {
    fs::write_file_atomic(path, "doomed");
    FAIL() << "expected the armed plan to inject ENOSPC";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
  }
  EXPECT_GE(fs::fault_ops_matched(), 1u);
  // Non-matching paths are untouched by the armed plan.
  fs::write_file_atomic(dir + "/other.txt", "fine");
  fs::clear_fault_plan();
  fs::write_file_atomic(path, "fine now");
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(FaultInjection, SkipBudgetDelaysTheFault) {
  fs::clear_fault_plan();
  const std::string dir = fresh_dir("fsio_skip");
  fs::ensure_dir(dir);
  // write_file_atomic performs two ops matching "skipme" (the tmp-file
  // write and its fsync; the directory fsync matches the parent path, not
  // the file). skip=3 lets the first call through whole and fails the
  // second call on its fsync.
  fs::set_fault_plan(
      {.path_substring = "skipme", .error_number = EIO, .skip = 3});
  fs::write_file_atomic(dir + "/skipme.txt", "first");  // matching ops 1, 2
  EXPECT_THROW(fs::write_file_atomic(dir + "/skipme.txt", "second"), IoError);
  fs::clear_fault_plan();
}

TEST(FaultInjection, JournalFaultDegradesOnlyThatSession) {
  fs::clear_fault_plan();
  const std::string dir = fresh_dir("degrade");
  SessionManager manager(test_factory(), {.journal_dir = dir});
  manager.create(spec_named("sick"));
  manager.create(spec_named("healthy"));
  run_round(manager, "sick");

  fs::set_fault_plan({.path_substring = "sick.hpbj", .error_number = ENOSPC});
  try {
    (void)manager.suggest("sick", 0);
    FAIL() << "journal append should have failed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("degraded"), std::string::npos)
        << e.what();
  }
  fs::clear_fault_plan();

  // The sick session is read-only now: status serves and says degraded,
  // mutation keeps failing with the structured story even though the disk
  // recovered (a restart is the documented way back).
  const SessionStatus status = manager.status("sick");
  EXPECT_TRUE(status.degraded);
  EXPECT_FALSE(status.degraded_reason.empty());
  EXPECT_THROW((void)manager.suggest("sick", 0), Error);
  EXPECT_EQ(manager.degraded_count(), 1u);
  EXPECT_EQ(manager.health().degraded, 1u);

  // Degraded sessions are pinned resident — eviction would mask the fault
  // behind a silent journal replay.
  EXPECT_FALSE(manager.evict("sick"));

  // Every other session keeps tuning through the same manager.
  run_round(manager, "healthy");
  EXPECT_EQ(manager.status("healthy").evaluations, 2u);
  EXPECT_FALSE(manager.status("healthy").degraded);

  // The durable prefix (everything before the fault) survives a restart.
  SessionManager restarted(test_factory(), {.journal_dir = dir});
  EXPECT_EQ(restarted.status("sick").evaluations, 2u);
  EXPECT_FALSE(restarted.status("sick").degraded);
  run_round(restarted, "sick");
  EXPECT_EQ(restarted.status("sick").evaluations, 4u);
}

// --------------------------------------------------- idempotent retries

core::SessionFactory wire_factory() { return test_factory(); }

std::string create_line(const std::string& name, std::size_t batch,
                        bool async) {
  std::string line = "{\"verb\":\"create\",\"session\":\"" + name +
                     "\",\"dataset\":\"separable\",\"method\":\"random\","
                     "\"batch_size\":" +
                     std::to_string(batch) + ",\"max_evaluations\":40";
  if (async) {
    line += ",\"mode\":\"async\"";
  }
  return line + "}";
}

service::JsonValue ok_json(const std::string& response) {
  service::JsonValue v = service::parse_json(response);
  const service::JsonValue* ok = v.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->as_bool()) << response;
  return v;
}

std::string code_of(const std::string& response) {
  const service::JsonValue v = service::parse_json(response);
  const service::JsonValue* error = v.find("error");
  if (error == nullptr) {
    return {};
  }
  return error->find("code")->as_string();
}

TEST(RidReplay, RetriedSuggestIsByteIdenticalAndMintsNoNewTokens) {
  const std::string dir = fresh_dir("rid_suggest");
  SessionManager manager(wire_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 2, /*async=*/true)));

  const std::string request =
      "{\"verb\":\"suggest\",\"session\":\"s\",\"rid\":\"req-1\"}";
  const std::string first = wire.handle_line(request);
  ok_json(first);
  const std::string retried = wire.handle_line(request);
  EXPECT_EQ(retried, first);  // byte-identical replay

  // Exactly one batch of tokens exists: the retry minted nothing.
  const service::JsonValue status =
      ok_json(wire.handle_line("{\"verb\":\"status\",\"session\":\"s\"}"));
  EXPECT_EQ(status.find("status")->find("pending")->as_number(), 2.0);
}

TEST(RidReplay, RetriedObserveDoesNotDoubleApply) {
  const std::string dir = fresh_dir("rid_observe");
  SessionManager manager(wire_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 1, /*async=*/false)));
  const service::JsonValue suggest =
      ok_json(wire.handle_line("{\"verb\":\"suggest\",\"session\":\"s\"}"));
  std::string config = "[";
  const auto& values = suggest.find("configs")->as_array()[0].as_array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      config += ',';
    }
    config += obs::json_double(values[i].as_number());
  }
  config += ']';
  const std::string observe =
      "{\"verb\":\"observe\",\"session\":\"s\",\"rid\":\"obs-1\","
      "\"results\":[{\"config\":" + config + ",\"y\":3.5,\"status\":\"ok\"}]}";
  const std::string first = wire.handle_line(observe);
  ok_json(first);
  const std::string retried = wire.handle_line(observe);
  EXPECT_EQ(retried, first);
  const service::JsonValue status =
      ok_json(wire.handle_line("{\"verb\":\"status\",\"session\":\"s\"}"));
  EXPECT_EQ(status.find("status")->find("evaluations")->as_number(), 1.0);
}

TEST(RidReplay, RetriedCancelReleasesTokensOnce) {
  const std::string dir = fresh_dir("rid_cancel");
  SessionManager manager(wire_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 2, /*async=*/true)));
  const service::JsonValue suggest = ok_json(
      wire.handle_line("{\"verb\":\"suggest\",\"session\":\"s\"}"));
  const std::uint64_t token = static_cast<std::uint64_t>(
      suggest.find("tokens")->as_array()[0].as_number());
  const std::string cancel =
      "{\"verb\":\"cancel\",\"session\":\"s\",\"rid\":\"can-1\","
      "\"tokens\":[" + std::to_string(token) + "]}";
  const std::string first = wire.handle_line(cancel);
  ok_json(first);
  EXPECT_EQ(wire.handle_line(cancel), first);
  const service::JsonValue status =
      ok_json(wire.handle_line("{\"verb\":\"status\",\"session\":\"s\"}"));
  EXPECT_EQ(status.find("status")->find("pending")->as_number(), 1.0);
}

TEST(RidReplay, ErrorResponsesAreNotCached) {
  const std::string dir = fresh_dir("rid_errors");
  SessionManager manager(wire_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 1, /*async=*/false)));
  // Observe with no round in flight: session_error, rightly.
  const std::string premature =
      "{\"verb\":\"observe\",\"session\":\"s\",\"rid\":\"retry-me\","
      "\"results\":[{\"config\":[0,0,0],\"y\":1.0}]}";
  EXPECT_EQ(code_of(wire.handle_line(premature)), "session_error");
  // After the round opens, the same rid must re-execute, not replay the
  // recorded failure.
  const service::JsonValue suggest =
      ok_json(wire.handle_line("{\"verb\":\"suggest\",\"session\":\"s\"}"));
  std::string config = "[";
  const auto& values = suggest.find("configs")->as_array()[0].as_array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      config += ',';
    }
    config += obs::json_double(values[i].as_number());
  }
  config += ']';
  ok_json(wire.handle_line(
      "{\"verb\":\"observe\",\"session\":\"s\",\"rid\":\"retry-me\","
      "\"results\":[{\"config\":" + config + ",\"y\":2.0,\"status\":\"ok\"}]}"));
}

TEST(RidReplay, RidSchemaIsStrict) {
  const std::string dir = fresh_dir("rid_schema");
  SessionManager manager(wire_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 1, /*async=*/false)));
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"suggest\",\"session\":\"s\",\"rid\":7}")),
            "bad_request");
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"suggest\",\"session\":\"s\",\"rid\":\"" +
                std::string(65, 'x') + "\"}")),
            "bad_request");
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"status\",\"session\":\"s\",\"rid\":\"r\"}")),
            "bad_request");  // rid is for mutating verbs only
}

// --------------------------------------------------- overload shedding

TEST(Overload, AsyncPendingCapShedsSuggest) {
  const std::string dir = fresh_dir("pending_cap");
  SessionManager manager(test_factory(),
                         {.journal_dir = dir, .max_pending_per_session = 3});
  SessionSpec spec = spec_named("s");
  spec.mode = core::SessionMode::kAsync;
  manager.create(spec);
  EXPECT_EQ(manager.suggest_async("s", 3).size(), 3u);
  EXPECT_THROW((void)manager.suggest_async("s", 1), OverloadError);
  // The shed is stateless: observing one token frees one slot.
  const SessionStatus status = manager.status("s");
  core::AsyncResult result;
  result.token = status.pending_tokens[0];
  result.y = 2.0;
  manager.observe_async("s", std::span<const core::AsyncResult>(&result, 1));
  EXPECT_EQ(manager.suggest_async("s", 1).size(), 1u);
}

TEST(Overload, PendingCapSurfacesAsOverloadedOnTheWire) {
  const std::string dir = fresh_dir("pending_wire");
  SessionManager manager(test_factory(),
                         {.journal_dir = dir, .max_pending_per_session = 2});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 2, /*async=*/true)));
  ok_json(wire.handle_line("{\"verb\":\"suggest\",\"session\":\"s\"}"));
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"suggest\",\"session\":\"s\"}")),
            "overloaded");
}

/// Minimal blocking unix-socket line client for server-level tests.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    timeval tv{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::string out = line + "\n";
    std::string_view data = out;
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Read one response line; "" on EOF/timeout.
  std::string read_line() {
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
        return {};
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed the connection (EOF) within the timeout.
  bool wait_eof() {
    char chunk[64];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return n == 0;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(Overload, ConnectionCapShedsWithStructuredError) {
  const std::string socket_path = temp_path("cap.sock");
  service::LineServer server(
      [](std::string_view) { return std::string("{\"ok\":true}"); },
      {.unix_path = socket_path, .max_connections = 1});
  server.start();

  auto first = std::make_unique<TestClient>(socket_path);
  ASSERT_TRUE(first->connected());
  ASSERT_TRUE(first->send_line("{}"));
  EXPECT_EQ(first->read_line(), "{\"ok\":true}");

  TestClient shed(socket_path);
  ASSERT_TRUE(shed.connected());
  const std::string response = shed.read_line();
  EXPECT_EQ(code_of(response), "overloaded") << response;
  EXPECT_TRUE(shed.wait_eof());
  EXPECT_EQ(server.connections_shed(), 1u);

  // Capacity frees once the first client leaves (within a couple of
  // accept-loop ticks); a retry then succeeds.
  first.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    TestClient retry(socket_path);
    if (retry.connected() && retry.send_line("{}") &&
        retry.read_line() == "{\"ok\":true}") {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered);
  server.stop();
}

// --------------------------------------------------- graceful drain

TEST(Drain, AnswersEverythingSentThenCloses) {
  const std::string socket_path = temp_path("drain.sock");
  service::LineServer server(
      [](std::string_view) { return std::string("{\"ok\":true}"); },
      {.unix_path = socket_path});
  server.start();
  TestClient client(socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("{}"));
  EXPECT_EQ(client.read_line(), "{\"ok\":true}");
  // Pipeline a few requests, then drain: every one must still be answered
  // before the server hangs up.
  ASSERT_TRUE(client.send_line("{}"));
  ASSERT_TRUE(client.send_line("{}"));
  server.drain();
  EXPECT_EQ(client.read_line(), "{\"ok\":true}");
  EXPECT_EQ(client.read_line(), "{\"ok\":true}");
  EXPECT_TRUE(client.wait_eof());
  server.stop();
}

TEST(Drain, CheckpointAllCoversEveryResidentSession) {
  const std::string dir = fresh_dir("checkpoint");
  SessionManager manager(test_factory(), {.journal_dir = dir});
  manager.create(spec_named("a"));
  manager.create(spec_named("b"));
  manager.create(spec_named("c"));
  run_round(manager, "a");
  EXPECT_EQ(manager.checkpoint_all(), 3u);
}

// --------------------------------------------------- health verb

TEST(Health, VerbReportsSurvivabilityCounters) {
  const std::string dir = fresh_dir("health");
  {
    SessionManager seeded(test_factory(), {.journal_dir = dir});
    seeded.create(spec_named("old"));
    run_round(seeded, "old");
  }
  SessionManager manager(test_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  const service::JsonValue before =
      ok_json(wire.handle_line("{\"verb\":\"health\"}"));
  const service::JsonValue* h = before.find("health");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("resident")->as_number(), 0.0);
  EXPECT_EQ(h->find("adopted")->as_number(), 1.0);
  EXPECT_EQ(h->find("degraded")->as_number(), 0.0);
  EXPECT_EQ(h->find("quarantined")->as_number(), 0.0);

  ok_json(wire.handle_line(create_line("fresh", 1, /*async=*/false)));
  ok_json(wire.handle_line("{\"verb\":\"status\",\"session\":\"old\"}"));
  const service::JsonValue after =
      ok_json(wire.handle_line("{\"verb\":\"health\"}"));
  const service::JsonValue* h2 = after.find("health");
  EXPECT_EQ(h2->find("resident")->as_number(), 2.0);
  EXPECT_EQ(h2->find("created")->as_number(), 1.0);
  EXPECT_EQ(h2->find("resumed")->as_number(), 1.0);
  // Strict schema: health takes no other keys.
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"health\",\"session\":\"x\"}")),
            "bad_request");
}

TEST(Health, StatusReportsDegradedOnTheWire) {
  fs::clear_fault_plan();
  const std::string dir = fresh_dir("health_degraded");
  SessionManager manager(test_factory(), {.journal_dir = dir});
  service::WireService wire(manager);
  ok_json(wire.handle_line(create_line("s", 1, /*async=*/false)));
  fs::set_fault_plan({.path_substring = "s.hpbj", .error_number = ENOSPC});
  EXPECT_EQ(code_of(wire.handle_line(
                "{\"verb\":\"suggest\",\"session\":\"s\"}")),
            "session_error");
  fs::clear_fault_plan();
  const service::JsonValue status =
      ok_json(wire.handle_line("{\"verb\":\"status\",\"session\":\"s\"}"));
  const service::JsonValue* degraded =
      status.find("status")->find("degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_TRUE(degraded->as_bool());
  const service::JsonValue health =
      ok_json(wire.handle_line("{\"verb\":\"health\"}"));
  EXPECT_EQ(health.find("health")->find("degraded")->as_number(), 1.0);
}

}  // namespace
}  // namespace hpb
