// Wire-layer coverage: the strict JSON parser, the WireService verb
// handlers, and the LineServer socket front end.
//   - parse_json enforces RFC 8259 strictly (trailing garbage, duplicate
//     keys, control characters, depth bombs, bare NaN) and reports byte
//     offsets;
//   - every malformed / hostile request becomes a structured error
//     response with the right code (parse_error, bad_request,
//     unknown_verb, session_error) — handle_line never throws, and a
//     failed request never half-applies;
//   - out-of-order observes and double closes are session_errors after
//     which the session remains usable / stays closed;
//   - the LineServer round-trips requests over real Unix-domain and TCP
//     sockets, keeps a connection alive across malformed requests, caps
//     line length, serves concurrent clients (TSan exercises the striped
//     manager underneath), and shuts down cleanly with clients connected.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session_manager.hpp"
#include "eval/methods.hpp"
#include "obs/json_util.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "test_util.hpp"

namespace hpb {
namespace {

using core::SessionManager;
using core::SessionSpec;
using service::JsonParseError;
using service::JsonValue;
using service::LineServer;
using service::parse_json;
using service::WireService;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "wire_" + name;
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

/// Issue one request and parse the response with the service's own parser
/// (every response must itself be strict JSON).
JsonValue reply(WireService& service, const std::string& line) {
  const std::string response = service.handle_line(line);
  EXPECT_EQ(response.find('\n'), std::string::npos)
      << "responses must be single lines: " << response;
  return parse_json(response);
}

bool ok(const JsonValue& response) {
  const JsonValue* v = response.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string error_code_of(const JsonValue& response) {
  EXPECT_FALSE(ok(response));
  const JsonValue* error = response.find("error");
  if (error == nullptr) {
    ADD_FAILURE() << "error response without 'error' object";
    return {};
  }
  return error->find("code")->as_string();
}

std::string error_message_of(const JsonValue& response) {
  return response.find("error")->find("message")->as_string();
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, AcceptsStrictDocuments) {
  EXPECT_TRUE(parse_json("{}").is_object());
  EXPECT_TRUE(parse_json("  [1, 2.5, -3e2]  ").is_array());
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_EQ(parse_json("\"a\\u0041\\n\"").as_string(), "aA\n");
  const JsonValue obj = parse_json("{\"a\":{\"b\":[true,false,null]}}");
  EXPECT_TRUE(obj.find("a")->find("b")->as_array()[2].is_null());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonParser, RejectsHostileDocuments) {
  for (const std::string bad :
       {"", "{} x", "{\"a\":1,\"a\":2}", "{\"a\":1", "\"unterminated",
        "nan", "NaN", "Infinity", "01", "1.", "+1", "[1,]", "{\"a\" 1}",
        "\"ctrl\tchar\"", "\"\\ud800\"", "tru"}) {
    EXPECT_THROW((void)parse_json(bad), JsonParseError) << bad;
  }
  // A depth bomb is rejected, not stack-overflowed.
  EXPECT_THROW((void)parse_json(std::string(100, '[')), JsonParseError);
}

TEST(JsonParser, ReportsByteOffsets) {
  try {
    (void)parse_json("{\"a\": nope}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 6u);
    EXPECT_NE(std::string(e.what()).find("byte 6"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- wire protocol

class WireTest : public ::testing::Test {
 protected:
  WireTest()
      : manager_(test_factory(),
                 {.journal_dir = fresh_dir(
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name())}),
        service_(manager_) {}

  std::string create_line(const std::string& name,
                          std::size_t batch = 2) const {
    return "{\"verb\":\"create\",\"session\":\"" + name +
           "\",\"dataset\":\"separable\",\"method\":\"random\",\"seed\":7,"
           "\"batch_size\":" +
           std::to_string(batch) + ",\"max_evaluations\":16}";
  }

  SessionManager manager_;
  WireService service_;
};

TEST_F(WireTest, MalformedJsonIsParseError) {
  EXPECT_EQ(error_code_of(reply(service_, "{nope")), "parse_error");
  EXPECT_EQ(error_code_of(reply(service_, "")), "parse_error");
  EXPECT_EQ(error_code_of(reply(service_, "\x01")), "parse_error");
}

TEST_F(WireTest, SchemaViolationsAreBadRequests) {
  // Not an object / missing or mistyped verb.
  EXPECT_EQ(error_code_of(reply(service_, "[1,2]")), "bad_request");
  EXPECT_EQ(error_code_of(reply(service_, "{\"session\":\"s\"}")),
            "bad_request");
  EXPECT_EQ(error_code_of(reply(service_, "{\"verb\":7}")), "bad_request");
  // Unknown keys are rejected by name.
  const JsonValue unknown_key = reply(
      service_,
      "{\"verb\":\"status\",\"session\":\"s\",\"bogus\":1}");
  EXPECT_EQ(error_code_of(unknown_key), "bad_request");
  EXPECT_NE(error_message_of(unknown_key).find("bogus"), std::string::npos);
  // Mistyped fields.
  EXPECT_EQ(error_code_of(reply(service_,
                                "{\"verb\":\"create\",\"session\":\"s\","
                                "\"dataset\":\"separable\",\"seed\":\"7\"}")),
            "bad_request");
  EXPECT_EQ(error_code_of(reply(service_,
                                "{\"verb\":\"suggest\",\"session\":\"s\","
                                "\"count\":-1}")),
            "bad_request");
  EXPECT_EQ(error_code_of(reply(service_,
                                "{\"verb\":\"observe\",\"session\":\"s\","
                                "\"results\":{}}")),
            "bad_request");
  // None of the rejected requests created state.
  EXPECT_EQ(manager_.created_count(), 0u);
}

TEST_F(WireTest, UnknownVerbHasItsOwnCode) {
  const JsonValue r =
      reply(service_, "{\"verb\":\"frobnicate\",\"session\":\"s\"}");
  EXPECT_EQ(error_code_of(r), "unknown_verb");
  EXPECT_NE(error_message_of(r).find("frobnicate"), std::string::npos);
}

TEST_F(WireTest, VerbsOnUnknownSessionsAreSessionErrors) {
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"status\",\"session\":\"ghost\"}")),
            "session_error");
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"close\",\"session\":\"ghost\"}")),
            "session_error");
}

/// Serialize one suggested config (array of numbers) back into a result
/// entry, preserving the exact wire text of every value.
std::string result_entry(const JsonValue& config, const std::string& y_or_none,
                         const std::string& status) {
  std::string out = "{\"config\":[";
  const auto& values = config.as_array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::json_double(values[i].as_number());
  }
  out += "]";
  if (!y_or_none.empty()) {
    out += ",\"y\":" + y_or_none;
  }
  out += ",\"status\":\"" + status + "\"}";
  return out;
}

TEST_F(WireTest, FullSessionLifecycleOverTheWire) {
  ASSERT_TRUE(ok(reply(service_, create_line("s1"))));
  // Fresh session: no evaluations, best_value is null.
  const JsonValue fresh =
      reply(service_, "{\"verb\":\"status\",\"session\":\"s1\"}");
  ASSERT_TRUE(ok(fresh));
  EXPECT_TRUE(fresh.find("status")->find("best_value")->is_null());
  EXPECT_FALSE(fresh.find("status")->find("stopped")->as_bool());

  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"s1\",\"count\":2}");
  ASSERT_TRUE(ok(suggested));
  const auto& configs = suggested.find("configs")->as_array();
  ASSERT_EQ(configs.size(), 2u);

  const JsonValue observed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"s1\",\"results\":[" +
                    result_entry(configs[0], "10.5", "ok") + "," +
                    result_entry(configs[1], "5.25", "ok") + "]}");
  ASSERT_TRUE(ok(observed));
  const JsonValue* status = observed.find("status");
  EXPECT_DOUBLE_EQ(status->find("best_value")->as_number(), 5.25);
  EXPECT_EQ(status->find("evaluations")->as_number(), 2.0);
  EXPECT_EQ(status->find("rounds")->as_number(), 1.0);
  EXPECT_EQ(status->find("pending")->as_number(), 0.0);
  // best_config round-trips the winning suggestion bit-exactly.
  const auto& best = status->find("best_config")->as_array();
  const auto& winner = configs[1].as_array();
  ASSERT_EQ(best.size(), winner.size());
  for (std::size_t i = 0; i < best.size(); ++i) {
    EXPECT_EQ(obs::json_double(best[i].as_number()),
              obs::json_double(winner[i].as_number()));
  }

  ASSERT_TRUE(ok(reply(service_, "{\"verb\":\"close\",\"session\":\"s1\"}")));
  EXPECT_EQ(manager_.closed_count(), 1u);
}

TEST_F(WireTest, FailedResultsCarryNoValue) {
  ASSERT_TRUE(ok(reply(service_, create_line("s2"))));
  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"s2\",\"count\":2}");
  const auto& configs = suggested.find("configs")->as_array();
  // A y on a failed result is a client bug: rejected before any state
  // changes, so the round is still fully pending afterwards.
  const JsonValue rejected = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"s2\",\"results\":[" +
                    result_entry(configs[0], "1.0", "invalid") + "," +
                    result_entry(configs[1], "2.0", "ok") + "]}");
  EXPECT_EQ(error_code_of(rejected), "bad_request");
  EXPECT_EQ(reply(service_, "{\"verb\":\"status\",\"session\":\"s2\"}")
                .find("status")
                ->find("pending")
                ->as_number(),
            2.0);
  // Without the y it is a legal failed observation (NaN in the history).
  const JsonValue observed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"s2\",\"results\":[" +
                    result_entry(configs[0], "", "invalid") + "," +
                    result_entry(configs[1], "2.0", "ok") + "]}");
  ASSERT_TRUE(ok(observed));
  EXPECT_EQ(observed.find("status")->find("failed")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(observed.find("status")->find("best_value")->as_number(),
                   2.0);
}

TEST_F(WireTest, OutOfOrderObserveIsASessionErrorAndRecoverable) {
  ASSERT_TRUE(ok(reply(service_, create_line("s3"))));
  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"s3\",\"count\":2}");
  const auto& configs = suggested.find("configs")->as_array();
  const JsonValue swapped = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"s3\",\"results\":[" +
                    result_entry(configs[1], "1.0", "ok") + "," +
                    result_entry(configs[0], "2.0", "ok") + "]}");
  EXPECT_EQ(error_code_of(swapped), "session_error");
  // Observe before suggest on a second session: also a session error.
  ASSERT_TRUE(ok(reply(service_, create_line("s4"))));
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"observe\",\"session\":\"s4\","
                                "\"results\":[]}")),
            "session_error");
  // The swapped round is still deliverable in the right order.
  const JsonValue observed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"s3\",\"results\":[" +
                    result_entry(configs[0], "2.0", "ok") + "," +
                    result_entry(configs[1], "1.0", "ok") + "]}");
  ASSERT_TRUE(ok(observed));
}

TEST_F(WireTest, DoubleCloseIsASessionError) {
  ASSERT_TRUE(ok(reply(service_, create_line("s5"))));
  ASSERT_TRUE(ok(reply(service_, "{\"verb\":\"close\",\"session\":\"s5\"}")));
  const JsonValue again =
      reply(service_, "{\"verb\":\"close\",\"session\":\"s5\"}");
  EXPECT_EQ(error_code_of(again), "session_error");
  EXPECT_NE(error_message_of(again).find("closed"), std::string::npos);
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"suggest\",\"session\":\"s5\","
                                "\"count\":1}")),
            "session_error");
}

// ----------------------------------------------------- async wire protocol

std::string async_create_line(const std::string& name) {
  return "{\"verb\":\"create\",\"session\":\"" + name +
         "\",\"dataset\":\"separable\",\"method\":\"random\",\"seed\":7,"
         "\"batch_size\":2,\"max_evaluations\":32,\"mode\":\"async\"}";
}

TEST_F(WireTest, AsyncLifecycleOverTheWire) {
  ASSERT_TRUE(ok(reply(service_, async_create_line("a1"))));
  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"a1\",\"count\":3}");
  ASSERT_TRUE(ok(suggested));
  ASSERT_EQ(suggested.find("configs")->as_array().size(), 3u);
  const auto& tokens = suggested.find("tokens")->as_array();
  ASSERT_EQ(tokens.size(), 3u);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].as_number(), static_cast<double>(i + 1));
  }

  const JsonValue st =
      reply(service_, "{\"verb\":\"status\",\"session\":\"a1\"}");
  ASSERT_TRUE(ok(st));
  EXPECT_EQ(st.find("status")->find("mode")->as_string(), "async");
  EXPECT_EQ(st.find("status")->find("pending")->as_number(), 3.0);
  EXPECT_EQ(st.find("status")->find("pending_tokens")->as_array().size(), 3u);

  // Completions resolve tokens in any order; failures carry no y.
  const JsonValue newest_first = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"a1\",\"results\":["
                "{\"token\":3,\"y\":4.5}]}");
  ASSERT_TRUE(ok(newest_first));
  EXPECT_EQ(newest_first.find("status")->find("pending")->as_number(), 2.0);
  const JsonValue failed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"a1\",\"results\":["
                "{\"token\":1,\"status\":\"crashed\"}]}");
  ASSERT_TRUE(ok(failed));
  EXPECT_EQ(failed.find("status")->find("failed")->as_number(), 1.0);
  // A y on a failed token result is a client bug.
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"a1\","
                          "\"results\":[{\"token\":2,\"y\":1.0,"
                          "\"status\":\"timeout\"}]}")),
            "bad_request");

  // The straggler is cancelled, which un-wedges close.
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"close\",\"session\":\"a1\"}")),
            "session_error");
  const JsonValue cancelled = reply(
      service_, "{\"verb\":\"cancel\",\"session\":\"a1\",\"tokens\":[2]}");
  ASSERT_TRUE(ok(cancelled));
  EXPECT_EQ(cancelled.find("cancelled")->as_number(), 1.0);
  ASSERT_TRUE(ok(reply(service_, "{\"verb\":\"close\",\"session\":\"a1\"}")));
}

TEST_F(WireTest, AsyncObserveRejectsMixedForeignAndDuplicate) {
  ASSERT_TRUE(ok(reply(service_, async_create_line("a2"))));
  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"a2\",\"count\":2}");
  const auto& configs = suggested.find("configs")->as_array();
  // Token and config entries in one observe are two different protocols.
  const JsonValue mixed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"a2\",\"results\":["
                "{\"token\":1,\"y\":1.0}," +
                    result_entry(configs[1], "2.0", "ok") + "]}");
  EXPECT_EQ(error_code_of(mixed), "bad_request");
  // Foreign and duplicate tokens are session errors; nothing is consumed.
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"a2\","
                          "\"results\":[{\"token\":99,\"y\":1.0}]}")),
            "session_error");
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"a2\","
                          "\"results\":[{\"token\":1,\"y\":1.0},"
                          "{\"token\":1,\"y\":2.0}]}")),
            "session_error");
  EXPECT_EQ(reply(service_, "{\"verb\":\"status\",\"session\":\"a2\"}")
                .find("status")
                ->find("pending")
                ->as_number(),
            2.0);
  // Bad token shapes are schema errors.
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"a2\","
                          "\"results\":[{\"token\":0,\"y\":1.0}]}")),
            "bad_request");
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"a2\","
                          "\"results\":[{\"token\":1.5,\"y\":1.0}]}")),
            "bad_request");
}

TEST_F(WireTest, TokenVerbsOnSyncSessionsAreSessionErrors) {
  ASSERT_TRUE(ok(reply(service_, create_line("sync1"))));
  const JsonValue suggested = reply(
      service_, "{\"verb\":\"suggest\",\"session\":\"sync1\",\"count\":2}");
  ASSERT_TRUE(ok(suggested));
  EXPECT_EQ(suggested.find("tokens"), nullptr)
      << "sync suggest responses must not grow a tokens key";
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"observe\",\"session\":\"sync1\","
                          "\"results\":[{\"token\":1,\"y\":1.0}]}")),
            "session_error");
  EXPECT_EQ(error_code_of(reply(
                service_, "{\"verb\":\"cancel\",\"session\":\"sync1\","
                          "\"tokens\":[1]}")),
            "session_error");
}

TEST_F(WireTest, CancelUnwedgesAStuckSyncRound) {
  ASSERT_TRUE(ok(reply(service_, create_line("stuck"))));
  ASSERT_TRUE(ok(reply(
      service_, "{\"verb\":\"suggest\",\"session\":\"stuck\",\"count\":2}")));
  // The client that was evaluating this round died; close is refused.
  EXPECT_EQ(error_code_of(
                reply(service_, "{\"verb\":\"close\",\"session\":\"stuck\"}")),
            "session_error");
  const JsonValue cancelled =
      reply(service_, "{\"verb\":\"cancel\",\"session\":\"stuck\"}");
  ASSERT_TRUE(ok(cancelled));
  EXPECT_EQ(cancelled.find("cancelled")->as_number(), 2.0);
  // The session keeps working after the abandoned round.
  ASSERT_TRUE(ok(reply(
      service_, "{\"verb\":\"suggest\",\"session\":\"stuck\",\"count\":2}")));
  ASSERT_TRUE(
      ok(reply(service_, "{\"verb\":\"cancel\",\"session\":\"stuck\"}")));
  ASSERT_TRUE(ok(reply(service_, "{\"verb\":\"close\",\"session\":\"stuck\"}")));
}

TEST_F(WireTest, AllFailedRoundReportsNonFiniteBestExplicitly) {
  ASSERT_TRUE(ok(reply(service_, create_line("nf"))));
  const JsonValue suggested =
      reply(service_, "{\"verb\":\"suggest\",\"session\":\"nf\",\"count\":2}");
  const auto& configs = suggested.find("configs")->as_array();
  const JsonValue observed = reply(
      service_, "{\"verb\":\"observe\",\"session\":\"nf\",\"results\":[" +
                    result_entry(configs[0], "", "crashed") + "," +
                    result_entry(configs[1], "", "timeout") + "]}");
  ASSERT_TRUE(ok(observed));
  // No finite best exists: best_value is null AND the flag says why, so a
  // sloppy client cannot read the null as 0.
  const JsonValue* status = observed.find("status");
  EXPECT_TRUE(status->find("best_value")->is_null());
  const JsonValue* finite = status->find("best_value_finite");
  ASSERT_NE(finite, nullptr);
  EXPECT_FALSE(finite->as_bool());
}

// ------------------------------------------------------- json round-trips

TEST(JsonNumbers, FiniteDoublesRoundTripBitwise) {
  const std::vector<double> edge_cases = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      1.0 / 3.0,
      0.1,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),       // smallest normal
      std::numeric_limits<double>::denorm_min(),  // smallest subnormal
      -std::numeric_limits<double>::denorm_min(),
      9007199254740993.0,  // above 2^53: needs full shortest-round-trip
      1e308,
      -1e-308,
  };
  for (const double v : edge_cases) {
    const std::string text = obs::json_double(v);
    const double parsed = parse_json(text).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
  // The full double range: random bit patterns, skipping non-finite ones.
  Rng rng(0xb17);
  std::size_t tested = 0;
  while (tested < 2000) {
    const double v = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(v)) {
      continue;
    }
    const std::string text = obs::json_double(v);
    const double parsed = parse_json(text).as_number();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v))
        << text;
    ++tested;
  }
}

TEST(JsonNumbers, NonFiniteSpellingsAreParseErrors) {
  for (const std::string text :
       {"NaN", "nan", "Infinity", "-Infinity", "inf", "-inf",
        "{\"y\":NaN}", "[Infinity]"}) {
    EXPECT_THROW((void)parse_json(text), JsonParseError) << text;
  }
}

// ------------------------------------------------------------ line server

/// Minimal blocking line-oriented client used by the socket tests.
class LineClient {
 public:
  static LineClient connect_unix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << path << ": " << std::strerror(errno);
    return LineClient(fd);
  }

  static LineClient connect_tcp(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << "port " << port << ": " << std::strerror(errno);
    return LineClient(fd);
  }

  LineClient(LineClient&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void send_raw(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// One request line in, one response line out (empty string on EOF).
  std::string request(const std::string& line) {
    send_raw(line + "\n");
    return read_line();
  }

  /// Half-close: no more requests, but responses can still be read. The
  /// server sees EOF with whatever tail bytes were sent unterminated.
  void shutdown_write() const { ::shutdown(fd_, SHUT_WR); }

  std::string read_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        return {};  // EOF / reset
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
};

/// One self-contained service stack (manager + wire + server) for socket
/// tests.
struct ServiceStack {
  explicit ServiceStack(const std::string& tag, service::ServerConfig server_config)
      : manager(test_factory(), {.journal_dir = fresh_dir(tag + "_journals")}),
        service(manager),
        server([this](std::string_view line) {
          return service.handle_line(line);
        }, std::move(server_config)) {}

  SessionManager manager;
  WireService service;
  LineServer server;
};

/// Drive one full create→suggest→observe→close session through a client.
void drive_session_via(LineClient& client, const std::string& name) {
  const std::string create =
      "{\"verb\":\"create\",\"session\":\"" + name +
      "\",\"dataset\":\"separable\",\"method\":\"random\",\"seed\":11,"
      "\"batch_size\":2,\"max_evaluations\":8}";
  ASSERT_TRUE(ok(parse_json(client.request(create)))) << name;
  const JsonValue suggested = parse_json(client.request(
      "{\"verb\":\"suggest\",\"session\":\"" + name + "\",\"count\":2}"));
  ASSERT_TRUE(ok(suggested)) << name;
  const auto& configs = suggested.find("configs")->as_array();
  ASSERT_EQ(configs.size(), 2u);
  const JsonValue observed = parse_json(client.request(
      "{\"verb\":\"observe\",\"session\":\"" + name + "\",\"results\":[" +
      result_entry(configs[0], "3.0", "ok") + "," +
      result_entry(configs[1], "4.0", "ok") + "]}"));
  ASSERT_TRUE(ok(observed)) << name;
  ASSERT_TRUE(ok(parse_json(client.request(
      "{\"verb\":\"close\",\"session\":\"" + name + "\"}"))))
      << name;
}

TEST(LineServerTest, UnixSocketRoundTrip) {
  const std::string socket_path = temp_path("roundtrip.sock");
  ServiceStack stack("unix_rt", {.unix_path = socket_path});
  stack.server.start();
  {
    LineClient client = LineClient::connect_unix(socket_path);
    drive_session_via(client, "u1");
    // Malformed input gets an error response but keeps the connection.
    EXPECT_EQ(error_code_of(parse_json(client.request("][nonsense"))),
              "parse_error");
    drive_session_via(client, "u2");
  }
  stack.server.stop();
  EXPECT_EQ(stack.manager.closed_count(), 2u);
  EXPECT_EQ(stack.server.connections_accepted(), 1u);
}

TEST(LineServerTest, TcpSocketRoundTrip) {
  ServiceStack stack("tcp_rt", {.tcp_port = 0});
  ASSERT_GT(stack.server.port(), 0);
  stack.server.start();
  {
    LineClient client = LineClient::connect_tcp(stack.server.port());
    drive_session_via(client, "t1");
  }
  stack.server.stop();
  EXPECT_EQ(stack.manager.closed_count(), 1u);
}

TEST(LineServerTest, OverlongLinesAreRejectedAndDropped) {
  const std::string socket_path = temp_path("overlong.sock");
  ServiceStack stack("overlong",
                     {.unix_path = socket_path, .max_line_bytes = 128});
  stack.server.start();
  LineClient client = LineClient::connect_unix(socket_path);
  client.send_raw(std::string(512, 'x'));
  const JsonValue response = parse_json(client.read_line());
  EXPECT_EQ(error_code_of(response), "bad_request");
  EXPECT_NE(error_message_of(response).find("exceeds"), std::string::npos);
  EXPECT_EQ(client.read_line(), "");  // server dropped the connection
  stack.server.stop();
}

TEST(LineServerTest, CrlfLinesParseTerminatedAndOnEofTail) {
  const std::string socket_path = temp_path("crlf.sock");
  ServiceStack stack("crlf", {.unix_path = socket_path});
  stack.server.start();
  {
    // CRLF-terminated lines (telnet-style client) parse like plain LF.
    LineClient client = LineClient::connect_unix(socket_path);
    client.send_raw(
        "{\"verb\":\"create\",\"session\":\"crlf1\","
        "\"dataset\":\"separable\",\"method\":\"random\"}\r\n");
    ASSERT_TRUE(ok(parse_json(client.read_line())));
    // The final line arrives CR-terminated with no LF, then EOF: the CR
    // must be stripped before the handler sees the tail.
    client.send_raw("{\"verb\":\"status\",\"session\":\"crlf1\"}\r");
    client.shutdown_write();
    const JsonValue status = parse_json(client.read_line());
    ASSERT_TRUE(ok(status)) << "EOF-tail CR reached the JSON parser";
    EXPECT_EQ(status.find("status")->find("evaluations")->as_number(), 0.0);
  }
  stack.server.stop();
}

TEST(LineServerTest, OversizedLineWithNewlineInSameChunkIsRejected) {
  const std::string socket_path = temp_path("cap_chunk.sock");
  ServiceStack stack("cap_chunk",
                     {.unix_path = socket_path, .max_line_bytes = 128});
  stack.server.start();
  LineClient client = LineClient::connect_unix(socket_path);
  // The oversized line and its newline (plus a valid follow-up request)
  // arrive in ONE chunk: the cap must still fire, report its limit, and
  // close — the follow-up must never execute on a poisoned stream.
  client.send_raw(std::string(512, 'x') + "\n" +
                  "{\"verb\":\"create\",\"session\":\"sneak\","
                  "\"dataset\":\"separable\",\"method\":\"random\"}\n");
  const JsonValue response = parse_json(client.read_line());
  EXPECT_EQ(error_code_of(response), "bad_request");
  EXPECT_NE(error_message_of(response).find("128"), std::string::npos)
      << "the cap error must state the configured limit";
  EXPECT_EQ(client.read_line(), "");  // connection closed after the error
  stack.server.stop();
  EXPECT_EQ(stack.manager.created_count(), 0u)
      << "no request after the cap violation may reach the handler";
}

TEST(LineServerTest, ConcurrentClientsShareOneManager) {
  ServiceStack stack("concurrent", {.tcp_port = 0});
  stack.server.start();
  constexpr int kClients = 4;
  constexpr int kSessionsEach = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&stack, c] {
      LineClient client = LineClient::connect_tcp(stack.server.port());
      for (int s = 0; s < kSessionsEach; ++s) {
        std::string name = "c";
        name += std::to_string(c);
        name += 's';
        name += std::to_string(s);
        drive_session_via(client, name);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  stack.server.stop();
  EXPECT_EQ(stack.manager.created_count(),
            static_cast<std::uint64_t>(kClients * kSessionsEach));
  EXPECT_EQ(stack.manager.closed_count(),
            static_cast<std::uint64_t>(kClients * kSessionsEach));
  EXPECT_EQ(stack.server.connections_accepted(),
            static_cast<std::uint64_t>(kClients));
}

TEST(LineServerTest, StopWithClientsConnectedDoesNotHang) {
  const std::string socket_path = temp_path("stop.sock");
  ServiceStack stack("stop", {.unix_path = socket_path});
  stack.server.start();
  LineClient client = LineClient::connect_unix(socket_path);
  ASSERT_TRUE(ok(parse_json(client.request(
      "{\"verb\":\"create\",\"session\":\"s\",\"dataset\":\"separable\","
      "\"method\":\"random\"}"))));
  stack.server.stop();  // must join the idle connection, not wait on it
  EXPECT_EQ(client.read_line(), "");  // connection closed by shutdown
}

TEST(LineServerTest, ClientDisconnectMidResponseDoesNotKillTheServer) {
  const std::string socket_path = temp_path("epipe.sock");
  ServiceStack stack("epipe", {.unix_path = socket_path});
  stack.server.start();
  {
    // Pipeline a burst of requests and slam the connection shut without
    // reading a byte: the server is mid-write when the peer vanishes, so
    // its sends hit EPIPE/ECONNRESET. That must neither raise SIGPIPE nor
    // take the process down — and requests already read may keep executing
    // against the shared manager without tripping TSan.
    LineClient client = LineClient::connect_unix(socket_path);
    std::string burst;
    for (int i = 0; i < 200; ++i) {
      burst += "{\"verb\":\"status\",\"session\":\"ghost\"}\n";
    }
    client.send_raw(burst);
  }  // destructor closes the socket with every response unread
  // The server keeps serving new connections as if nothing happened.
  LineClient after = LineClient::connect_unix(socket_path);
  drive_session_via(after, "after_epipe");
  stack.server.stop();  // joins the torn connection's thread cleanly
  EXPECT_EQ(stack.manager.closed_count(), 1u);
}

TEST(LineServerTest, ExternalStopFlagEndsServe) {
  std::atomic<bool> stop{false};
  ServiceStack stack("flag", {.tcp_port = 0, .stop_flag = &stop});
  std::thread server_thread([&stack] { stack.server.serve(); });
  {
    LineClient client = LineClient::connect_tcp(stack.server.port());
    drive_session_via(client, "f1");
  }
  stop.store(true);
  server_thread.join();  // serve() returns once the flag is seen
  EXPECT_EQ(stack.manager.closed_count(), 1u);
}

}  // namespace
}  // namespace hpb
