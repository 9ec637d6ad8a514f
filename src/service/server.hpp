// LineServer: a minimal line-oriented socket front end for WireService.
//
// Listens on a Unix-domain socket, a TCP socket, or both; each accepted
// connection gets its own thread that reads newline-delimited requests,
// hands them to the handler, and writes back one response line per
// request. Connections are independent — the wire layer and the session
// manager below it do all cross-connection synchronization — so a slow
// client never stalls the others.
//
// Shutdown is cooperative: stop() (or an external stop flag, typically
// raised by SIGINT) wakes the poll-based accept loop, shuts down every
// live connection, and joins all threads. The destructor stops too, so a
// LineServer can never outlive its handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace hpb::service {

struct ServerConfig {
  /// Path for the Unix-domain listener; empty disables it. An existing
  /// socket file at the path is replaced (stale sockets from a crashed
  /// daemon would otherwise block restart forever).
  std::string unix_path{};
  /// TCP listener: enabled when port >= 0 (0 picks an ephemeral port;
  /// port() reports the actual one). Binds to 127.0.0.1 — the service has
  /// no authentication, so remote exposure is an explicit reverse-proxy
  /// decision, not a default.
  int tcp_port = -1;
  /// Optional external stop flag (e.g. a SIGINT handler's), polled by the
  /// accept loop alongside the internal one. Not owned.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Requests longer than this are answered with an error and the
  /// connection is dropped (a line that never ends would otherwise grow
  /// the buffer without bound).
  std::size_t max_line_bytes = 1 << 20;
  /// Cap on simultaneously live connections. An accept beyond the cap is
  /// answered with one structured `overloaded` error line and closed
  /// immediately — load is shed at the door instead of queueing client
  /// threads without bound. 0 = unlimited.
  std::size_t max_connections = 0;
  /// Optional external drain flag (typically a SIGTERM handler's): once
  /// raised, the server stops accepting, live connections finish the
  /// requests they have already sent, and serve() returns when they hang
  /// up or go idle. Not owned.
  const std::atomic<bool>* drain_flag = nullptr;
};

class LineServer {
 public:
  /// Maps one request line to one response line. Must be thread-safe; it
  /// is called concurrently from connection threads.
  using Handler = std::function<std::string(std::string_view)>;

  /// Binds and listens on construction (throws hpb::Error on bind
  /// failure); serving starts with start() or serve().
  LineServer(Handler handler, ServerConfig config);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Run the accept loop on this thread until stop() / the stop flag.
  /// Under drain, returns only after live connections have finished.
  void serve();

  /// Run the accept loop on a background thread and return immediately.
  void start();

  /// Wake the accept loop, close all connections, join all threads.
  /// Idempotent.
  void stop();

  /// Graceful drain: stop accepting, let live connections finish their
  /// in-flight and already-buffered requests, then let them close once
  /// idle. Programmatic equivalent of ServerConfig::drain_flag.
  void drain() noexcept { draining_.store(true, std::memory_order_relaxed); }

  /// Actual TCP port (useful with tcp_port == 0); -1 without a TCP
  /// listener.
  [[nodiscard]] int port() const noexcept { return tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const noexcept {
    return config_.unix_path;
  }
  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections shed by the max_connections cap.
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    /// Owned socket; -1 once whichever of the connection thread or stop()
    /// gets there first has closed it (atomic exchange prevents the
    /// classic double-close-reused-fd hazard).
    std::atomic<int> fd{-1};
    std::atomic<bool> done{false};
    std::thread thread;
  };

  [[nodiscard]] bool stopping() const noexcept;
  [[nodiscard]] bool draining() const noexcept;
  void run();
  void accept_loop();
  void serve_connection(Connection& conn);
  void reap_finished_connections();
  [[nodiscard]] std::size_t live_connections_locked() const;
  void close_listeners() noexcept;
  static void close_connection(Connection& conn) noexcept;

  Handler handler_;
  ServerConfig config_;
  std::vector<int> listen_fds_;
  int tcp_port_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool stopped_ = false;  // guarded by connections_mutex_
};

}  // namespace hpb::service
