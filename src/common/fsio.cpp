#include "common/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/error.hpp"

namespace hpb::fs {
namespace {

std::string errno_text(int err) { return std::strerror(err); }

[[noreturn]] void throw_io(const std::string& what, int err) {
  throw IoError(what + ": " + errno_text(err), err);
}

// ------------------------------------------------------- fault injection
//
// One process-wide plan behind a mutex: the seam is for tests and chaos
// benches, never on a hot path that matters (every guarded op already
// pays a syscall + fsync).

struct FaultState {
  std::mutex mutex;
  FaultPlan plan;
  std::uint64_t matched = 0;
  bool env_parsed = false;
};

FaultState& fault_state() {
  static FaultState state;
  return state;
}

/// HPB_FS_FAIL=enospc:<substring>[:skip] — strict parse, a malformed value
/// is a configuration error worth failing loudly on.
void parse_env_plan_locked(FaultState& state) {
  if (state.env_parsed) {
    return;
  }
  state.env_parsed = true;
  const char* env = std::getenv("HPB_FS_FAIL");
  if (env == nullptr || *env == '\0') {
    return;
  }
  const std::string value(env);
  const std::size_t first = value.find(':');
  HPB_REQUIRE(first != std::string::npos,
              "HPB_FS_FAIL must be <errno-name>:<path-substring>[:skip], got '" +
                  value + "'");
  const std::string name = value.substr(0, first);
  FaultPlan plan;
  if (name == "enospc") {
    plan.error_number = ENOSPC;
  } else if (name == "eio") {
    plan.error_number = EIO;
  } else {
    HPB_REQUIRE(false, "HPB_FS_FAIL: unknown errno name '" + name +
                           "' (expected enospc or eio)");
  }
  const std::size_t second = value.find(':', first + 1);
  if (second == std::string::npos) {
    plan.path_substring = value.substr(first + 1);
  } else {
    plan.path_substring = value.substr(first + 1, second - first - 1);
    const std::string skip = value.substr(second + 1);
    char* end = nullptr;
    plan.skip = std::strtoull(skip.c_str(), &end, 10);
    HPB_REQUIRE(end != nullptr && *end == '\0' && !skip.empty(),
                "HPB_FS_FAIL: skip must be a non-negative integer, got '" +
                    skip + "'");
  }
  state.plan = plan;
}

/// Throws the planned IoError when `path` matches and the skip budget is
/// spent. Called before the real syscall so an injected ENOSPC writes
/// nothing, like a truly full disk on an O_SYNC-style boundary.
void maybe_inject_fault(const std::string& path) {
  FaultState& state = fault_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  parse_env_plan_locked(state);
  if (state.plan.error_number == 0) {
    return;
  }
  if (path.find(state.plan.path_substring) == std::string::npos) {
    return;
  }
  const std::uint64_t index = state.matched++;
  if (index < state.plan.skip) {
    return;
  }
  const int err = state.plan.error_number;
  throw_io("injected fault on '" + path + "'", err);
}

// ------------------------------------------------------- sync observation

struct SyncWatch {
  std::mutex mutex;
  SyncObserver observer;
  std::atomic<bool> armed{false};
};

SyncWatch& sync_watch() {
  static SyncWatch watch;
  return watch;
}

void notify_sync(int fd, const std::string& path) {
  SyncWatch& watch = sync_watch();
  if (!watch.armed.load(std::memory_order_acquire)) {
    return;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    throw_io("fstat '" + path + "'", errno);
  }
  // Called under the lock: once set_sync_observer() returns, the observer
  // it replaced is never called again, so its captures may die.
  std::lock_guard<std::mutex> lock(watch.mutex);
  if (watch.observer) {
    watch.observer(path, static_cast<std::uint64_t>(st.st_size));
  }
}

std::string parent_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

void set_fault_plan(const FaultPlan& plan) {
  FaultState& state = fault_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.plan = plan;
  state.matched = 0;
  state.env_parsed = true;  // an explicit plan overrides the environment
}

void clear_fault_plan() { set_fault_plan(FaultPlan{}); }

std::uint64_t fault_ops_matched() {
  FaultState& state = fault_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.matched;
}

void set_sync_observer(SyncObserver observer) {
  SyncWatch& watch = sync_watch();
  std::lock_guard<std::mutex> lock(watch.mutex);
  watch.armed.store(static_cast<bool>(observer), std::memory_order_release);
  watch.observer = std::move(observer);
}

void write_all(int fd, std::string_view data, const std::string& path) {
  maybe_inject_fault(path);
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_io("write '" + path + "'", errno);
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void sync_fd(int fd, const std::string& path) {
  maybe_inject_fault(path);
  if (::fsync(fd) != 0) {
    throw_io("fsync '" + path + "'", errno);
  }
  notify_sync(fd, path);
}

void sync_parent_dir(const std::string& path) {
  const std::string dir = parent_of(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw_io("open directory '" + dir + "'", errno);
  }
  try {
    sync_fd(fd, dir);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw_io("open '" + tmp + "'", errno);
  }
  try {
    write_all(fd, contents, tmp);
    sync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_io("rename '" + tmp + "' -> '" + path + "'", err);
  }
  sync_parent_dir(path);
}

bool dir_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

void ensure_dir(const std::string& path) {
  HPB_REQUIRE(!path.empty(), "ensure_dir: path must not be empty");
  // Walk the path a component at a time; EEXIST from a concurrent creator
  // is success, anything already present must actually be a directory.
  std::size_t pos = path.front() == '/' ? 1 : 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string prefix =
        slash == std::string::npos ? path : path.substr(0, slash);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      throw_io("mkdir '" + prefix + "'", errno);
    }
    if (!prefix.empty()) {
      HPB_REQUIRE(dir_exists(prefix),
                  "ensure_dir: '" + prefix + "' exists but is not a directory");
    }
    if (slash == std::string::npos) {
      break;
    }
    pos = slash + 1;
  }
}

}  // namespace hpb::fs
