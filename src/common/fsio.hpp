// Crash-safe file-system primitives shared by the observation journal and
// the history CSV writer: durable appends (write + fsync) and atomic
// whole-file replacement (write temp, fsync, rename, fsync directory).
// POSIX-only, like the rest of the repo's tooling.
//
// Every error path throws hpb::IoError carrying the errno, so callers can
// react per failure class (a full disk degrades one session; a missing
// directory is a configuration error) instead of the process aborting on
// the first ENOSPC.
//
// Fault injection: writes and fsyncs route through a deterministic
// injection seam so disk faults are testable without actually filling a
// disk. Arm it programmatically with set_fault_plan() or via the
// HPB_FS_FAIL environment variable:
//
//   HPB_FS_FAIL=enospc:<path-substring>[:skip]
//   HPB_FS_FAIL=eio:<path-substring>[:skip]
//
// Once armed, the (skip+1)-th write/fsync touching a path that contains
// <path-substring> — and every one after it — throws IoError with the
// named errno, exactly as a real full disk would at that point.
//
// Sync observation: set_sync_observer() lets a test see every successful
// fsync together with the file's size at that moment — what an OS crash
// would keep of the file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace hpb::fs {

/// Deterministic disk-fault injection: write/fsync ops on paths containing
/// `path_substring` fail with `error_number` after `skip` matching ops
/// succeeded. An empty substring matches every path.
struct FaultPlan {
  std::string path_substring;
  int error_number = 0;  // e.g. ENOSPC or EIO
  std::uint64_t skip = 0;
};

/// Arm (or re-arm) the process-wide fault plan. Thread-safe. A plan with
/// error_number == 0 is equivalent to clear_fault_plan().
void set_fault_plan(const FaultPlan& plan);

/// Disarm fault injection and reset the matching-op counter.
void clear_fault_plan();

/// Matching write/fsync ops observed since the plan was armed (injected
/// ones included). Test hook.
[[nodiscard]] std::uint64_t fault_ops_matched();

/// Receives the path and the file's size after each successful sync_fd
/// (the directory syncs of sync_parent_dir included).
using SyncObserver =
    std::function<void(const std::string& path, std::uint64_t size)>;

/// Install (or, with an empty function, remove) the process-wide sync
/// observer. Test hook: calls are serialized under a mutex, and while no
/// observer is installed sync_fd pays one atomic load for it.
void set_sync_observer(SyncObserver observer);

/// Write all of `data` to `fd` (restarting on EINTR), honoring the fault
/// plan. Throws hpb::IoError on failure. Shared by the journal writer so
/// injected faults cover its appends too.
void write_all(int fd, std::string_view data, const std::string& path);

/// Flush a file descriptor's data and metadata to stable storage.
/// Throws hpb::IoError on failure.
void sync_fd(int fd, const std::string& path);

/// fsync the directory containing `path`, making a just-created or
/// just-renamed entry durable. Throws hpb::IoError on failure.
void sync_parent_dir(const std::string& path);

/// Replace `path` atomically with `contents`: write to `<path>.tmp`, fsync,
/// rename over `path`, fsync the directory. Readers either see the old file
/// or the complete new one — never a torn prefix. Throws hpb::IoError.
void write_file_atomic(const std::string& path, std::string_view contents);

/// mkdir -p: create `path` and any missing ancestors (mode 0755). A path
/// that already exists as a directory is fine; anything else (a component
/// exists as a file, permission denied, ...) throws hpb::Error/IoError.
void ensure_dir(const std::string& path);

/// True when `path` names an existing directory.
[[nodiscard]] bool dir_exists(const std::string& path);

}  // namespace hpb::fs
