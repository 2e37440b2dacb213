// Minimal POSIX subprocess utility: the substrate under the distributed
// sharded PEC driver, which spawns tools/pec_worker daemons on loopback
// (src/pec/transport.h) and talks to them over util/net.h sockets.
//
// Scope is deliberately small: spawn a child with a piped stdout (stdin and
// stderr are inherited, so worker diagnostics land on the parent's stderr),
// read the port a server child announces there, reap it, and a kill switch
// for error paths. Children die with the thread that spawned them. The
// whole-buffer, deadline-aware read/write helpers here serve pipes and
// sockets alike.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "util/contracts.h"

namespace ebl {

/// Thrown by the deadline-aware reads when the deadline passes before the
/// requested bytes arrive. A DataError subtype so existing catch sites keep
/// working, but distinguishable where the caller wants to treat a hung peer
/// differently from a corrupt stream (the PEC worker supervisor does).
class TimeoutError : public DataError {
 public:
  using DataError::DataError;
};

/// Waits until @p fd reports one of @p events (POLLHUP / POLLERR count as
/// ready: the next read or write surfaces them) or @p deadline passes.
/// Returns true when ready, false at the deadline; a deadline of
/// time_point::max() waits forever. Polls in slices of at most 100 ms, so
/// the clock is re-checked even when no event ever fires, and retries
/// EINTR. Throws DataError when poll(2) fails.
bool poll_until(int fd, short events,
                std::chrono::steady_clock::time_point deadline);

/// Writes exactly @p n bytes to @p fd, retrying short writes and EINTR.
/// On an O_NONBLOCK fd (every socket util/net.h hands out) EAGAIN waits for
/// writability via poll_until instead of failing, so callers keep blocking
/// semantics regardless of the fd's mode. Throws DataError on any write
/// error — including EPIPE: SIGPIPE is set to ignored (process-wide, once)
/// on the first call, so a dead reader surfaces as an exception instead of
/// killing the process — and TimeoutError once @p deadline passes before all
/// @p n bytes are accepted: the send-side half of hung-peer detection (a TCP
/// peer that stops draining its receive window stalls the writer exactly
/// like a hung reader stalls a pipe). The default deadline waits forever.
void write_all(int fd, const void* data, std::size_t n,
               std::chrono::steady_clock::time_point deadline =
                   std::chrono::steady_clock::time_point::max());

/// Reads exactly @p n bytes from @p fd, retrying short reads, EINTR, and —
/// on O_NONBLOCK fds — EAGAIN (via poll_until, like write_all). Returns true
/// when all @p n bytes arrived; false on clean EOF before the first byte.
/// Throws DataError on EOF after a partial read, or a read error — a
/// mid-record EOF is corruption, not a boundary — and TimeoutError once
/// @p deadline passes: the primitive under hung-worker detection (a peer
/// that stops answering, or stalls mid-record, cannot block the caller
/// forever). The default deadline waits forever.
bool read_exact(int fd, void* data, std::size_t n,
                std::chrono::steady_clock::time_point deadline =
                    std::chrono::steady_clock::time_point::max());

/// One spawned child process with a pipe on its stdout. Move-only; the
/// destructor kills (SIGKILL) and reaps a child that is still running.
class Subprocess {
 public:
  /// Forks and execs argv[0] with arguments argv[1..]. The child's stdout is
  /// a pipe owned by this object; stdin and stderr are inherited. The child
  /// is SIGKILLed when the thread that spawned it exits (PR_SET_PDEATHSIG),
  /// so a driver that dies hard cannot leave orphans behind — spawn from a
  /// thread that outlives the child. Throws DataError when the pipe or the
  /// fork fails; the child exits 127 when the exec itself fails (surfaced
  /// by wait()).
  static Subprocess spawn(const std::vector<std::string>& argv);

  Subprocess() = default;
  Subprocess(Subprocess&& o) noexcept;
  Subprocess& operator=(Subprocess&& o) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// The child's pid; -1 once it was reaped (or for a default-constructed
  /// object).
  pid_t pid() const { return pid_; }

  /// Read end of the child's stdout.
  int stdout_fd() const { return out_; }

  /// Blocks until the child exits and reaps it. Returns the exit code for a
  /// normal exit, or -signal when the child was killed by a signal.
  int wait();

  /// Non-blocking liveness probe (waitpid WNOHANG): reaps and returns the
  /// exit status (wait() semantics) when the child has exited; std::nullopt
  /// while it is still running or after it was already reaped.
  std::optional<int> try_wait();

  /// Blocks until the child exits or @p deadline passes, waiting on a pidfd
  /// (poll_until) rather than polling waitpid. Reaps and returns the exit
  /// status (wait() semantics) when the child exited in time; std::nullopt
  /// at the deadline, the child still running and still owned, or after it
  /// was already reaped. Where the kernel refuses a pidfd (Linux before
  /// 5.3, or a seccomp filter) it polls try_wait every millisecond instead.
  std::optional<int> wait_until(std::chrono::steady_clock::time_point deadline);

  /// SIGKILLs a running child and reaps it. No-op when already waited.
  void terminate();

 private:
  void release();  ///< forgets the reaped child and closes the pipe

  pid_t pid_ = -1;
  int out_ = -1;  ///< parent's read end of the child's stdout
};

/// A spawned server process and the TCP port it announced.
struct ListeningChild {
  Subprocess proc;
  std::uint16_t port = 0;
};

/// Takes @p proc, a spawned server that binds a port and announces it as
/// its first stdout line, "<name>: listening on N" (`pec_worker --listen`,
/// `flaky_proxy`), and parses N (@p name labels errors). Throws
/// TimeoutError when no line arrives by @p deadline, DataError when the
/// child exits first or prints anything else; the child is killed and
/// reaped on every throw.
ListeningChild await_listening(Subprocess proc, const std::string& name,
                               std::chrono::steady_clock::time_point deadline);

/// Spawns @p argv and await_listening on it.
ListeningChild spawn_listening(const std::vector<std::string>& argv,
                               std::chrono::steady_clock::time_point deadline);

}  // namespace ebl
