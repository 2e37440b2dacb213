#include "util/subprocess.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/contracts.h"

namespace ebl {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw DataError(std::string(what) + ": " + std::strerror(errno));
}

// A worker that died mid-conversation must surface as a DataError on the
// writing thread, not as a process-killing SIGPIPE. Ignoring the signal is
// process-wide; done lazily so merely linking this file changes nothing.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

// poll_until, throwing TimeoutError (with @p timeout_what) at the deadline.
void wait_io(int fd, short events, std::chrono::steady_clock::time_point deadline,
             const char* timeout_what) {
  if (!poll_until(fd, events, deadline)) throw TimeoutError(timeout_what);
}

}  // namespace

bool poll_until(int fd, short events,
                std::chrono::steady_clock::time_point deadline) {
  using clock = std::chrono::steady_clock;
  for (;;) {
    int slice = 100;
    if (deadline != clock::time_point::max()) {
      const auto now = clock::now();
      if (now >= deadline) return false;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      slice = static_cast<int>(
          std::min<std::chrono::milliseconds::rep>(left.count() + 1, 100));
    }
    struct pollfd pfd = {fd, events, 0};
    const int rv = ::poll(&pfd, 1, slice);
    if (rv < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll failed");
    }
    if (rv > 0) return true;
  }
}

void write_all(int fd, const void* data, std::size_t n,
               std::chrono::steady_clock::time_point deadline) {
  ignore_sigpipe_once();
  const char* p = static_cast<const char*>(data);
  bool started = false;
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // O_NONBLOCK fd with a full buffer: wait for writability (bounded
        // by the deadline) instead of surfacing a spurious error. This is
        // the short-write hole the nonblocking sockets exposed — a partial
        // write followed by EAGAIN must resume, not throw.
        wait_io(fd, POLLOUT, deadline,
                started ? "subprocess: write deadline exceeded mid-record"
                        : "subprocess: write deadline exceeded");
        continue;
      }
      throw_errno("subprocess: write failed");
    }
    if (w > 0) started = true;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool read_exact(int fd, void* data, std::size_t n,
                std::chrono::steady_clock::time_point deadline) {
  using clock = std::chrono::steady_clock;
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  const auto wait_readable = [&] {
    wait_io(fd, POLLIN, deadline,
            got == 0 ? "subprocess: read deadline exceeded"
                     : "subprocess: read deadline exceeded mid-record");
  };
  while (got < n) {
    // Under a deadline, wait for readability first so the deadline is
    // honored even when no byte ever arrives; without one, read() blocks
    // (blocking fd) or returns EAGAIN and waits below (O_NONBLOCK fd).
    if (deadline != clock::time_point::max()) wait_readable();
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking fd not ready (or a poll wakeup the kernel revoked).
        wait_readable();
        continue;
      }
      throw_errno("subprocess: read failed");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a record boundary
      throw DataError("subprocess: stream ended mid-record");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
  expects(!argv.empty(), "Subprocess::spawn: empty argv");
  ignore_sigpipe_once();

  // out_pipe: child writes [1] -> parent reads [0] (child stdout).
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) throw_errno("subprocess: pipe failed");

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : out_pipe) ::close(fd);
    throw_errno("subprocess: fork failed");
  }
  if (pid == 0) {
    // Child: die with the spawning thread. The getppid check closes the
    // race where the parent already exited before the prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    // Wire the pipe to stdout, drop everything else we opened.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    for (int fd : out_pipe) ::close(fd);
    ::signal(SIGPIPE, SIG_DFL);  // children get the default disposition back
    ::execvp(cargv[0], cargv.data());
    // exec failed: nothing sane to do in a forked child but report and exit.
    const char* msg = "subprocess: exec failed: ";
    (void)!::write(STDERR_FILENO, msg, std::strlen(msg));
    (void)!::write(STDERR_FILENO, cargv[0], std::strlen(cargv[0]));
    (void)!::write(STDERR_FILENO, "\n", 1);
    ::_exit(127);
  }

  ::close(out_pipe[1]);
  Subprocess s;
  s.pid_ = pid;
  s.out_ = out_pipe[0];
  return s;
}

Subprocess::Subprocess(Subprocess&& o) noexcept : pid_(o.pid_), out_(o.out_) {
  o.pid_ = -1;
  o.out_ = -1;
}

Subprocess& Subprocess::operator=(Subprocess&& o) noexcept {
  if (this != &o) {
    terminate();
    pid_ = o.pid_;
    out_ = o.out_;
    o.pid_ = -1;
    o.out_ = -1;
  }
  return *this;
}

Subprocess::~Subprocess() { terminate(); }

void Subprocess::release() {
  pid_ = -1;
  if (out_ >= 0) {
    ::close(out_);
    out_ = -1;
  }
}

int Subprocess::wait() {
  expects(pid_ > 0, "Subprocess::wait: no running child");
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  release();
  if (r < 0) throw_errno("subprocess: waitpid failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::optional<int> Subprocess::try_wait() {
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return std::nullopt;  // still running
  release();
  if (r < 0) throw_errno("subprocess: waitpid failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::optional<int> Subprocess::wait_until(
    std::chrono::steady_clock::time_point deadline) {
  using clock = std::chrono::steady_clock;
  if (pid_ <= 0) return std::nullopt;
  // Until reaped, the child (a zombie at worst) keeps its pid, so the pidfd
  // names this child.
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (fd < 0) {  // no pidfd: poll waitpid
    std::optional<int> status;
    while (!(status = try_wait()) && clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return status;
  }
  bool exited = false;
  try {
    exited = poll_until(fd, POLLIN, deadline);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (!exited) return std::nullopt;
  return wait();
}

void Subprocess::terminate() {
  if (pid_ <= 0) {
    release();
    return;
  }
  ::kill(pid_, SIGKILL);
  wait();
}

ListeningChild await_listening(Subprocess proc, const std::string& name,
                               std::chrono::steady_clock::time_point deadline) {
  ListeningChild c;
  c.proc = std::move(proc);
  // Byte by byte up to the newline, so nothing after the announcement is
  // consumed from the pipe.
  std::string line;
  for (;;) {
    char ch = 0;
    if (!read_exact(c.proc.stdout_fd(), &ch, 1, deadline))
      throw DataError(name + " exited before announcing a port");
    if (ch == '\n') break;
    line.push_back(ch);
    if (line.size() > 256) throw DataError(name + " printed garbage: " + line);
  }
  static constexpr std::string_view kTag = ": listening on ";
  const std::size_t at = line.find(kTag);
  char* end = nullptr;
  const char* digits = at == std::string::npos ? "" : line.c_str() + at + kTag.size();
  const unsigned long port = std::strtoul(digits, &end, 10);
  if (end == digits || *end != '\0' || port == 0 || port > 65535)
    throw DataError(name + " announced no valid port: " + line);
  c.port = static_cast<std::uint16_t>(port);
  return c;
}

ListeningChild spawn_listening(const std::vector<std::string>& argv,
                               std::chrono::steady_clock::time_point deadline) {
  return await_listening(Subprocess::spawn(argv), argv[0], deadline);
}

}  // namespace ebl
