// Minimal POSIX TCP sockets: the substrate under the distributed PEC worker
// sessions (src/pec/transport.h drives tools/pec_worker daemons over these,
// and tools/flaky_proxy relays through them).
//
// Scope mirrors util/subprocess.h deliberately: blocking-style whole-buffer
// I/O with optional deadlines, nothing else. Every socket this header hands
// out is O_NONBLOCK at the fd level — write_all / read_exact
// (util/subprocess.h) absorb EAGAIN by polling for readiness, so callers
// still see blocking semantics, but their deadline parameter can bound any read
// *or write*: a peer that stops draining its receive window cannot block the
// caller forever (the send half of hung-worker detection). TCP_NODELAY is
// set everywhere — the wire protocol is request/response frames, and Nagle
// would serialize every round trip against the peer's delayed ACK.
//
// Errors are DataError (util/contracts.h); deadline expiry is TimeoutError
// (util/subprocess.h), the same types every read_exact / write_all raises,
// so the supervisor's fault handling needs no socket-specific cases.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace ebl::net {

/// A parsed "host:port" spec. Host may be a name or a numeric address;
/// port 0 is valid for TcpListener::bind (the OS picks an ephemeral port).
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Splits "host:port" at the last ':' (names never contain one; a bare
/// numeric IPv6 host is not supported — bracket syntax is out of scope for
/// this transport). Throws DataError on a missing host, a missing or
/// non-numeric port, or a port out of range.
HostPort parse_host_port(const std::string& spec);

/// One connected TCP stream. Move-only; the destructor closes the fd.
/// The fd is O_NONBLOCK — use write_all / read_exact / wire::read_frame,
/// which poll for readiness (with or without a deadline).
class TcpSocket {
 public:
  /// Connects to host:port, bounded by @p deadline (non-blocking connect +
  /// poll + SO_ERROR). Resolves names via getaddrinfo and tries each
  /// address until one connects. Throws TimeoutError when the deadline
  /// passes first, DataError on resolution or connection failure.
  static TcpSocket connect(const std::string& host, std::uint16_t port,
                           std::chrono::steady_clock::time_point deadline);

  /// Wraps an already-connected fd (TcpListener::accept uses this). Sets
  /// O_NONBLOCK and TCP_NODELAY on it.
  static TcpSocket adopt(int fd);

  TcpSocket() = default;
  TcpSocket(TcpSocket&& o) noexcept;
  TcpSocket& operator=(TcpSocket&& o) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;
  ~TcpSocket();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Half-close: signals EOF to the peer's reads while this side can still
  /// read — the end of a job stream (a well-behaved worker finishes its
  /// queue and closes the session on it).
  void shutdown_write();

  /// Full shutdown without closing the fd: wakes any thread blocked in
  /// poll() on this socket (reads see EOF, writes see EPIPE). The unblock
  /// primitive for the paired writer/reader threads in the supervisor —
  /// safe to call from another thread, unlike close() (fd reuse races).
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket. Move-only; the destructor closes the fd.
class TcpListener {
 public:
  /// Binds host:port (SO_REUSEADDR) and listens. Port 0 asks the OS for an
  /// ephemeral port — read the real one back via port(). Throws DataError
  /// on resolution/bind/listen failure.
  static TcpListener bind(const std::string& host, std::uint16_t port);

  TcpListener() = default;
  TcpListener(TcpListener&& o) noexcept;
  TcpListener& operator=(TcpListener&& o) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// The bound port (resolved via getsockname, so ephemeral binds report
  /// the port the OS actually picked).
  std::uint16_t port() const { return port_; }

  /// Waits for a client until @p deadline: the accepted connection, or
  /// std::nullopt when the deadline passes first (callers poll in bounded
  /// slices — the pec_worker daemon checks its stop flag between slices).
  /// EINTR-safe. Throws DataError on accept failure.
  std::optional<TcpSocket> accept(std::chrono::steady_clock::time_point deadline);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace ebl::net
