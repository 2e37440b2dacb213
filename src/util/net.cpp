#include "util/net.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/contracts.h"
#include "util/subprocess.h"

namespace ebl::net {
namespace {

using clock_t_ = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw DataError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("net: cannot set O_NONBLOCK");
}

void set_nodelay(int fd) {
  const int one = 1;
  // Failure (e.g. on a non-TCP fd in tests) costs latency, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct AddrInfoDeleter {
  void operator()(addrinfo* p) const { ::freeaddrinfo(p); }
};

std::unique_ptr<addrinfo, AddrInfoDeleter> resolve(const std::string& host,
                                                   std::uint16_t port,
                                                   bool passive) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &res);
  if (rc != 0)
    throw DataError("net: cannot resolve " + host + ": " + ::gai_strerror(rc));
  return std::unique_ptr<addrinfo, AddrInfoDeleter>(res);
}

}  // namespace

HostPort parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0)
    throw DataError("net: expected host:port, got \"" + spec + "\"");
  HostPort hp;
  hp.host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  if (port.empty()) throw DataError("net: missing port in \"" + spec + "\"");
  char* end = nullptr;
  const unsigned long v = std::strtoul(port.c_str(), &end, 10);
  if (end == port.c_str() || *end != '\0' || v > 65535)
    throw DataError("net: bad port in \"" + spec + "\"");
  hp.port = static_cast<std::uint16_t>(v);
  return hp;
}

TcpSocket TcpSocket::connect(const std::string& host, std::uint16_t port,
                             clock_t_::time_point deadline) {
  const auto addrs = resolve(host, port, /*passive=*/false);
  std::string last_error = "no addresses";
  for (const addrinfo* ai = addrs.get(); ai; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    try {
      set_nonblocking(fd);
    } catch (const DataError& e) {
      ::close(fd);
      throw;
    }
    // Non-blocking connect: EINPROGRESS, then poll for writability and read
    // the outcome back through SO_ERROR — the only deadline-capable shape.
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0 && errno == EINPROGRESS) {
      if (!poll_until(fd, POLLOUT, deadline)) {
        ::close(fd);
        throw TimeoutError("net: connect to " + host + ":" +
                           std::to_string(port) + " timed out");
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0)
        soerr = errno;
      rc = soerr == 0 ? 0 : -1;
      errno = soerr;
    }
    if (rc == 0) {
      set_nodelay(fd);
      TcpSocket s;
      s.fd_ = fd;
      return s;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  throw DataError("net: cannot connect to " + host + ":" +
                  std::to_string(port) + ": " + last_error);
}

TcpSocket TcpSocket::adopt(int fd) {
  expects(fd >= 0, "TcpSocket::adopt: bad fd");
  set_nonblocking(fd);
  set_nodelay(fd);
  TcpSocket s;
  s.fd_ = fd;
  return s;
}

TcpSocket::TcpSocket(TcpSocket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

TcpSocket& TcpSocket::operator=(TcpSocket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

TcpSocket::~TcpSocket() { close(); }

void TcpSocket::shutdown_write() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_WR);
}

void TcpSocket::shutdown_both() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port) {
  const auto addrs = resolve(host, port, /*passive=*/true);
  std::string last_error = "no addresses";
  for (const addrinfo* ai = addrs.get(); ai; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 16) == 0) {
      sockaddr_storage sa = {};
      socklen_t len = sizeof(sa);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
        last_error = std::strerror(errno);
        ::close(fd);
        continue;
      }
      TcpListener l;
      l.fd_ = fd;
      l.port_ = sa.ss_family == AF_INET6
                    ? ntohs(reinterpret_cast<sockaddr_in6*>(&sa)->sin6_port)
                    : ntohs(reinterpret_cast<sockaddr_in*>(&sa)->sin_port);
      return l;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  throw DataError("net: cannot listen on " + host + ":" +
                  std::to_string(port) + ": " + last_error);
}

TcpListener::TcpListener(TcpListener&& o) noexcept
    : fd_(o.fd_), port_(o.port_) {
  o.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
  }
  return *this;
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<TcpSocket> TcpListener::accept(clock_t_::time_point deadline) {
  expects(fd_ >= 0, "TcpListener::accept: not listening");
  for (;;) {
    if (!poll_until(fd_, POLLIN, deadline)) return std::nullopt;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return TcpSocket::adopt(client);
    // The connection can vanish between poll and accept (peer RST) — not a
    // listener fault; wait for the next one.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED)
      continue;
    throw_errno("net: accept failed");
  }
}

}  // namespace ebl::net
