#include "pec/transport.h"

#include <cstdlib>
#include <optional>

#include <signal.h>

#include "pec/wire.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using clock_t_ = std::chrono::steady_clock;

double env_ms(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0' && v > 0) return v;
  }
  return fallback;
}

Subprocess spawn_daemon(const std::string& worker_path) {
  return Subprocess::spawn({worker_path, "--listen", "127.0.0.1:0"});
}

clock_t_::time_point after_ms(double ms) {
  return clock_t_::now() + std::chrono::duration_cast<clock_t_::duration>(
                               std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

double resolve_heartbeat_ms() { return env_ms("EBL_HEARTBEAT_MS", 2000.0); }

double resolve_connect_timeout_ms() {
  return env_ms("EBL_CONNECT_TIMEOUT_MS", 5000.0);
}

WorkerSession::WorkerSession(const net::HostPort& addr, double connect_timeout_ms,
                             double heartbeat_ms, Subprocess child)
    : child_(std::move(child)),
      addr_(addr.host + ":" + std::to_string(addr.port)),
      heartbeat_ms_(heartbeat_ms) {
  sock_ = net::TcpSocket::connect(addr.host, addr.port,
                                  after_ms(connect_timeout_ms));
  // The opening ping: a daemon of another wire version fails the frame
  // header check, and one that cannot serve does not answer in time.
  std::string why;
  if (poll_fault(&why)) throw DataError(why);
}

void WorkerSession::send_job(const wire::ShardJob& job,
                             clock_t_::time_point deadline) {
  wire::write_frame(sock_.fd(), wire::MsgType::kShardJob, wire::encode(job),
                    deadline);
}

bool WorkerSession::read_result(wire::Frame* out, clock_t_::time_point deadline) {
  return wire::read_frame(sock_.fd(), out, deadline);
}

void WorkerSession::finish_jobs() { sock_.shutdown_write(); }

void WorkerSession::unblock_writer() { sock_.shutdown_both(); }

bool WorkerSession::poll_fault(std::string* why) {
  // Strict request/response on a quiet stream: the echoed token proves the
  // pong answers THIS ping, not a stale frame from a confused peer.
  try {
    const std::uint64_t token = ++ping_token_;
    const auto deadline = after_ms(heartbeat_ms_);
    wire::write_frame(sock_.fd(), wire::MsgType::kPing,
                      wire::encode_token(token), deadline);
    wire::Frame frame;
    if (!wire::read_frame(sock_.fd(), &frame, deadline)) {
      *why = addr_ + ": daemon closed the connection";
      return true;
    }
    if (frame.type != wire::MsgType::kPong ||
        wire::decode_token(frame.payload) != token) {
      *why = addr_ + ": bad pong";
      return true;
    }
    return false;
  } catch (const std::exception& e) {
    *why = addr_ + ": heartbeat failed: " + e.what();
    return true;
  }
}

void WorkerSession::end_session() {
  sock_.shutdown_write();
  // An owned daemon outlives its session by design; stop it the graceful
  // way so no worker survives the solve.
  if (child_.pid() > 0) ::kill(child_.pid(), SIGTERM);
}

std::string WorkerSession::drain(clock_t_::time_point deadline) {
  // A healthy daemon ends its side of the session, which reads as clean EOF
  // here. Stray frames are discarded — all results were delivered before
  // the session was ended.
  std::string dirty;
  try {
    wire::Frame frame;
    while (wire::read_frame(sock_.fd(), &frame, deadline)) {
    }
  } catch (const std::exception& e) {
    dirty = std::string("dirty session close: ") + e.what();
  }
  sock_.close();
  if (child_.pid() <= 0) return dirty;
  const std::optional<int> status = child_.wait_until(deadline);
  std::string stop;
  if (!status) {
    child_.terminate();
    stop = "ignored shutdown; killed";
  } else if (*status != 0) {
    stop = "exited with status " + std::to_string(*status) + " at shutdown";
  }
  if (dirty.empty() || stop.empty()) return dirty + stop;
  return dirty + "; " + stop;
}

void WorkerSession::hard_stop() {
  sock_.close();
  child_.terminate();
}

std::string WorkerSession::describe() const {
  std::string d = "daemon at " + addr_;
  if (child_.pid() > 0) d += " (pid " + std::to_string(child_.pid()) + ")";
  return d;
}

std::vector<Subprocess> launch_workers(const std::string& worker_path, int n) {
  std::vector<Subprocess> launched;
  for (int i = 0; i < n; ++i)
    launched.push_back(spawn_daemon(worker_path));
  return launched;
}

SessionFactory make_session_factory(std::vector<net::HostPort> hosts,
                                    std::string worker_path,
                                    std::vector<Subprocess> launched) {
  expects(!hosts.empty() || !worker_path.empty(),
          "session factory: no daemon addresses and no worker to spawn");
  const double connect_ms = resolve_connect_timeout_ms();
  const double heartbeat_ms = resolve_heartbeat_ms();
  // Shared so the factory stays copyable; the last copy's end kills and
  // reaps every daemon no session took.
  auto unopened = std::make_shared<std::vector<Subprocess>>(std::move(launched));
  return [hosts = std::move(hosts), worker_path = std::move(worker_path), unopened,
          connect_ms, heartbeat_ms](std::size_t slot) {
    if (!hosts.empty())
      return std::make_unique<WorkerSession>(hosts[slot % hosts.size()],
                                             connect_ms, heartbeat_ms);
    Subprocess proc;
    if (slot < unopened->size()) proc = std::move((*unopened)[slot]);
    if (proc.pid() <= 0) proc = spawn_daemon(worker_path);
    ListeningChild child =
        await_listening(std::move(proc), worker_path, after_ms(connect_ms));
    return std::make_unique<WorkerSession>(net::HostPort{"127.0.0.1", child.port},
                                           connect_ms, heartbeat_ms,
                                           std::move(child.proc));
  };
}

}  // namespace ebl
