// The worker channel of the distributed sharded-PEC driver: one TCP session
// on a `pec_worker --listen` daemon, carrying shard jobs out and shard
// results back. There is one transport and one worker loop, whoever started
// the daemon:
//
//   - PecOptions::worker_count > 0: the driver launches each slot's daemon
//     as a child on 127.0.0.1 before its warm start (launch_workers), and
//     the factory opens the slot's first session on it at the first sweep
//     (ephemeral port, read back from the daemon's "listening on N" line);
//     a restart spawns a fresh child. The session owns its child;
//   - PecOptions::worker_hosts: the factory connects to daemons somebody
//     else started — PEC as a service.
//
// The supervisor (src/pec/supervisor.h) deals jobs, enforces deadlines, and
// on any fault discards the session and asks its factory for a fresh one.
// For a spawned daemon that is kill + respawn + reconnect (a fresh
// incarnation, cold pool); for a remote daemon it is a reconnect, and the
// re-sent jobs carry the same session tag, so they find the daemon's pool
// still warm (a re-sent job is pure, so its re-solve is bitwise-identical).
//
// Every method throws DataError for a broken/corrupt channel and
// TimeoutError for a deadline, so the supervisor's crash/hang/corruption
// handling needs no case analysis.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/net.h"
#include "util/subprocess.h"

namespace ebl {

namespace wire {
struct ShardJob;
struct Frame;
}  // namespace wire

/// $EBL_HEARTBEAT_MS: deadline for each liveness ping (kPing -> kPong round
/// trip on an otherwise quiet stream), the one a session opens with
/// included. Default 2000 ms.
double resolve_heartbeat_ms();
/// $EBL_CONNECT_TIMEOUT_MS: deadline for establishing a TCP connection to a
/// worker daemon (and, for a spawned one, for its port announcement).
/// Default 5000 ms.
double resolve_connect_timeout_ms();

/// One supervised worker channel: a connected session on a daemon that has
/// answered a ping, optionally owning the daemon process. Neither copyable nor
/// movable — the supervisor's attempt threads hold it by reference. Thread
/// contract
/// (mirrors the supervisor's writer/reader pair): send_job and finish_jobs
/// belong to the writer thread; read_result to the reader thread;
/// unblock_writer may be called from the reader thread while the writer is
/// mid-send (that is its job); poll_fault / end_session / drain /
/// hard_stop only with no attempt threads running.
class WorkerSession {
 public:
  /// Connects to @p addr and does one kPing -> kPong round trip within
  /// @p heartbeat_ms — a session that exists is one the daemon answered at
  /// our wire version (the frame header pins it); throws DataError when it
  /// does not answer. @p child, when given, is the daemon process behind
  /// @p addr: the session owns it, and a throw here kills and reaps it.
  WorkerSession(const net::HostPort& addr, double connect_timeout_ms,
                double heartbeat_ms, Subprocess child = {});
  WorkerSession(const WorkerSession&) = delete;
  WorkerSession& operator=(const WorkerSession&) = delete;

  /// Serializes and sends one job. @p deadline bounds the send: a daemon
  /// that stops draining its receive window is a hung peer.
  void send_job(const wire::ShardJob& job,
                std::chrono::steady_clock::time_point deadline);

  /// Reads the next frame off the result stream. Returns false on clean EOF
  /// at a frame boundary; throws TimeoutError past @p deadline, DataError on
  /// corruption. The caller checks the frame type.
  bool read_result(wire::Frame* out,
                   std::chrono::steady_clock::time_point deadline);

  /// Writer-side half-close (SHUT_WR): no more jobs will be sent. A healthy
  /// daemon finishes its queue and ends the session. Also the writer
  /// thread's own failure epilogue — it unblocks the paired reader.
  void finish_jobs();

  /// Reader-side failure epilogue: shut the socket down both ways, which
  /// breaks a writer blocked mid-send. Safe from the reader thread while
  /// the writer is inside send_job.
  void unblock_writer();

  /// Between-batches liveness probe (the stream must be quiet): a kPing ->
  /// kPong round trip within the heartbeat deadline. Returns true and fills
  /// @p why when the channel is dead. Never throws — a probe failure IS the
  /// answer.
  bool poll_fault(std::string* why);

  /// Orderly shutdown, first half, once every result is in: half-close, and
  /// ask an owned daemon to stop (SIGTERM) — it ends the session and exits
  /// at its next frame boundary. Call on every slot before draining any, so
  /// all daemons wind down concurrently.
  void end_session();

  /// Orderly shutdown, second half: read the session to its end and reap an
  /// owned daemon, both by @p deadline (a daemon that ignores the stop is
  /// SIGKILLed). Returns an empty string for a clean end, a diagnostic
  /// otherwise (logged, never thrown — all results were already delivered
  /// and CRC-checked by then). The channel is dead afterwards.
  std::string drain(std::chrono::steady_clock::time_point deadline);

  /// Error-path teardown: close the socket, SIGKILL and reap an owned
  /// daemon.
  void hard_stop();

  /// Human-readable channel identity for fault logs ("daemon at
  /// host:9000", plus the pid of an owned daemon).
  std::string describe() const;

 private:
  Subprocess child_;  ///< the owned daemon; empty for a remote one
  net::TcpSocket sock_;
  std::string addr_;
  double heartbeat_ms_ = 0.0;
  std::uint64_t ping_token_ = 0;
};

/// Builds the session for worker slot @p slot. Called by the supervisor at
/// construction (one per slot) and again on every restart/reconnect; throws
/// (DataError/TimeoutError) when the channel cannot be established — the
/// supervisor charges the failure against the slot's restart budget and
/// retries with backoff, so a daemon that is briefly unreachable costs
/// budget but not the solve.
using SessionFactory =
    std::function<std::unique_ptr<WorkerSession>(std::size_t slot)>;

/// Forks @p n `worker_path --listen 127.0.0.1:0` daemons and returns at
/// once, without waiting for any to start: they exec and bind while the
/// caller works on, and make_session_factory opens their sessions later.
/// Call it on the thread that runs the solve — a child dies with the
/// thread that forked it (Subprocess::spawn). Throws DataError when a
/// fork fails.
std::vector<Subprocess> launch_workers(const std::string& worker_path, int n);

/// With @p hosts non-empty, slot i connects to hosts[i % hosts.size()]
/// (point each slot at a distinct daemon — a daemon serves sessions
/// sequentially, so two slots on one address would serialize). With @p hosts
/// empty, slot i's first call takes @p launched[i] (from launch_workers)
/// when there is one, and every other call spawns a fresh
/// `worker_path --listen 127.0.0.1:0` child; either way it reads the port
/// the daemon announces and connects. Connect and opening-ping deadlines
/// come from resolve_connect_timeout_ms / resolve_heartbeat_ms, read once
/// here. The factory owns the launched daemons no call has taken: the end
/// of its last copy kills and reaps them.
SessionFactory make_session_factory(std::vector<net::HostPort> hosts,
                                    std::string worker_path,
                                    std::vector<Subprocess> launched = {});

}  // namespace ebl
