// pec_worker — the out-of-process shard solver of the distributed sharded
// PEC pipeline (src/pec/sharded.cpp), run as a TCP daemon.
//
// Serves shard jobs in the versioned binary wire format (src/pec/wire.h),
// runs each per-shard Jacobi solve through the same solve_shard_job the
// in-process sweep uses — so a remote solve is bitwise-identical to a local
// one — and writes results back. The driver either spawns it on loopback
// (PecOptions::worker_count) or connects to one started elsewhere
// (PecOptions::worker_hosts); the daemon cannot tell the difference.
//
// The worker is stateless across jobs except for its resident evaluators:
// every job is admitted through a ShardPool (src/pec/sharded.h) — the same
// pool the in-process sweep plans with — as a batch of one, sized by the
// job's resident_shard_budget (LRU eviction over it). A job runs on at most
// the daemon's own resolve_threads(0) threads. A resident evaluator
// re-enters through reset_doses, a full refresh to the job's doses that
// keeps the geometry caches, so residency changes wall clock but never a
// bit of the doses. A session tag
// in each job drops the pool when a long-lived worker starts seeing a
// different solve.
//
// Usage:
//   pec_worker --listen HOST:PORT [--fault PLAN]
//
//   --listen H:P     binds H:P (port 0 = ephemeral; the real port is
//                    printed to stdout as "pec_worker: listening on N") and
//                    serves one client connection at a time. A session is
//                    jobs, results and pings: the client's first frame (a
//                    ping, as the driver sends, or a job) must arrive
//                    within 10 s, and every frame header must carry this
//                    daemon's exact wire version. The resident evaluator
//                    pool is keyed by the jobs' session tag, so a
//                    reconnecting driver finds its pool still warm; a job
//                    re-sent after a dropped connection is solved again,
//                    to identical doses (jobs are pure and resident
//                    re-entry resets every dose). A connection-level
//                    protocol error ends that session (logged) and the
//                    daemon keeps accepting.
//   --fault PLAN     fault-injection plan (testing the supervisor; see below)
//
// Graceful shutdown: SIGTERM / SIGINT request a stop. The daemon finishes
// and flushes the job in flight, then exits 0 at the next frame boundary.
// The stop signals are blocked everywhere except inside the idle wait
// (ppoll), so a stop is honored the moment the daemon is idle — while
// listening, waiting for a connection's first frame, or between frames —
// and never lost in a race with that wait.
//
// Fault injection: the chaos half of the supervision contract is tested by
// making real workers misbehave on purpose. A plan comes from --fault or the
// EBL_FAULT_PLAN environment variable (the flag wins) as semicolon-separated
// key=value directives:
//
//   crash-after=N     exit(3) without solving once N jobs have been served
//   hang-after=N      stop responding (sleep forever) once N jobs served
//   truncate-after=N  after serving N jobs, solve the next one but write only
//                     half of the result frame, then exit(3)
//   corrupt-after=N   after serving N jobs, flip one payload byte of the next
//                     result frame (the CRC trailer stays for the clean
//                     bytes, so the driver sees a checksum mismatch)
//   slow-start=MS     sleep MS milliseconds before serving the first job
//
// Counters are per process lifetime: a respawned daemon starts over, which
// is exactly what lets crash-after=N make bounded progress per incarnation.
// The injected faults sit at the process/wire boundary — they never touch
// solve arithmetic — so a recovered run stays bitwise-identical to a
// fault-free one (the property the fault tests pin down).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <time.h>

#include "fault_plan.h"
#include "pec/sharded.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/subprocess.h"

using namespace ebl;

namespace {

// Set by SIGTERM/SIGINT; checked at every frame boundary. The signals are
// blocked except inside wait_readable_or_stop's ppoll, which unblocks them
// atomically: a stop either arrived before the wait (g_stop is already set)
// or interrupts it with EINTR — there is no window in which it can land
// unseen and leave the daemon asleep.
volatile std::sig_atomic_t g_stop = 0;
sigset_t g_wait_mask;  ///< the signal mask to wait with: stops deliverable

void on_stop_signal(int) { g_stop = 1; }

// Installs the stop handlers and blocks the stop signals. Call before any
// thread starts, so every thread inherits the blocked mask.
void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  sigset_t stops;
  sigemptyset(&stops);
  sigaddset(&stops, SIGTERM);
  sigaddset(&stops, SIGINT);
  ::sigprocmask(SIG_BLOCK, &stops, &g_wait_mask);
  sigdelset(&g_wait_mask, SIGTERM);
  sigdelset(&g_wait_mask, SIGINT);
}

// Stop-aware idle wait for readability of @p fd. Returns false when a stop
// was requested first — the caller exits cleanly at the frame boundary it
// is sitting on. Throws TimeoutError once @p deadline passes first (the
// default waits forever).
bool wait_readable_or_stop(int fd, std::chrono::steady_clock::time_point deadline =
                                       std::chrono::steady_clock::time_point::max()) {
  const bool bounded = deadline != std::chrono::steady_clock::time_point::max();
  for (;;) {
    if (g_stop) return false;
    struct timespec left = {};
    if (bounded) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
      if (ns <= 0) throw TimeoutError("pec_worker: no frame before the deadline");
      left.tv_sec = static_cast<time_t>(ns / 1000000000);
      left.tv_nsec = static_cast<long>(ns % 1000000000);
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int rv = ::ppoll(&pfd, 1, bounded ? &left : nullptr, &g_wait_mask);
    if (rv < 0) {
      if (errno == EINTR) continue;  // loop re-checks g_stop
      throw DataError(std::string("pec_worker: poll failed: ") +
                      std::strerror(errno));
    }
    if (rv > 0) return true;  // readable (or HUP/ERR: read_frame surfaces it)
  }
}

// Parsed fault-injection plan (see the file comment). A count of UINT64_MAX
// means "never".
struct FaultPlan {
  std::uint64_t crash_after = UINT64_MAX;
  std::uint64_t hang_after = UINT64_MAX;
  std::uint64_t truncate_after = UINT64_MAX;
  std::uint64_t corrupt_after = UINT64_MAX;
  std::uint64_t slow_start_ms = 0;

  static FaultPlan parse(const std::string& spec) {
    FaultPlan plan;
    parse_fault_plan(spec, "pec_worker",
                     {{"crash-after", &plan.crash_after},
                      {"hang-after", &plan.hang_after},
                      {"truncate-after", &plan.truncate_after},
                      {"corrupt-after", &plan.corrupt_after},
                      {"slow-start", &plan.slow_start_ms}});
    return plan;
  }
};

// What the daemon keeps across sessions: the resident evaluators of the
// current driver session and the jobs served so far (the fault plan's
// counter).
struct DaemonState {
  ShardPool pool;
  std::uint64_t pool_session = 0;
  std::uint64_t served = 0;
};

// One job frame, already type-checked by the caller: fault hooks, decode,
// solve, fault hooks, answer.
void serve_job(const wire::Frame& frame, int results_fd, DaemonState& st,
               const FaultPlan& fault) {
  std::uint64_t& served = st.served;
  if (served == fault.crash_after) {
    std::cerr << "pec_worker: injected crash after " << served << " job(s)\n";
    std::_Exit(3);
  }
  if (served == fault.hang_after) {
    std::cerr << "pec_worker: injected hang after " << served << " job(s)\n";
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }
  wire::ShardJob job = wire::decode_shard_job(frame.payload);
  if (job.session_id != st.pool_session) {
    st.pool.clear();  // another solve: its shard keys name other geometry
    st.pool_session = job.session_id;
  }
  // A job runs on at most the daemon's own thread count, whatever it asks
  // for: the pool keeps every thread it ever spawns, and thread count never
  // changes a result.
  job.exposure.threads =
      std::min(resolve_threads(job.exposure.threads), resolve_threads(0));
  ShardPool::Slot* slot =
      st.pool.plan({{job.shard_key, job.active.size(), job.ghosts.size()}},
                   job.resident_shard_budget)[0];
  wire::ShardResult result = solve_shard_job(job, slot);
  result.pool_resident = st.pool.resident();
  result.pool_evictions = st.pool.evictions();
  const std::string msg =
      wire::encode_framed(wire::MsgType::kShardResult, wire::encode(result));
  if (served == fault.truncate_after) {
    // Half a result frame, then death: the driver's reader must see a
    // mid-record EOF (or a deadline), never a plausible partial result.
    write_all(results_fd, msg.data(), msg.size() / 2);
    std::cerr << "pec_worker: injected truncated frame after " << served
              << " job(s)\n";
    std::_Exit(3);
  }
  if (served == fault.corrupt_after) {
    // One flipped payload byte under an honest CRC trailer: the driver
    // must reject the frame on checksum, not apply garbage doses.
    std::string bad = msg;
    bad[wire::kFrameHeaderSize + (bad.size() - wire::kFrameHeaderSize - 4) / 2] ^=
        0x40;
    std::cerr << "pec_worker: injected corrupt frame after " << served
              << " job(s)\n";
    write_all(results_fd, bad.data(), bad.size());
    ++served;
    return;
  }
  write_all(results_fd, msg.data(), msg.size());
  ++served;
}

// One accepted connection = one session: jobs and pings until the client
// half-closes (clean end) or a stop is requested. Throws on protocol
// violations — the caller logs and keeps accepting.
void serve_session(net::TcpSocket& sock, DaemonState& st,
                   const FaultPlan& fault) {
  const int fd = sock.fd();
  // The client speaks first; bound the wait for its first frame so a
  // connect-and-stall client cannot wedge the daemon for everyone behind
  // it. Later frames may be as far apart as the client likes. Every such
  // wait is stop-aware, so a stop is not held up by a silent client. Once a
  // frame has begun, the rest of it is read with the stop signals blocked,
  // so it gets the same bound: a client that stalls inside a frame costs at
  // most that long, a stop included. A client that connects and leaves
  // without a word is a clean end, not worth a log line.
  constexpr auto kFrameBound = std::chrono::seconds(10);
  auto idle_deadline = std::chrono::steady_clock::now() + kFrameBound;
  wire::Frame frame;
  for (;;) {
    if (!wait_readable_or_stop(fd, idle_deadline)) return;  // stop requested
    if (!wire::read_frame(fd, &frame, std::chrono::steady_clock::now() + kFrameBound))
      return;  // client closed
    if (frame.type == wire::MsgType::kPing)
      wire::write_frame(fd, wire::MsgType::kPong, frame.payload);
    else if (frame.type == wire::MsgType::kShardJob)
      serve_job(frame, fd, st, fault);
    else
      throw DataError("pec_worker: expected a shard job or a ping frame");
    idle_deadline = std::chrono::steady_clock::time_point::max();
  }
}

int run_daemon(const net::HostPort& addr, const FaultPlan& fault) {
  net::TcpListener listener = net::TcpListener::bind(addr.host, addr.port);
  // The one line a spawning test/driver parses — flushed so it arrives even
  // through a pipe.
  std::printf("pec_worker: listening on %u\n",
              static_cast<unsigned>(listener.port()));
  std::fflush(stdout);
  if (fault.slow_start_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.slow_start_ms));
  }

  // Sessions are served sequentially, and the pool lives ACROSS them — that
  // is the whole point of the daemon: a driver that reconnects (same session
  // tag in its jobs) finds its evaluators warm.
  DaemonState st;
  std::uint64_t sessions = 0;
  while (wait_readable_or_stop(listener.fd())) {
    // Readable means a client is queued; the short deadline only covers a
    // client that gave up between the wakeup and the accept.
    std::optional<net::TcpSocket> client = listener.accept(
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
    if (!client) continue;
    ++sessions;
    try {
      serve_session(*client, st, fault);
    } catch (const std::exception& e) {
      // A broken client (or a fault-injection proxy doing its job) costs
      // that session only; the daemon keeps accepting.
      std::cerr << "pec_worker: session ended with error: " << e.what()
                << "\n";
    }
  }
  // One string, one write: spawned daemons stop together and share stderr.
  std::cerr << "pec_worker: stop signal; served " + std::to_string(st.served) +
                   " job(s) over " + std::to_string(sessions) + " session(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::cerr << "usage: pec_worker --listen HOST:PORT [--fault PLAN]\n";
    return 2;
  };
  std::string listen_spec;
  const char* fault_env = std::getenv("EBL_FAULT_PLAN");
  std::string fault_spec = fault_env ? fault_env : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      listen_spec = argv[++i];
    } else if (arg == "--fault" && has_value) {
      fault_spec = argv[++i];  // the flag beats the environment
    } else {
      return usage();
    }
  }
  if (listen_spec.empty()) return usage();

  install_stop_handlers();
  try {
    return run_daemon(net::parse_host_port(listen_spec),
                      FaultPlan::parse(fault_spec));
  } catch (const std::exception& e) {
    std::cerr << "pec_worker: " << e.what() << "\n";
    return 1;
  }
}
