// End-to-end tests for PEC-as-a-service: worker sessions on daemons the
// driver did not start (src/pec/transport.h, PecOptions::worker_hosts), the
// pec_worker daemon itself, and the flaky_proxy network fault injector —
// the network half of the supervision contract, mirroring what
// tests/pec_fault_test.cpp pins for spawned workers.
//
// The properties under test:
//   - a solve through real TCP daemons is bitwise-identical to the
//     in-process sharded solve (same solve_shard_job, different transport);
//   - every flaky_proxy fault mode (drop, delay, truncate, reset) still ends
//     in a completed, bitwise-identical solve — reconnect + re-send are a
//     liveness story, never a numerics story;
//   - a daemon that dies for good consumes the restart budget via refused
//     reconnects and the solve degrades to in-process, bitwise-identical;
//   - the wire-v10 session protocol behaves: a daemon answers a ping or
//     serves a job sent as a connection's first frame, a frame of another
//     wire version is rejected without killing the daemon, and a session
//     on a daemon of another version fails to open;
//   - SIGTERM is graceful (exit 0) and prompt while the daemon listens or
//     waits for a connected client's first frame;
//   - a spawned daemon dies with the process that spawned it.
//
// Daemons and proxies are spawned as real subprocesses; their ephemeral
// ports are parsed from the "listening on N" line each prints to stdout
// (spawn_listening, the parser the driver's own spawns use).
// Every spawn passes --fault "" so an ambient EBL_FAULT_PLAN (the chaos CI
// job exports one) cannot leak worker-process faults into these tests —
// except ProxyEnvFaultPlan, which deliberately picks up EBL_PROXY_FAULT_PLAN
// to give the CI proxy-chaos rotation a hook.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/sharded.h"
#include "pec/transport.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/subprocess.h"

namespace ebl {
namespace {

using clock_t_ = std::chrono::steady_clock;

clock_t_::time_point after_ms(int ms) {
  return clock_t_::now() + std::chrono::milliseconds(ms);
}

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

ShotList dense_grid_shots(Coord side) {
  PolygonSet s = checkerboard(Box{0, 0, side, side}, 2000);
  return fracture(s, {.max_shot_size = 2000}).shots;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool worker_available() {
  return ::access(default_pec_worker_path().c_str(), X_OK) == 0;
}

// flaky_proxy is built into the same directory as pec_worker.
std::string flaky_proxy_path() {
  std::string p = default_pec_worker_path();
  const std::size_t slash = p.find_last_of('/');
  return (slash == std::string::npos ? std::string()
                                     : p.substr(0, slash + 1)) +
         "flaky_proxy";
}

bool proxy_available() {
  return ::access(flaky_proxy_path().c_str(), X_OK) == 0;
}

// A spawned daemon (pec_worker --listen) or proxy. The Subprocess
// destructor SIGKILLs on teardown, so a test that returns early cannot leak
// listeners.
ListeningChild spawn_daemon(const std::string& fault = "") {
  return spawn_listening({default_pec_worker_path(), "--listen", "127.0.0.1:0",
                          "--fault", fault},
                         after_ms(10000));
}

ListeningChild spawn_proxy(std::uint16_t target_port, const std::string& fault) {
  std::vector<std::string> argv = {flaky_proxy_path(), "--target",
                                   "127.0.0.1:" + std::to_string(target_port)};
  if (!fault.empty()) {
    argv.push_back("--fault");
    argv.push_back(fault);
  }
  return spawn_listening(argv, after_ms(10000));
}

std::string host(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

// Scoped environment override restoring the previous value (or absence) on
// destruction — same idiom as pec_fault_test, so a test's knobs cannot leak.
class EnvGuard {
 public:
  EnvGuard(std::string name, const char* value) : name_(std::move(name)) {
    const char* old = std::getenv(name_.c_str());
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

PecOptions base_options() {
  PecOptions opt;
  opt.shard_size = 20000;
  opt.max_iterations = 10;
  return opt;
}

void expect_bitwise(const PecResult& got, const PecResult& want) {
  ASSERT_EQ(got.shots.size(), want.shots.size());
  for (std::size_t i = 0; i < want.shots.size(); ++i)
    EXPECT_EQ(bits(got.shots[i].dose), bits(want.shots[i].dose)) << "shot " << i;
  EXPECT_EQ(bits(got.final_max_error), bits(want.final_max_error));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.max_error_history.size(), want.max_error_history.size());
  for (std::size_t i = 0; i < want.max_error_history.size(); ++i)
    EXPECT_EQ(bits(got.max_error_history[i]), bits(want.max_error_history[i]));
}

// ---- The tentpole: TCP transport end-to-end ----

TEST(PecNet, TcpDaemonsBitwiseIdenticalToInProcess) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);
  ASSERT_GE(local.shards, 4);

  ListeningChild a = spawn_daemon();
  ListeningChild b = spawn_daemon();
  PecOptions dopt = opt;
  dopt.worker_hosts = host(a.port) + "," + host(b.port);
  const PecResult dist = correct_proximity(shots, test_psf(), dopt);

  EXPECT_EQ(dist.workers, 2);
  EXPECT_EQ(dist.worker_restarts, 0);
  EXPECT_FALSE(dist.degraded_to_inprocess);
  expect_bitwise(dist, local);
}

TEST(PecNet, DaemonServesSuccessiveSolvesWithWarmPool) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  // One daemon, two complete driver sessions back-to-back: the second
  // connection re-handshakes and must come out bitwise-identical too (the
  // session tag differs, so the pool resets rather than poisoning shard
  // state across solves).
  ListeningChild d = spawn_daemon();
  PecOptions dopt = opt;
  dopt.worker_hosts = host(d.port);
  const PecResult first = correct_proximity(shots, test_psf(), dopt);
  const PecResult second = correct_proximity(shots, test_psf(), dopt);
  expect_bitwise(first, local);
  expect_bitwise(second, local);
}

// ---- Satellite: network chaos through flaky_proxy ----

// Each fault mode gets a fresh daemon + proxy pair; the driver talks only
// to the proxy. Every proxy fault is transient (the daemon itself stays
// healthy), so with enough restart budget the solve must recover for real —
// no degradation — and come out bitwise-identical. Backoff is paced down to
// 25 ms per attempt so dozens of injected faults recover in well under a
// second instead of sleeping out the production schedule.
class PecNetProxyFault : public ::testing::TestWithParam<const char*> {};

TEST_P(PecNetProxyFault, SolveCompletesBitwise) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  if (!proxy_available()) GTEST_SKIP() << "flaky_proxy binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  ListeningChild daemon = spawn_daemon();
  ListeningChild proxy = spawn_proxy(daemon.port, GetParam());
  EnvGuard backoff("EBL_RECONNECT_BACKOFF_MS", "25");
  PecOptions dopt = opt;
  dopt.worker_hosts = host(proxy.port);
  dopt.worker_max_restarts = 100;  // generous: every proxy fault is transient
  dopt.worker_timeout_ms = 2000.0;
  const PecResult dist = correct_proximity(shots, test_psf(), dopt);

  EXPECT_FALSE(dist.degraded_to_inprocess)
      << "transient network faults must be absorbed by reconnects";
  expect_bitwise(dist, local);
}

// Thresholds are chosen against the round shape: a 4-shard round through
// one connection costs ping + pong + 4 jobs + 4 results = 10 frames (the
// writer streams all jobs before results flow back), so a budget >= 11
// frames guarantees at least one full round of progress per connection
// while still faulting every connection soon after. A tighter budget (< a
// round's frame count) starves the connection of result frames entirely and
// the supervisor — correctly — exhausts its restarts and degrades to
// in-process, which the DeadDaemon test pins instead.
INSTANTIATE_TEST_SUITE_P(FaultModes, PecNetProxyFault,
                         ::testing::Values("drop-after=12", "delay-ms=25",
                                           "truncate-after=11",
                                           "reset-after=13"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-' || c == '=') c = '_';
                           return name;
                         });

// The CI chaos job's hook: with EBL_PROXY_FAULT_PLAN exported, run a solve
// through a proxy that takes its plan from the environment (no --fault
// flag). Locally, without the variable, this skips.
TEST(PecNet, ProxyEnvFaultPlan) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  if (!proxy_available()) GTEST_SKIP() << "flaky_proxy binary not built";
  if (!std::getenv("EBL_PROXY_FAULT_PLAN"))
    GTEST_SKIP() << "EBL_PROXY_FAULT_PLAN not set";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  ListeningChild daemon = spawn_daemon();
  ListeningChild proxy = spawn_proxy(daemon.port, /*fault=*/"");
  EnvGuard backoff("EBL_RECONNECT_BACKOFF_MS", "25");
  PecOptions dopt = opt;
  dopt.worker_hosts = host(proxy.port);
  dopt.worker_max_restarts = 100;
  dopt.worker_timeout_ms = 2000.0;
  const PecResult dist = correct_proximity(shots, test_psf(), dopt);

  expect_bitwise(dist, local);
}

// ---- Reconnect budget: a daemon that dies for good ----

TEST(PecNet, DeadDaemonExhaustsBudgetAndDegradesBitwise) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  // crash-after=2 kills the whole daemon process, so every reconnect after
  // the crash is refused — each refusal must consume restart budget (not
  // spin forever), and exhaustion must degrade to in-process, bitwise.
  ListeningChild daemon = spawn_daemon("crash-after=2");
  PecOptions dopt = opt;
  dopt.worker_hosts = host(daemon.port);
  dopt.worker_max_restarts = 3;
  dopt.worker_timeout_ms = 2000.0;
  const PecResult dist = correct_proximity(shots, test_psf(), dopt);

  EXPECT_TRUE(dist.degraded_to_inprocess);
  expect_bitwise(dist, local);
}

// ---- The wire-v10 session protocol, exercised by hand ----

// A small but real job the daemon can actually solve.
wire::ShardJob tiny_job(std::uint64_t session) {
  wire::ShardJob job;
  job.session_id = session;
  job.shard_key = 7;
  job.tolerance = 0.01;
  const Psf psf = test_psf();
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.max_iterations = 4;
  job.active = {Shot{{0, 1000, 0, 1000, 0, 1000}, 1.0},
                Shot{{1500, 2500, 0, 1000, 0, 1000}, 1.0}};
  return job;
}

// Sends a ping carrying @p token and returns the token of the pong that
// answers it; throws when the daemon answers anything else or hangs up.
std::uint64_t ping(int fd, std::uint64_t token) {
  wire::write_frame(fd, wire::MsgType::kPing, wire::encode_token(token),
                    after_ms(5000));
  wire::Frame frame;
  if (!wire::read_frame(fd, &frame, after_ms(5000)))
    throw DataError("daemon closed instead of answering a ping");
  if (frame.type != wire::MsgType::kPong) throw DataError("expected a pong");
  return wire::decode_token(frame.payload);
}

// A connection opened the way WorkerSession opens one: a ping round trip.
net::TcpSocket connect_and_ping(std::uint16_t port) {
  net::TcpSocket s = net::TcpSocket::connect("127.0.0.1", port, after_ms(5000));
  EXPECT_EQ(ping(s.fd(), 1), 1u);
  return s;
}

// Reads one whole result frame as raw bytes (header + payload + CRC).
std::string read_raw_frame(int fd) {
  std::string header(wire::kFrameHeaderSize, '\0');
  if (!read_exact(fd, header.data(), header.size(), after_ms(10000)))
    throw DataError("EOF instead of a result frame");
  const auto [type, payload_len] = wire::parse_frame_header(header);
  EXPECT_EQ(type, wire::MsgType::kShardResult);
  std::string rest(payload_len + 4, '\0');
  if (!read_exact(fd, rest.data(), rest.size(), after_ms(10000)))
    throw DataError("result frame truncated");
  return header + rest;
}

wire::ShardResult decode_raw_result(const std::string& raw) {
  return wire::decode_shard_result(std::string_view(raw).substr(
      wire::kFrameHeaderSize, raw.size() - wire::kFrameHeaderSize - 4));
}

// A connection's first frame may be a ping (as the driver sends) or a job
// (as a hand-driven client may send); the daemon answers either.
TEST(PecNet, DaemonAnswersAPingOrAJobAsTheFirstFrame) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();
  {
    net::TcpSocket s =
        net::TcpSocket::connect("127.0.0.1", daemon.port, after_ms(5000));
    EXPECT_EQ(ping(s.fd(), 0xfeedface12345678ULL), 0xfeedface12345678ULL);
    EXPECT_EQ(ping(s.fd(), 2), 2u) << "pings keep being answered";
  }
  {
    net::TcpSocket s =
        net::TcpSocket::connect("127.0.0.1", daemon.port, after_ms(5000));
    const wire::ShardJob job = tiny_job(42);
    wire::write_frame(s.fd(), wire::MsgType::kShardJob, wire::encode(job),
                      after_ms(5000));
    const wire::ShardResult got = decode_raw_result(read_raw_frame(s.fd()));
    const wire::ShardResult want = solve_shard_job(job, nullptr);
    EXPECT_EQ(got.shard_key, 7u);
    ASSERT_EQ(got.doses.size(), want.doses.size());
    for (std::size_t i = 0; i < want.doses.size(); ++i)
      EXPECT_EQ(bits(got.doses[i]), bits(want.doses[i])) << "dose " << i;
    EXPECT_EQ(ping(s.fd(), 3), 3u) << "a ping after a job";
  }
  ::kill(daemon.proc.pid(), SIGTERM);
  EXPECT_EQ(daemon.proc.wait(), 0);
}

TEST(PecNet, ProtocolMismatchRejectedWithoutKillingDaemon) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();

  // A frame whose header carries another wire version gets its session
  // ended (EOF or error on this connection)…
  {
    net::TcpSocket s =
        net::TcpSocket::connect("127.0.0.1", daemon.port, after_ms(5000));
    std::string msg =
        wire::encode_framed(wire::MsgType::kPing, wire::encode_token(9));
    msg[4] = static_cast<char>(wire::kVersion + 1);
    write_all(s.fd(), msg.data(), msg.size(), after_ms(5000));
    wire::Frame frame;
    bool closed = false;
    try {
      closed = !wire::read_frame(s.fd(), &frame, after_ms(5000));
    } catch (const DataError&) {
      closed = true;  // a reset instead of a FIN is also a rejection
    }
    EXPECT_TRUE(closed) << "a mismatched version must not be answered";
  }

  // …and the daemon survives to serve a well-versioned client.
  net::TcpSocket good = connect_and_ping(daemon.port);
}

// The driver's side of a version mismatch: a daemon that answers the
// opening ping in another wire version fails session construction with
// DataError (a configuration error, not a fault to retry).
TEST(PecNet, SessionOnAMismatchedDaemonFailsToOpen) {
  net::TcpListener listener = net::TcpListener::bind("127.0.0.1", 0);
  std::thread fake_daemon([&] {
    try {
      std::optional<net::TcpSocket> c = listener.accept(after_ms(5000));
      if (!c) return;
      wire::Frame frame;
      if (!wire::read_frame(c->fd(), &frame, after_ms(5000))) return;
      std::string pong = wire::encode_framed(wire::MsgType::kPong, frame.payload);
      pong[4] = static_cast<char>(wire::kVersion - 1);
      write_all(c->fd(), pong.data(), pong.size(), after_ms(5000));
      char byte;
      (void)read_exact(c->fd(), &byte, 1, after_ms(5000));  // until the close
    } catch (const std::exception&) {
    }
  });
  EXPECT_THROW(WorkerSession({"127.0.0.1", listener.port()}, 5000.0, 5000.0),
               DataError);
  fake_daemon.join();
}

// The Threads: line of /proc/<pid>/status, or -1 when unreadable.
int process_threads(pid_t pid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(), "r");
  if (!f) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f))
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  std::fclose(f);
  return threads;
}

// Threads a sanitizer runtime adds to a process of its own accord:
// ThreadSanitizer starts one background thread along with the first thread
// the process creates, so it is not there yet while the daemon is idle.
#if defined(__SANITIZE_THREAD__)
constexpr int kRuntimeThreads = 1;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kRuntimeThreads = 1;
#else
constexpr int kRuntimeThreads = 0;
#endif
#else
constexpr int kRuntimeThreads = 0;
#endif

// A job may ask for any thread count; the daemon runs it on at most its own
// resolve_threads(0), so an absurd request neither changes a bit nor leaves
// the daemon's pool holding thousands of threads.
TEST(PecNet, DaemonCapsJobThreadsAtItsOwn) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();
  net::TcpSocket s = connect_and_ping(daemon.port);

  // Idle after its opening ping, the daemon runs its main thread plus any
  // threads its runtime started at load; the jobs may add at most
  // resolve_threads(0) - 1 pool workers (and kRuntimeThreads) to that.
  const int idle = process_threads(daemon.proc.pid());
  ASSERT_GT(idle, 0);

  wire::ShardJob job = tiny_job(51);
  job.active = dense_grid_shots(40000);  // 200 shots: work for 200 threads
  // Transient solves: a resident evaluator would keep the first job's
  // thread count.
  job.resident_shard_budget = 0;
  std::vector<wire::ShardResult> got;
  for (const int threads : {1, 1 << 16}) {
    job.exposure.threads = threads;
    wire::write_frame(s.fd(), wire::MsgType::kShardJob, wire::encode(job),
                      after_ms(5000));
    got.push_back(decode_raw_result(read_raw_frame(s.fd())));
  }
  ASSERT_EQ(got[1].doses.size(), got[0].doses.size());
  for (std::size_t i = 0; i < got[0].doses.size(); ++i)
    EXPECT_EQ(bits(got[1].doses[i]), bits(got[0].doses[i])) << "dose " << i;
  EXPECT_EQ(bits(got[1].errors.back()), bits(got[0].errors.back()));
  EXPECT_EQ(got[1].iterations, got[0].iterations);

  const int threads = process_threads(daemon.proc.pid());
  ASSERT_GT(threads, 0);
  EXPECT_LE(threads - idle, resolve_threads(0) - 1 + kRuntimeThreads);
}

// ---- Graceful shutdown, and no orphans ----

TEST(PecNet, DaemonExitsZeroOnSigtermWhileListening) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();
  // The stop must not wait out any accept slice: a spawned worker is
  // stopped this way at the end of every distributed solve.
  const auto t0 = clock_t_::now();
  ASSERT_EQ(::kill(daemon.proc.pid(), SIGTERM), 0);
  EXPECT_EQ(daemon.proc.wait(), 0);
  EXPECT_LT(clock_t_::now() - t0, std::chrono::milliseconds(100));
}

// A connected client that never sends its first frame does not hold up a
// stop: the daemon waits for that frame stop-aware, not through its 10-s
// bound with the stop signals blocked.
TEST(PecNet, DaemonExitsZeroOnSigtermBehindASilentClient) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();
  net::TcpSocket s = net::TcpSocket::connect("127.0.0.1", daemon.port, after_ms(5000));
  // Give the daemon time to accept the connection and start waiting on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto t0 = clock_t_::now();
  ASSERT_EQ(::kill(daemon.proc.pid(), SIGTERM), 0);
  EXPECT_EQ(daemon.proc.wait(), 0);
  EXPECT_LT(clock_t_::now() - t0, std::chrono::seconds(2));
}

// A client that stalls inside a frame mid-session does not hold up a stop
// for longer than the daemon's 10-s frame bound: the rest of a begun frame
// is read against that bound, not forever with the stop signals blocked.
TEST(PecNet, DaemonExitsZeroOnSigtermBehindAStalledFrame) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  ListeningChild daemon = spawn_daemon();
  net::TcpSocket s = connect_and_ping(daemon.port);
  const std::string next =
      wire::encode_framed(wire::MsgType::kPing, wire::encode_token(2));
  write_all(s.fd(), next.data(), 5);  // part of the next frame's header
  // Give the daemon time to start reading that frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto t0 = clock_t_::now();
  ASSERT_EQ(::kill(daemon.proc.pid(), SIGTERM), 0);
  std::optional<int> status;
  while (!(status = daemon.proc.try_wait()) && clock_t_::now() - t0 < std::chrono::seconds(20))
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(status.has_value()) << "daemon still running 20 s after SIGTERM";
  EXPECT_EQ(*status, 0);
  EXPECT_LT(clock_t_::now() - t0, std::chrono::seconds(12));
}

TEST(PecNet, SpawnedDaemonDiesWithItsOwner) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  // The owner is a forked copy of this test that spawns a daemon the way
  // the driver does, reports the daemon's pid, and waits to be SIGKILLed —
  // no destructor, no drain, nothing but the kernel to stop the daemon.
  // While the test runs this process is a child subreaper, so the daemon,
  // orphaned by its owner's death, becomes this process's child and is
  // reaped here instead of being left to PID 1 as a zombie.
  struct Subreaper {
    int set = ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    ~Subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 0); }
  } subreaper;
  ASSERT_EQ(subreaper.set, 0) << std::strerror(errno);
  const std::vector<std::string> argv = {default_pec_worker_path(), "--listen",
                                         "127.0.0.1:0", "--fault", ""};
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t owner = ::fork();
  ASSERT_GE(owner, 0);
  if (owner == 0) {
    ::close(fds[0]);
    try {
      ListeningChild daemon = spawn_listening(argv, after_ms(10000));
      const pid_t pid = daemon.proc.pid();
      write_all(fds[1], &pid, sizeof pid);
      for (;;) ::pause();
    } catch (...) {
    }
    ::_exit(1);
  }
  ::close(fds[1]);
  pid_t daemon = -1;
  const bool reported = read_exact(fds[0], &daemon, sizeof daemon, after_ms(10000));
  ::close(fds[0]);
  ::kill(owner, SIGKILL);
  ::waitpid(owner, nullptr, 0);
  ASSERT_TRUE(reported) << "owner failed to spawn a daemon";

  // The owner's exit reparented the daemon before the owner could be
  // reaped, so the daemon is this process's child by now.
  const auto deadline = after_ms(5000);
  int status = 0;
  pid_t got = 0;
  while ((got = ::waitpid(daemon, &status, WNOHANG)) == 0 && clock_t_::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (got == 0) {
    ::kill(daemon, SIGKILL);
    ::waitpid(daemon, nullptr, 0);
    FAIL() << "daemon " << daemon << " outlived its owner";
  }
  ASSERT_EQ(got, daemon) << std::strerror(errno);
  EXPECT_TRUE(WIFSIGNALED(status)) << "daemon " << daemon << " exited with status "
                                   << status << " instead of dying of a signal";
}

TEST(PecNet, SessionFactoryOpensLaunchedDaemonsFirst) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  EnvGuard no_faults("EBL_FAULT_PLAN", nullptr);
  std::vector<Subprocess> launched = launch_workers(default_pec_worker_path(), 2);
  ASSERT_EQ(launched.size(), 2u);
  const pid_t first = launched[0].pid();
  const pid_t second = launched[1].pid();
  const SessionFactory factory =
      make_session_factory({}, default_pec_worker_path(), std::move(launched));
  // Slot 1's first session opens on its launched daemon; a second call on
  // the slot, as after a fault, spawns a fresh one.
  const std::string pid_tag = "(pid " + std::to_string(second) + ")";
  std::unique_ptr<WorkerSession> session = factory(1);
  EXPECT_NE(session->describe().find(pid_tag), std::string::npos) << session->describe();
  std::unique_ptr<WorkerSession> again = factory(1);
  EXPECT_EQ(again->describe().find(pid_tag), std::string::npos) << again->describe();
  for (WorkerSession* s : {session.get(), again.get()}) {
    s->end_session();
    EXPECT_EQ(s->drain(after_ms(5000)), "");
  }
  // Slot 0's daemon, never opened, is still running.
  EXPECT_EQ(::kill(first, 0), 0);
}

TEST(PecNet, LaunchedDaemonsWhoseSessionsNeverOpenedAreReaped) {
  // The owner of launched daemons is destroyed before its first sweep, as
  // on a warm-start error: the daemons are killed and reaped.
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  std::vector<pid_t> pids;
  {
    std::vector<Subprocess> launched = launch_workers(default_pec_worker_path(), 2);
    for (const Subprocess& p : launched) pids.push_back(p.pid());
    const SessionFactory factory =
        make_session_factory({}, default_pec_worker_path(), std::move(launched));
    const SessionFactory copy = factory;  // the last copy's end reaps them
  }
  ASSERT_EQ(pids.size(), 2u);
  for (const pid_t pid : pids) {
    ASSERT_GT(pid, 0);
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1) << "daemon " << pid << " outlived its owner";
    EXPECT_EQ(errno, ESRCH);
  }
}

TEST(PecNet, ProxyExitsZeroOnSigterm) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  if (!proxy_available()) GTEST_SKIP() << "flaky_proxy binary not built";
  ListeningChild daemon = spawn_daemon();
  ListeningChild proxy = spawn_proxy(daemon.port, /*fault=*/"");
  ASSERT_EQ(::kill(proxy.proc.pid(), SIGTERM), 0);
  EXPECT_EQ(proxy.proc.wait(), 0);
}

}  // namespace
}  // namespace ebl
