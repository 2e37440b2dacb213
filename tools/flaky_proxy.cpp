// flaky_proxy — a frame-aware TCP fault-injection proxy for the PEC-as-a-
// service transport (src/pec/transport.h <-> pec_worker --listen).
//
// Sits between a distributed-PEC driver and a worker daemon and misbehaves
// on purpose, at the network layer, so the client-side resilience story —
// heartbeats, reconnect with backoff, re-sending the jobs a lost connection
// did not answer — can be exercised against *real* network failure shapes
// instead of only worker-process faults (which tools/pec_worker injects
// itself):
//
//   drop-after=N      after relaying N frames on a connection, close both
//                     sides cleanly (FIN): the mid-conversation disconnect
//   delay-ms=MS       hold every relayed frame for MS milliseconds: the
//                     slow/congested network (latency, never corruption)
//   truncate-after=N  relay frame N only halfway, then close: the stream
//                     that dies mid-record (driver must see a clean
//                     DataError/TimeoutError, never a partial result)
//   reset-after=N     after N frames, SO_LINGER(0) + close: a hard RST —
//                     the peer that vanishes without a FIN
//
// Frame counters are per *connection* (both directions share one, the
// session's opening ping and pong included), so every reconnect gets a
// fresh budget of N relayed frames — faulty progress is bounded per
// connection but the solve always advances, which is exactly the property
// the chaos tests pin: completion, bitwise-identical, under every fault
// mode.
//
// Usage:
//   flaky_proxy --target HOST:PORT [--listen HOST:PORT] [--fault PLAN]
//
// The listen address defaults to 127.0.0.1:0 (ephemeral); the bound port is
// printed to stdout as "flaky_proxy: listening on N" (flushed, so a
// spawning test can parse it from a pipe). The fault plan comes from
// --fault or the EBL_PROXY_FAULT_PLAN environment variable (the flag wins)
// as semicolon-separated key=value directives, the grammar of pec_worker's
// EBL_FAULT_PLAN (tools/fault_plan.h). With no plan the proxy is a faithful
// relay.
//
// Connections are served concurrently (a driver may hold several slots
// through one proxy), one relay thread per direction. SIGTERM/SIGINT stop
// the accept loop and exit 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include <sys/socket.h>

#include "fault_plan.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/subprocess.h"

using namespace ebl;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

struct ProxyFault {
  std::uint64_t drop_after = UINT64_MAX;
  std::uint64_t truncate_after = UINT64_MAX;
  std::uint64_t reset_after = UINT64_MAX;
  std::uint64_t delay_ms = 0;

  static ProxyFault parse(const std::string& spec) {
    ProxyFault plan;
    parse_fault_plan(spec, "flaky_proxy",
                     {{"drop-after", &plan.drop_after},
                      {"truncate-after", &plan.truncate_after},
                      {"reset-after", &plan.reset_after},
                      {"delay-ms", &plan.delay_ms}});
    return plan;
  }
};

// One relayed client<->daemon connection, shared by its two pump threads.
// `frames` is the shared fault counter (both directions); kill() is
// idempotent and uses shutdown (not close) so the other pump, possibly
// blocked in poll on the same sockets, wakes instead of racing a reused fd.
struct Connection {
  net::TcpSocket client;
  net::TcpSocket server;
  std::atomic<std::uint64_t> frames{0};
  std::atomic<bool> dead{false};

  void kill(bool rst_client) {
    if (dead.exchange(true)) return;
    if (rst_client && client.valid()) {
      // SO_LINGER with zero timeout turns close/shutdown into an RST: the
      // driver sees ECONNRESET, not an orderly EOF.
      struct linger lg;
      lg.l_onoff = 1;
      lg.l_linger = 0;
      (void)::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    client.shutdown_both();
    server.shutdown_both();
  }
};

// Relays whole frames src -> dst until EOF, a fault trigger, or a stream
// error. Frame-aware on purpose: the fault modes cut at (or inside) frame
// boundaries deterministically, so a test saying "truncate the 5th frame"
// means the same bytes every run.
void pump(const std::shared_ptr<Connection>& conn, net::TcpSocket& src,
          net::TcpSocket& dst, const ProxyFault& fault) {
  try {
    for (;;) {
      std::string header(wire::kFrameHeaderSize, '\0');
      if (!read_exact(src.fd(), header.data(), header.size())) {
        // Clean EOF at a frame boundary: propagate the half-close so a
        // session winds down through the proxy exactly as it would without
        // it (driver FIN -> daemon ends session -> daemon FIN -> driver).
        dst.shutdown_write();
        return;
      }
      const auto [type, payload_len] = wire::parse_frame_header(header);
      (void)type;
      std::string rest(payload_len + 4, '\0');  // payload + CRC trailer
      if (!read_exact(src.fd(), rest.data(), rest.size()))
        throw DataError("flaky_proxy: stream ended mid-frame");

      const std::uint64_t k = conn->frames.fetch_add(1);
      if (k >= fault.drop_after) {
        std::cerr << "flaky_proxy: dropping connection after " << k
                  << " frame(s)\n";
        conn->kill(/*rst_client=*/false);
        return;
      }
      if (k >= fault.reset_after) {
        std::cerr << "flaky_proxy: resetting connection after " << k
                  << " frame(s)\n";
        conn->kill(/*rst_client=*/true);
        return;
      }
      if (fault.delay_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
      if (k >= fault.truncate_after) {
        const std::string whole = header + rest;
        write_all(dst.fd(), whole.data(), whole.size() / 2);
        std::cerr << "flaky_proxy: truncating frame " << k << "\n";
        conn->kill(/*rst_client=*/false);
        return;
      }
      write_all(dst.fd(), header.data(), header.size());
      write_all(dst.fd(), rest.data(), rest.size());
    }
  } catch (const std::exception& e) {
    if (!conn->dead.load())
      std::cerr << "flaky_proxy: relay ended: " << e.what() << "\n";
    conn->kill(/*rst_client=*/false);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_spec = "127.0.0.1:0";
  std::string target_spec;
  const char* fault_env = std::getenv("EBL_PROXY_FAULT_PLAN");
  std::string fault_spec = fault_env ? fault_env : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      listen_spec = argv[++i];
    } else if (arg == "--target" && has_value) {
      target_spec = argv[++i];
    } else if (arg == "--fault" && has_value) {
      fault_spec = argv[++i];  // the flag beats the environment
    } else {
      std::cerr << "usage: flaky_proxy --target HOST:PORT"
                   " [--listen HOST:PORT] [--fault PLAN]\n";
      return 2;
    }
  }
  if (target_spec.empty()) {
    std::cerr << "flaky_proxy: --target HOST:PORT is required\n";
    return 2;
  }

  struct sigaction sa = {};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the accept slice must wake on a signal
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  try {
    const net::HostPort listen_addr = net::parse_host_port(listen_spec);
    const net::HostPort target = net::parse_host_port(target_spec);
    const ProxyFault fault = ProxyFault::parse(fault_spec);
    net::TcpListener listener =
        net::TcpListener::bind(listen_addr.host, listen_addr.port);
    std::printf("flaky_proxy: listening on %u\n",
                static_cast<unsigned>(listener.port()));
    std::fflush(stdout);

    while (!g_stop) {
      std::optional<net::TcpSocket> client = listener.accept(
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200));
      if (!client) continue;  // slice expired; re-check the stop flag
      auto conn = std::make_shared<Connection>();
      conn->client = std::move(*client);
      try {
        conn->server = net::TcpSocket::connect(
            target.host, target.port,
            std::chrono::steady_clock::now() + std::chrono::seconds(5));
      } catch (const std::exception& e) {
        // Target down: the refused/failed connect propagates to the client
        // as an immediate close — which is what its reconnect logic expects.
        std::cerr << "flaky_proxy: cannot reach target: " << e.what() << "\n";
        continue;
      }
      // Fault plan captured by value: a detached pump must not reach into
      // main's frame after a stop signal unwinds it.
      std::thread([conn, fault] {
        pump(conn, conn->client, conn->server, fault);
      }).detach();
      std::thread([conn, fault] {
        pump(conn, conn->server, conn->client, fault);
      }).detach();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flaky_proxy: " << e.what() << "\n";
    return 1;
  }
}
