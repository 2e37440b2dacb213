// Deterministic fuzz of the wire-format reader (src/pec/wire.h): randomized
// truncations, bit flips, and garbage prefixes fed to read_frame over both
// fd kinds it reads — a pipe and a loopback TCP socket — asserting
// the failure contract: every mutation ends in a clean DataError (or
// TimeoutError, when a corrupted length field promises bytes that never
// arrive), never a crash, a hang, or a silently-accepted frame. Seeded
// mt19937, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pec/correction.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/subprocess.h"

namespace ebl {
namespace {

using clock_t_ = std::chrono::steady_clock;

// A realistic framed job message (header + payload + CRC) to mutate.
std::string sample_framed_job() {
  wire::ShardJob job;
  job.session_id = 11;
  job.shard_key = 3;
  job.tolerance = 0.01;
  job.psf_terms = {{0.6, 50.0}, {0.4, 2500.0}};
  job.max_iterations = 6;
  job.active = {Shot{{0, 1000, 0, 1000, 0, 1000}, 1.0},
                Shot{{0, 1000, 1500, 2500, 1500, 2500}, 0.5}};
  job.ghosts = {Shot{{2000, 3000, 0, 1000, 0, 1000}, 1.25}};
  return wire::encode_framed(wire::MsgType::kShardJob, wire::encode(job));
}

std::string sample_framed_result() {
  wire::ShardResult res;
  res.shard_key = 3;
  res.errors = {0.25, 0.0025};
  res.iterations = 4;
  res.updated = true;
  res.doses = {1.25, 0.75};
  res.changed = {1, 1};
  return wire::encode_framed(wire::MsgType::kShardResult, wire::encode(res));
}

// One mutated byte stream. `clean_eof_ok` reports whether read_frame may
// legitimately return false (clean EOF) instead of throwing — only when the
// stream ends exactly at a frame boundary (empty, or after whole frames).
struct Mutation {
  std::string bytes;
  bool clean_eof_ok = false;
};

Mutation mutate(const std::string& msg, std::mt19937& rng) {
  Mutation m;
  switch (rng() % 3) {
    case 0: {  // truncate at a random cut
      const std::size_t cut = rng() % msg.size();  // cut < size: never whole
      m.bytes = msg.substr(0, cut);
      m.clean_eof_ok = cut == 0;
      break;
    }
    case 1: {  // flip one random bit anywhere in the frame
      m.bytes = msg;
      const std::size_t at = rng() % msg.size();
      m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1u << (rng() % 8)));
      break;
    }
    default: {  // garbage prefix: the stream does not start at a frame
      const std::size_t glen = 1 + rng() % 16;
      for (std::size_t i = 0; i < glen; ++i)
        m.bytes.push_back(static_cast<char>(rng() & 0xFF));
      m.bytes += msg;
      break;
    }
  }
  return m;
}

// Outcome of one read attempt. kFrame can legitimately happen: a bit flip
// may land in a payload byte AND collide CRC-32 only with probability
// ~2^-32, but a flip in the *truncated tail* case never reaches the reader,
// and a garbage prefix can theoretically re-synthesize a valid header only
// with a correct magic — practically never. We still classify instead of
// asserting "throws", so the invariant tested is the real one: no hang, no
// crash, no silent acceptance of corrupted bytes.
enum class Outcome { kError, kCleanEof, kFrame };

Outcome feed(int write_fd, int read_fd, const std::string& bytes,
             bool close_after) {
  std::thread writer([&] {
    try {
      write_all(write_fd, bytes.data(), bytes.size());
    } catch (const DataError&) {
      // Reader may bail on a bad header while we still push payload bytes:
      // EPIPE/ECONNRESET here is expected, not a test failure.
    }
    if (close_after) ::close(write_fd);
  });
  Outcome out;
  try {
    wire::Frame frame;
    // The deadline bounds the "length field now promises more bytes than
    // exist" mutations; everything else fails from the bytes alone.
    out = wire::read_frame(read_fd, &frame,
                           clock_t_::now() + std::chrono::milliseconds(500))
              ? Outcome::kFrame
              : Outcome::kCleanEof;
  } catch (const DataError&) {  // TimeoutError is a DataError subtype
    out = Outcome::kError;
  }
  writer.join();
  return out;
}

void run_fuzz_over_pipe(const std::string& base, std::mt19937& rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const Mutation m = mutate(base, rng);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const Outcome out = feed(fds[1], fds[0], m.bytes, /*close_after=*/true);
    if (out == Outcome::kCleanEof)
      EXPECT_TRUE(m.clean_eof_ok) << "iteration " << i
                                  << ": mid-frame end read as clean EOF";
    // kError is always acceptable; kFrame means the mutation was byte-level
    // benign (astronomically rare — see Outcome) and is tolerated.
    ::close(fds[0]);
  }
}

void run_fuzz_over_socket(const std::string& base, std::mt19937& rng,
                          int rounds) {
  net::TcpListener listener = net::TcpListener::bind("127.0.0.1", 0);
  for (int i = 0; i < rounds; ++i) {
    const Mutation m = mutate(base, rng);
    net::TcpSocket client = net::TcpSocket::connect(
        "127.0.0.1", listener.port(), clock_t_::now() + std::chrono::seconds(2));
    std::optional<net::TcpSocket> server =
        listener.accept(clock_t_::now() + std::chrono::seconds(2));
    ASSERT_TRUE(server.has_value());
    // Write from the client, read on the server side; half-close after the
    // bytes so truncations end in EOF, exactly like the pipe.
    std::thread writer([&] {
      try {
        write_all(client.fd(), m.bytes.data(), m.bytes.size());
      } catch (const DataError&) {
      }
      client.shutdown_write();
    });
    Outcome out;
    try {
      wire::Frame frame;
      out = wire::read_frame(server->fd(), &frame,
                             clock_t_::now() + std::chrono::milliseconds(500))
                ? Outcome::kFrame
                : Outcome::kCleanEof;
    } catch (const DataError&) {
      out = Outcome::kError;
    }
    writer.join();
    if (out == Outcome::kCleanEof)
      EXPECT_TRUE(m.clean_eof_ok) << "iteration " << i
                                  << ": mid-frame end read as clean EOF";
  }
}

TEST(WireFuzz, MutatedJobFramesOverPipe) {
  std::mt19937 rng(0xEB1F00D);
  run_fuzz_over_pipe(sample_framed_job(), rng, 150);
}

TEST(WireFuzz, MutatedResultFramesOverPipe) {
  std::mt19937 rng(0x5EED5EED);
  run_fuzz_over_pipe(sample_framed_result(), rng, 150);
}

TEST(WireFuzz, MutatedJobFramesOverTcpSocket) {
  std::mt19937 rng(0xC0FFEE);
  run_fuzz_over_socket(sample_framed_job(), rng, 60);
}

TEST(WireFuzz, MutatedSessionFramesOverTcpSocket) {
  // The ping every session opens with.
  const std::string framed = wire::encode_framed(
      wire::MsgType::kPing, wire::encode_token(0x0123456789abcdefULL));
  std::mt19937 rng(0xBADF00D);
  run_fuzz_over_socket(framed, rng, 60);
}

// Pure-garbage streams (no embedded valid frame at all) must always throw:
// there is nothing to resynchronize to.
TEST(WireFuzz, PureGarbageAlwaysRejected) {
  std::mt19937 rng(42);
  for (int i = 0; i < 100; ++i) {
    const std::size_t len = 1 + rng() % 64;
    std::string garbage;
    for (std::size_t k = 0; k < len; ++k)
      garbage.push_back(static_cast<char>(rng() & 0xFF));
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const Outcome out = feed(fds[1], fds[0], garbage, /*close_after=*/true);
    EXPECT_EQ(out, Outcome::kError) << "iteration " << i;
    ::close(fds[0]);
  }
}

// A back-to-back stream of valid frames interrupted mid-way: the frames
// before the cut parse, the cut itself is a loud error — the reader never
// swallows a partial frame as a boundary.
TEST(WireFuzz, TruncationAfterWholeFramesIsCleanThenLoud) {
  const std::string one = sample_framed_result();
  std::mt19937 rng(7);
  for (int i = 0; i < 20; ++i) {
    const std::size_t cut = 1 + rng() % (one.size() - 1);  // strictly inside
    std::string stream = one + one.substr(0, cut);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::thread writer([&] {
      write_all(fds[1], stream.data(), stream.size());
      ::close(fds[1]);
    });
    wire::Frame frame;
    EXPECT_TRUE(wire::read_frame(fds[0], &frame));  // the whole frame
    EXPECT_EQ(frame.type, wire::MsgType::kShardResult);
    EXPECT_THROW(wire::read_frame(fds[0], &frame), DataError);  // the stub
    writer.join();
    ::close(fds[0]);
  }
}

}  // namespace
}  // namespace ebl
