// Tests for the shard-job wire format (src/pec/wire.h) and the
// out-of-process sharded PEC pipeline built on it: exact round-trips,
// malformed-stream rejection, the worker CLI protocol, and the headline
// contract — distributed solves are bitwise-identical to in-process ones.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/sharded.h"
#include "pec/transport.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace ebl {
namespace {

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

ShotList dense_grid_shots(Coord side) {
  PolygonSet s = checkerboard(Box{0, 0, side, side}, 2000);
  return fracture(s, {.max_shot_size = 2000}).shots;
}

bool worker_available() {
  return ::access(default_pec_worker_path().c_str(), X_OK) == 0;
}

// A job exercising every field, including doubles with no short decimal
// representation and extreme-magnitude values — round-trips must be
// bit-exact, not "close".
wire::ShardJob sample_job() {
  wire::ShardJob job;
  job.session_id = 0x0123456789abcdefULL;
  job.shard_key = 0xfedcba9876543210ULL;
  job.correct = true;
  job.allow_optimistic = true;
  job.tolerance = 1.0 / 3.0;
  job.psf_terms = {{1.0 / 1.7, 50.0}, {0.7 / 1.7, 3000.0}};
  job.max_iterations = 17;
  job.target = std::nextafter(1.0, 2.0);
  job.min_dose = std::numeric_limits<double>::denorm_min();
  job.max_dose = 8.0;
  job.resident_shard_budget = 5;
  job.exposure.cutoff_sigmas = 4.25;
  job.exposure.map_margin_sigmas = 1.5;  // not on the wire
  job.exposure.threads = 2;
  job.exposure.fast_erf = false;
  job.active = {Shot{{-10, 5, -2000000000, -5, -7, 0}, 0.1},
                Shot{{0, 1000, 0, 2000000000, 10, 1999999999}, 1e300}};
  job.ghosts = {Shot{{3, 7, 1, 2, 1, 2}, 4.9e-324}};
  return job;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Wire, JobRoundTripIsBitExact) {
  const wire::ShardJob job = sample_job();
  const wire::ShardJob back = wire::decode_shard_job(wire::encode(job));

  EXPECT_EQ(back.session_id, job.session_id);
  EXPECT_EQ(back.shard_key, job.shard_key);
  EXPECT_EQ(back.correct, job.correct);
  EXPECT_EQ(back.allow_optimistic, job.allow_optimistic);
  EXPECT_EQ(bits(back.tolerance), bits(job.tolerance));
  ASSERT_EQ(back.psf_terms.size(), job.psf_terms.size());
  for (std::size_t i = 0; i < job.psf_terms.size(); ++i) {
    EXPECT_EQ(bits(back.psf_terms[i].weight), bits(job.psf_terms[i].weight));
    EXPECT_EQ(bits(back.psf_terms[i].sigma), bits(job.psf_terms[i].sigma));
  }
  EXPECT_EQ(back.max_iterations, job.max_iterations);
  EXPECT_EQ(bits(back.target), bits(job.target));
  EXPECT_EQ(bits(back.min_dose), bits(job.min_dose));
  EXPECT_EQ(bits(back.max_dose), bits(job.max_dose));
  EXPECT_EQ(back.resident_shard_budget, job.resident_shard_budget);
  EXPECT_EQ(bits(back.exposure.cutoff_sigmas), bits(job.exposure.cutoff_sigmas));
  EXPECT_EQ(back.exposure.threads, job.exposure.threads);
  EXPECT_EQ(back.exposure.fast_erf, job.exposure.fast_erf);
  // The solve forces the map margin to 0, so it stays off the wire.
  EXPECT_EQ(back.exposure.map_margin_sigmas, ExposureOptions{}.map_margin_sigmas);
  ASSERT_EQ(back.active.size(), job.active.size());
  for (std::size_t i = 0; i < job.active.size(); ++i) {
    EXPECT_EQ(back.active[i].shape, job.active[i].shape);
    EXPECT_EQ(bits(back.active[i].dose), bits(job.active[i].dose));
  }
  ASSERT_EQ(back.ghosts.size(), job.ghosts.size());
  EXPECT_EQ(back.ghosts[0].shape, job.ghosts[0].shape);
  EXPECT_EQ(bits(back.ghosts[0].dose), bits(job.ghosts[0].dose));
}

// Every solve field a worker reads is range-checked on decode: a job no
// solve can run with is a bad frame (DataError), never a contract failure
// or undefined behaviour in the solver.
TEST(Wire, DecodeRejectsOutOfRangeSolveFields) {
  ASSERT_NO_THROW(wire::decode_shard_job(wire::encode(sample_job())));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](void (*edit)(wire::ShardJob&, double), double v) {
    wire::ShardJob job = sample_job();
    edit(job, v);
    try {
      wire::decode_shard_job(wire::encode(job));
    } catch (const DataError&) {
      return true;
    }
    return false;
  };
  const struct {
    const char* field;
    void (*edit)(wire::ShardJob&, double);
    std::vector<double> bad;
  } cases[] = {
      {"target", [](wire::ShardJob& j, double v) { j.target = v; },
       {0.0, -1.0, inf, nan}},
      {"min_dose", [](wire::ShardJob& j, double v) { j.min_dose = v; },
       {0.0, -0.1, nan, 9.0 /* > max_dose */}},
      {"max_dose", [](wire::ShardJob& j, double v) { j.max_dose = v; },
       {0.0, -8.0, inf, nan}},
      {"tolerance", [](wire::ShardJob& j, double v) { j.tolerance = v; },
       {-1e-9, inf, nan}},
      {"max_iterations",
       [](wire::ShardJob& j, double v) { j.max_iterations = static_cast<int>(v); },
       {0.0, -3.0}},
      {"threads",
       [](wire::ShardJob& j, double v) { j.exposure.threads = static_cast<int>(v); },
       {-1.0}},
      {"cutoff_sigmas",
       [](wire::ShardJob& j, double v) { j.exposure.cutoff_sigmas = v; },
       {0.0, -4.0, inf, nan}},
      {"psf weight", [](wire::ShardJob& j, double v) { j.psf_terms[1].weight = v; },
       {0.0, -0.5, inf, nan}},
      {"psf sigma", [](wire::ShardJob& j, double v) { j.psf_terms[0].sigma = v; },
       {0.0, -50.0, inf, nan}},
  };
  for (const auto& c : cases)
    for (const double v : c.bad)
      EXPECT_TRUE(rejects(c.edit, v)) << c.field << " = " << v;

  // The boundaries themselves are legal: a zero tolerance, equal dose
  // bounds, and a single iteration.
  wire::ShardJob edge = sample_job();
  edge.tolerance = 0.0;
  edge.min_dose = edge.max_dose = 1.0;
  edge.max_iterations = 1;
  edge.exposure.threads = 0;
  EXPECT_NO_THROW(wire::decode_shard_job(wire::encode(edge)));
}

TEST(Wire, SessionFramesRoundTripAndValidate) {
  // Besides jobs and results, a session carries only kPing / kPong, whose
  // payload is one token.
  EXPECT_EQ(wire::decode_token(wire::encode_token(0xfeedface12345678ULL)),
            0xfeedface12345678ULL);

  // Truncation and trailing garbage are rejected like every other payload.
  const std::string token = wire::encode_token(41);
  EXPECT_THROW(wire::decode_token(token.substr(0, 5)), DataError);
  EXPECT_THROW(wire::decode_token(token + "x"), DataError);
  EXPECT_THROW(wire::decode_token(""), DataError);

  // Types 3 and 4, the v4-v9 hello / ack handshake, are unknown types now.
  for (const char type : {3, 4}) {
    std::string h = wire::encode_frame_header(wire::MsgType::kPing, token.size());
    h[12] = type;
    EXPECT_THROW(wire::parse_frame_header(h), DataError) << "type " << int(type);
  }
}

wire::ShardResult sample_result() {
  wire::ShardResult r;
  r.shard_key = 42;
  r.errors = {0.123456789012345678, 0.0625, 1e-17};
  r.iterations = 9;
  r.updated = true;
  r.optimistic = true;
  r.perf.accumulate_ms = 1.5;
  r.perf.blur_ms = 2.5;
  r.perf.refreshes = 3;
  r.perf.skipped_refreshes = 5;
  r.doses = {0.1, 2.0 / 3.0, std::nextafter(1.0, 0.0)};
  r.changed = {1, 0, 1};
  r.pool_resident = 7;
  r.pool_evictions = 11;
  r.solve_ms = 98.5;
  return r;
}

TEST(Wire, ResultRoundTripIsBitExact) {
  const wire::ShardResult r = sample_result();
  const wire::ShardResult back = wire::decode_shard_result(wire::encode(r));
  EXPECT_EQ(back.shard_key, r.shard_key);
  ASSERT_EQ(back.errors.size(), r.errors.size());
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    EXPECT_EQ(bits(back.errors[i]), bits(r.errors[i]));
  EXPECT_EQ(back.iterations, r.iterations);
  EXPECT_EQ(back.updated, r.updated);
  EXPECT_EQ(back.optimistic, r.optimistic);
  EXPECT_EQ(bits(back.perf.accumulate_ms), bits(r.perf.accumulate_ms));
  EXPECT_EQ(bits(back.perf.blur_ms), bits(r.perf.blur_ms));
  EXPECT_EQ(back.perf.refreshes, r.perf.refreshes);
  EXPECT_EQ(back.perf.skipped_refreshes, r.perf.skipped_refreshes);
  ASSERT_EQ(back.doses.size(), r.doses.size());
  for (std::size_t i = 0; i < r.doses.size(); ++i)
    EXPECT_EQ(bits(back.doses[i]), bits(r.doses[i]));
  EXPECT_EQ(back.changed, r.changed);
  EXPECT_EQ(back.pool_resident, r.pool_resident);
  EXPECT_EQ(back.pool_evictions, r.pool_evictions);
  EXPECT_EQ(bits(back.solve_ms), bits(r.solve_ms));
}

// A worker's result is checked like a job: a value the driver would publish
// as a wrong dose or a bogus statistic is a bad frame (DataError). Doses are
// checked for finiteness only, since a measurement pass returns its input
// doses unclamped.
TEST(Wire, DecodeRejectsOutOfRangeResultFields) {
  ASSERT_NO_THROW(wire::decode_shard_result(wire::encode(sample_result())));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](void (*edit)(wire::ShardResult&, double), double v) {
    wire::ShardResult r = sample_result();
    edit(r, v);
    try {
      wire::decode_shard_result(wire::encode(r));
    } catch (const DataError&) {
      return true;
    }
    return false;
  };
  const struct {
    const char* field;
    void (*edit)(wire::ShardResult&, double);
    std::vector<double> bad;
  } cases[] = {
      {"dose", [](wire::ShardResult& r, double v) { r.doses[1] = v; },
       {nan, inf, -inf}},
      {"first error", [](wire::ShardResult& r, double v) { r.errors.front() = v; },
       {nan, -1e-9, inf}},
      {"middle error", [](wire::ShardResult& r, double v) { r.errors[1] = v; },
       {nan, -0.25, inf}},
      {"last error", [](wire::ShardResult& r, double v) { r.errors.back() = v; },
       {nan, -0.5, inf}},
      {"iterations",
       [](wire::ShardResult& r, double v) { r.iterations = static_cast<int>(v); },
       {-1.0}},
      {"solve_ms", [](wire::ShardResult& r, double v) { r.solve_ms = v; },
       {nan, inf, -inf}},
  };
  for (const auto& c : cases)
    for (const double v : c.bad)
      EXPECT_TRUE(rejects(c.edit, v)) << c.field << " = " << v;

  // Every result carries at least its entry sweep's error.
  wire::ShardResult no_errors = sample_result();
  no_errors.errors.clear();
  EXPECT_THROW(wire::decode_shard_result(wire::encode(no_errors)), DataError);

  // Legal edges: doses outside any clamp (a measurement pass), a single
  // zero error, zero iterations and a zero solve time.
  wire::ShardResult edge = sample_result();
  edge.doses = {0.0, -2.0, 1e300};
  edge.errors = {0.0};
  edge.iterations = 0;
  edge.solve_ms = 0.0;
  EXPECT_NO_THROW(wire::decode_shard_result(wire::encode(edge)));
}

TEST(Wire, FrameHeaderRoundTripAndRejections) {
  const std::string h = wire::encode_frame_header(wire::MsgType::kShardResult, 99);
  ASSERT_EQ(h.size(), wire::kFrameHeaderSize);
  const auto [type, size] = wire::parse_frame_header(h);
  EXPECT_EQ(type, wire::MsgType::kShardResult);
  EXPECT_EQ(size, 99u);

  // Corrupted magic.
  std::string bad = h;
  bad[0] = 'X';
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);

  // Version skew is rejected in both directions: a reader must not guess at
  // a future layout, and a v1 stream has no CRC trailer — silently accepting
  // it would misframe everything after the first payload.
  bad = h;
  bad[4] = static_cast<char>(wire::kVersion + 1);
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 10;  // v10: results with the delta-path counters
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 9;  // v9: jobs with a sequence number, sessions opening with hello
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 8;  // v8: results with a fixed entry_error/exit_error pair
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 7;  // v7: jobs with delta_threshold, results with windowed counters
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 6;  // v6: jobs carrying the driver's whole PecOptions
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 5;  // v5: exposure options with the blur-backend byte
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 4;  // v4: jobs with the reset_all / pooled / splat_cache flags
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 3;  // v3: jobs without the replay sequence number
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 2;  // v2: BlurPerf without the windowed delta-blur counters
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);
  bad = h;
  bad[4] = 1;  // the pre-CRC v1 format
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);

  // Foreign-endian stream: the endian tag bytes arrive reversed.
  bad = h;
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);

  // Unknown message type.
  bad = h;
  bad[12] = 9;
  EXPECT_THROW(wire::parse_frame_header(bad), DataError);

  // A header must be exactly 24 bytes.
  EXPECT_THROW(wire::parse_frame_header(h.substr(0, 23)), ContractViolation);
}

TEST(Wire, TruncatedPayloadThrowsAtEveryCut) {
  const std::string payload = wire::encode(sample_job());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(wire::decode_shard_job(payload.substr(0, cut)), DataError)
        << "cut at " << cut;
  }
  // Trailing garbage is corruption too, not padding.
  EXPECT_THROW(wire::decode_shard_job(payload + '\0'), DataError);
  EXPECT_NO_THROW(wire::decode_shard_job(payload));

  const std::string rpayload = wire::encode(wire::ShardResult{});
  for (std::size_t cut = 0; cut < rpayload.size(); ++cut) {
    EXPECT_THROW(wire::decode_shard_result(rpayload.substr(0, cut)), DataError)
        << "cut at " << cut;
  }
}

TEST(Wire, MalformedFieldValuesRejected) {
  std::string payload = wire::encode(sample_job());
  // Offset 16 (after session_id, shard_key): the 'correct' flag — booleans
  // must be 0 or 1.
  ASSERT_GT(payload.size(), 16u);
  payload[16] = 2;
  EXPECT_THROW(wire::decode_shard_job(payload), DataError);
}

TEST(Wire, ReadFrameStreamsAndDetectsTruncation) {
  const std::string p1 = wire::encode(sample_job());
  wire::ShardResult res;
  res.doses = {1.0};
  res.changed = {0};
  const std::string p2 = wire::encode(res);

  // Two frames back-to-back through a pipe, then clean EOF.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  wire::write_frame(fds[1], wire::MsgType::kShardJob, p1);
  wire::write_frame(fds[1], wire::MsgType::kShardResult, p2);
  ::close(fds[1]);
  wire::Frame f;
  ASSERT_TRUE(wire::read_frame(fds[0], &f));
  EXPECT_EQ(f.type, wire::MsgType::kShardJob);
  EXPECT_EQ(f.payload, p1);
  ASSERT_TRUE(wire::read_frame(fds[0], &f));
  EXPECT_EQ(f.type, wire::MsgType::kShardResult);
  EXPECT_EQ(f.payload, p2);
  EXPECT_FALSE(wire::read_frame(fds[0], &f));  // clean EOF
  ::close(fds[0]);

  // Stream ends inside the header.
  ASSERT_EQ(::pipe(fds), 0);
  const std::string header = wire::encode_frame_header(wire::MsgType::kShardJob, p1.size());
  write_all(fds[1], header.data(), header.size() - 4);
  ::close(fds[1]);
  EXPECT_THROW(wire::read_frame(fds[0], &f), DataError);
  ::close(fds[0]);

  // Stream ends inside the payload.
  ASSERT_EQ(::pipe(fds), 0);
  write_all(fds[1], header.data(), header.size());
  write_all(fds[1], p1.data(), p1.size() / 2);
  ::close(fds[1]);
  EXPECT_THROW(wire::read_frame(fds[0], &f), DataError);
  ::close(fds[0]);
}

TEST(Wire, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value — pins the polynomial, reflection, and final
  // XOR against every other CRC-32 implementation in the world.
  EXPECT_EQ(wire::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(wire::crc32(""), 0x00000000u);
}

// The reflected IEEE CRC-32 one byte at a time, straight from the
// polynomial.
std::uint32_t bytewise_crc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Wire, Crc32MatchesABytewiseReference) {
  // Every length from 0 to 300 at every start offset 0..7 (the word loop's
  // alignment and its byte tail), then one seeded 1-MiB buffer.
  Rng rng(0xC3C32);
  std::string buf(1 << 20, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next() & 0xFFu);
  const std::string_view all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(wire::crc32(all.substr(offset, len)),
                bytewise_crc32(all.substr(offset, len)))
          << "offset " << offset << ", length " << len;
  EXPECT_EQ(wire::crc32(all), bytewise_crc32(all));
}

TEST(Wire, CorruptedPayloadByteRejectedByFrameChecksum) {
  const std::string payload = wire::encode(sample_job());
  std::string msg = wire::encode_framed(wire::MsgType::kShardJob, payload);
  ASSERT_EQ(msg.size(), wire::kFrameHeaderSize + payload.size() + 4);

  // Flip one payload byte; header and trailer stay honest. Only the CRC can
  // catch this — the header parses fine and the length is right.
  msg[wire::kFrameHeaderSize + payload.size() / 2] ^= 0x01;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_all(fds[1], msg.data(), msg.size());
  ::close(fds[1]);
  wire::Frame f;
  EXPECT_THROW(wire::read_frame(fds[0], &f), DataError);
  ::close(fds[0]);

  // A stream that ends before the trailer is truncation, not a clean frame.
  ASSERT_EQ(::pipe(fds), 0);
  write_all(fds[1], msg.data(), msg.size() - 4);
  ::close(fds[1]);
  EXPECT_THROW(wire::read_frame(fds[0], &f), DataError);
  ::close(fds[0]);
}

// Speaks the wire protocol to a real pec_worker daemon through one session:
// the opening ping, one tiny job in, one result out, a clean drain (session
// end, then a graceful stop with exit 0) — and the result matches the
// in-process solver bit for bit.
TEST(Wire, WorkerCliSolvesAJobBitExactly) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";

  wire::ShardJob job;
  job.session_id = 7;
  job.shard_key = 0;
  job.tolerance = 0.001;
  const Psf psf = Psf::single_gaussian(300.0);
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.max_iterations = 8;
  job.active = {Shot{{0, 1000, 0, 1000, 0, 1000}, 1.0},
                Shot{{0, 1000, 1200, 2200, 1200, 2200}, 1.0}};
  job.ghosts = {Shot{{1200, 2200, 0, 1000, 0, 1000}, 1.1}};

  const wire::ShardResult expected = solve_shard_job(job, nullptr);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ListeningChild daemon = spawn_listening(
      {default_pec_worker_path(), "--listen", "127.0.0.1:0", "--fault", ""},
      deadline);
  WorkerSession session({"127.0.0.1", daemon.port}, 5000.0, 5000.0,
                        std::move(daemon.proc));
  session.send_job(job, deadline);
  wire::Frame frame;
  ASSERT_TRUE(session.read_result(&frame, deadline));
  EXPECT_EQ(frame.type, wire::MsgType::kShardResult);
  const wire::ShardResult got = wire::decode_shard_result(frame.payload);
  session.end_session();
  EXPECT_EQ(session.drain(deadline), "") << "clean session end, daemon exit 0";

  ASSERT_EQ(got.doses.size(), expected.doses.size());
  for (std::size_t i = 0; i < expected.doses.size(); ++i)
    EXPECT_EQ(bits(got.doses[i]), bits(expected.doses[i])) << "dose " << i;
  ASSERT_EQ(got.errors.size(), expected.errors.size());
  for (std::size_t i = 0; i < expected.errors.size(); ++i)
    EXPECT_EQ(bits(got.errors[i]), bits(expected.errors[i])) << "sweep " << i;
  EXPECT_EQ(got.iterations, expected.iterations);
  EXPECT_EQ(got.changed, expected.changed);
}

// A daemon that receives a job twice (as after a reconnect) solves it twice
// — the second time on the evaluator the first solve left resident at its
// solved doses. Both answers must be the cold solve's.
TEST(Wire, WorkerResolvesADuplicateJobBitExactly) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";

  wire::ShardJob job;
  job.session_id = 11;
  job.shard_key = 0;
  job.tolerance = 1e-3;
  const Psf psf = test_psf();
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.max_iterations = 1;  // stops short: the doses depend on entry
  for (const Shot& s : dense_grid_shots(20000)) {
    const Box b = s.shape.bbox();
    const bool own = (b.lo.x + b.hi.x) / 2 < 10000 && (b.lo.y + b.hi.y) / 2 < 10000;
    (own ? job.active : job.ghosts).push_back(s);
  }
  ASSERT_GT(job.resident_shard_budget, 0);

  const wire::ShardResult expected = solve_shard_job(job, nullptr);
  ASSERT_TRUE(expected.updated);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ListeningChild daemon = spawn_listening(
      {default_pec_worker_path(), "--listen", "127.0.0.1:0", "--fault", ""},
      deadline);
  WorkerSession session({"127.0.0.1", daemon.port}, 5000.0, 5000.0,
                        std::move(daemon.proc));
  for (int delivery = 0; delivery < 2; ++delivery) {
    session.send_job(job, deadline);
    wire::Frame frame;
    ASSERT_TRUE(session.read_result(&frame, deadline));
    const wire::ShardResult got = wire::decode_shard_result(frame.payload);
    EXPECT_EQ(got.pool_resident, 1u);
    ASSERT_EQ(got.doses.size(), expected.doses.size());
    for (std::size_t i = 0; i < expected.doses.size(); ++i)
      EXPECT_EQ(bits(got.doses[i]), bits(expected.doses[i]))
          << "delivery " << delivery << " dose " << i;
    EXPECT_EQ(got.changed, expected.changed) << "delivery " << delivery;
    ASSERT_EQ(got.errors.size(), expected.errors.size()) << "delivery " << delivery;
    for (std::size_t i = 0; i < expected.errors.size(); ++i)
      EXPECT_EQ(bits(got.errors[i]), bits(expected.errors[i]))
          << "delivery " << delivery << " sweep " << i;
    EXPECT_EQ(got.iterations, expected.iterations) << "delivery " << delivery;
  }
  session.end_session();
  EXPECT_EQ(session.drain(deadline), "") << "clean session end, daemon exit 0";
}

// The headline acceptance criterion: the multi-process solve at the same
// shard layout produces bitwise-identical doses to the in-process engine.
TEST(DistributedPec, BitwiseIdenticalToInProcessSharded) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.shard_size = 30000;  // 2x2 shard grid, boundaries through dense geometry
  opt.max_iterations = 10;

  const PecResult local = correct_proximity(shots, psf, opt);
  ASSERT_GE(local.shards, 4);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  const PecResult dist = correct_proximity(shots, psf, dopt);

  EXPECT_EQ(dist.workers, 2);
  EXPECT_EQ(dist.shards, local.shards);
  EXPECT_EQ(dist.rounds, local.rounds);
  EXPECT_EQ(dist.iterations, local.iterations);
  ASSERT_EQ(dist.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i) {
    EXPECT_EQ(bits(dist.shots[i].dose), bits(local.shots[i].dose)) << "shot " << i;
  }
  EXPECT_EQ(bits(dist.final_max_error), bits(local.final_max_error));
  ASSERT_EQ(dist.max_error_history.size(), local.max_error_history.size());
  for (std::size_t i = 0; i < local.max_error_history.size(); ++i) {
    EXPECT_EQ(bits(dist.max_error_history[i]), bits(local.max_error_history[i]));
  }
}

// Quantization forces the full distributed measurement pass (every shard
// reset and re-measured) — that path must be bitwise too.
TEST(DistributedPec, QuantizedSolveBitwiseIncludingMeasurementPass) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.shard_size = 20000;
  opt.max_iterations = 6;
  opt.dose_classes = 16;

  const PecResult local = correct_proximity(shots, psf, opt);
  PecOptions dopt = opt;
  dopt.worker_count = 3;
  const PecResult dist = correct_proximity(shots, psf, dopt);

  ASSERT_EQ(dist.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i)
    EXPECT_EQ(bits(dist.shots[i].dose), bits(local.shots[i].dose)) << "shot " << i;
  EXPECT_EQ(bits(dist.final_max_error), bits(local.final_max_error));
}

TEST(DistributedPec, WorkerCountClampedToShardCountAndBudgetInvariant) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.shard_size = 20000;
  opt.max_iterations = 5;
  const PecResult local = correct_proximity(shots, psf, opt);

  // Far more workers than shards: clamped, still correct. A zero pool
  // budget (all-transient workers) must not change a bit either.
  for (const int budget : {64, 0}) {
    PecOptions dopt = opt;
    dopt.worker_count = 64;
    dopt.resident_shard_budget = budget;
    const PecResult dist = correct_proximity(shots, psf, dopt);
    EXPECT_LE(dist.workers, dist.shards);
    ASSERT_EQ(dist.shots.size(), local.shots.size());
    for (std::size_t i = 0; i < local.shots.size(); ++i)
      EXPECT_EQ(bits(dist.shots[i].dose), bits(local.shots[i].dose))
          << "budget " << budget << " shot " << i;
  }
}

TEST(DistributedPec, WorkersDefaultTheShardSize) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.max_iterations = 4;
  opt.worker_count = 2;
  ASSERT_EQ(opt.shard_size, 0);
  // Workers must be honored with shard_size left at 0 — the solve runs at
  // default_shard_size on them, not in-process.
  const PecResult dist = correct_proximity(shots, psf, opt);
  EXPECT_GE(dist.shards, 1);
  EXPECT_GE(dist.workers, 1);

  PecOptions lopt = opt;
  lopt.worker_count = 0;
  lopt.shard_size = default_shard_size(psf);
  const PecResult local = correct_proximity(shots, psf, lopt);
  ASSERT_EQ(dist.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i)
    EXPECT_EQ(bits(dist.shots[i].dose), bits(local.shots[i].dose)) << "shot " << i;
}

TEST(DistributedPec, MissingWorkerBinaryFailsLoudly) {
  const ShotList shots = dense_grid_shots(20000);
  PecOptions opt;
  opt.shard_size = 10000;
  opt.worker_count = 2;
  opt.worker_path = "/nonexistent/pec_worker";
  EXPECT_THROW(correct_proximity(shots, test_psf(), opt), DataError);
}

}  // namespace
}  // namespace ebl
