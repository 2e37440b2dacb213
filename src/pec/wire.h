// Shard-job wire format: the serialized protocol between the sharded PEC
// driver and out-of-process shard workers (tools/pec_worker.cpp).
//
// A shard solve is already a self-contained job — the shard's own shots, the
// halo ghosts at their frozen published doses, the PSF, and the solve
// options (src/pec/sharded.h). This header pins that job (and its result)
// to a versioned binary encoding so the solve can run in another process,
// or on another machine, and come back *bitwise identical* to the
// in-process run:
//
//   - every double crosses the wire as its raw IEEE-754 bit pattern
//     (std::bit_cast to uint64), so dose and PSF values round-trip exactly —
//     no text formatting, no rounding;
//   - all multi-byte values are little-endian on the wire, with an explicit
//     endianness tag in the frame header so a foreign-endian (or corrupted)
//     stream is rejected instead of silently misread; big-endian hosts
//     byte-swap on the way in and out;
//   - every frame carries a magic, a format version, and the payload length,
//     so version skew and truncated streams fail loudly (DataError) rather
//     than producing garbage doses;
//   - every frame ends in a CRC-32 trailer over the payload, so a corrupted
//     byte anywhere in transit (a flaky pipe, a bad host, a buggy relay) is
//     a DataError at the frame boundary instead of silently wrong doses.
//
// Framing: [magic u32]["EBLW" version u32][endian tag u32][type u32]
// [payload length u64][payload][payload CRC-32 u32]. Encoders produce
// payloads; read_frame / write_frame add and verify the header and trailer.
// A stream is a plain concatenation of frames — a connection's worth of
// frames is a session.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "pec/correction.h"

namespace ebl::wire {

inline constexpr std::uint32_t kMagic = 0x574C4245;  // "EBLW" little-endian
/// v2: CRC-32 payload trailer appended to every frame. Readers reject skew
/// in both directions — a v1 stream has no trailer and a v1 reader would
/// misparse a v2 stream, so neither may be silently accepted.
/// v3: BlurPerf gained the windowed delta-blur counters (windowed_blurs,
/// windowed_blur_ms), so shard results grew by 12 payload bytes. Same skew
/// rule: a v2 reader would misparse a v3 result and vice versa, so the
/// header version must match exactly.
/// v4: PEC-as-a-service. ShardJob gained a per-job sequence number for
/// reconnect replay, PecOptions gained worker_hosts, and the session frames
/// arrived: a hello / ack handshake (types 3 and 4, per-connection
/// re-handshake of a TCP worker daemon) and kPing / kPong (client-side
/// liveness probes). Exact-match skew rule as ever.
/// v5: ShardJob lost its reset_all and pooled flags (resident re-entry
/// always resets every dose exactly) and ExposureOptions lost splat_cache
/// (always on), so a job is three bytes shorter. Exact-match skew rule.
/// v6: ExposureOptions lost its blur-backend byte (the evaluator has one
/// blur), so a job is one byte shorter. Exact-match skew rule.
/// v7: a job no longer carries the driver's PecOptions, only the 9 option
/// values a shard solve reads (see ShardJob), and decode_shard_job rejects
/// out-of-range solve fields. Exact-match skew rule.
/// v8: ExposureOptions lost delta_threshold (now the constant
/// kDeltaThreshold) and BlurPerf's windowed-blur counters left the result,
/// so a job is 8 bytes and a result 12 bytes shorter; decode_shard_result
/// rejects non-finite doses and out-of-range errors, iteration counts and
/// solve times. Exact-match skew rule.
/// v9: ShardResult's entry_error/exit_error became errors, every sweep's max
/// error in order, so a one-shard solve can report its per-iteration
/// history; decode_shard_result rejects an empty list and non-finite or
/// negative entries. Exact-match skew rule.
/// v10: ShardJob lost its sequence number and the daemon its replay cache
/// (a re-sent job is re-solved, to the same bits); the hello / ack
/// handshake is gone, and a session opens with a kPing / kPong round trip
/// (the frame header already pins the version, each job its session tag).
/// A job is 8 bytes shorter and message types 3 and 4 are unknown.
/// Exact-match skew rule.
inline constexpr std::uint32_t kVersion = 10;
/// Written as-is by every encoder; a reader that sees its bytes reversed is
/// looking at a stream produced by a writer that did not follow the
/// little-endian convention (or at garbage) and must reject it.
inline constexpr std::uint32_t kEndianTag = 0x01020304;

enum class MsgType : std::uint32_t {
  kShardJob = 1,
  kShardResult = 2,
  // 3 and 4 were the v4-v9 hello / ack handshake; a v10 reader rejects them.
  /// Liveness probe, and the opener of every session: the daemon echoes the
  /// ping's token back as a kPong. Strictly request/response on an
  /// otherwise quiet stream, so a pong can never interleave with a result
  /// frame.
  kPing = 5,
  kPong = 6,
};

/// One shard solve, fully specified. The driver builds one per shard per
/// halo-exchange round, and the same job runs through solve_shard_job
/// wherever it lands (see src/pec/sharded.cpp) — the driver's own threads
/// or a worker — so every path executes the identical arithmetic.
struct ShardJob {
  /// Driver-session tag: a worker drops its resident evaluator pool when it
  /// changes, so one long-lived worker can serve successive solves (whose
  /// shard keys may collide but whose geometry differs).
  std::uint64_t session_id = 0;
  /// Packed shard grid key (util/gridkeys.h) — the shard's stable identity,
  /// and the worker's resident-pool key.
  std::uint64_t shard_key = 0;

  bool correct = true;           ///< false: measurement-only pass
  bool allow_optimistic = false; ///< may publish a final unverified update

  /// Per-shard stopping tolerance (the driver applies its cross-shard slack
  /// before filling this in).
  double tolerance = 0.0;

  /// The PSF's terms, verbatim (reconstructed via Psf::from_terms — no
  /// renormalization, so the worker's PSF is bit-identical).
  std::vector<PsfTerm> psf_terms;

  /// The solve knobs, as the driver's PecOptions has them: the Jacobi
  /// iteration cap, the target exposure and the dose clamp. A worker sizes
  /// its own evaluator pool by resident_shard_budget, and runs the job on at
  /// most its own thread count whatever exposure.threads asks.
  /// exposure.map_margin_sigmas does not cross the wire: the solve forces it
  /// to 0.
  std::int32_t max_iterations = PecOptions{}.max_iterations;
  double target = PecOptions{}.target;
  double min_dose = PecOptions{}.min_dose;
  double max_dose = PecOptions{}.max_dose;
  std::int32_t resident_shard_budget = PecOptions{}.resident_shard_budget;
  ExposureOptions exposure;

  ShotList active;  ///< the shard's own shots at their published doses
  ShotList ghosts;  ///< halo ghosts at frozen doses, in driver (CSR) order
};

/// The worker's answer: the solved active doses plus the bookkeeping the
/// driver folds into PecResult. Doses are the evaluator's *applied* doses
/// (or the final unverified update after an optimistic exit) — exactly what
/// the in-process path publishes.
struct ShardResult {
  std::uint64_t shard_key = 0;

  /// Max error of every sweep, in order: front() at entry (fresh ghost
  /// doses), back() at the last evaluation. Never empty.
  std::vector<double> errors;
  std::int32_t iterations = 0;
  bool updated = false;     ///< any dose actually changed
  bool optimistic = false;  ///< exited after an update it did not re-verify

  BlurPerf perf;  ///< this run's evaluator refresh accounting

  std::vector<double> doses;          ///< per active shot, job order
  std::vector<std::uint8_t> changed;  ///< per active shot: dose moved

  /// Worker pool snapshot (occupancy after this job / lifetime evictions) —
  /// the driver sums the per-worker values into PecResult.
  std::uint32_t pool_resident = 0;
  std::uint32_t pool_evictions = 0;
  double solve_ms = 0.0;  ///< worker-side wall clock of this job
};

/// Encode to a payload (no frame header). Doubles are bit-exact.
std::string encode(const ShardJob& job);
std::string encode(const ShardResult& result);
/// The kPing / kPong payload: an opaque token the pong must echo.
std::string encode_token(std::uint64_t token);

/// Decode a payload. Throws DataError on truncation, trailing bytes, or
/// out-of-range enum/count values, and for a job also on any solve field no
/// solve can run with: a non-finite or non-positive target, dose bound, PSF
/// weight or sigma, or cutoff_sigmas; min_dose > max_dose; a non-finite or
/// negative tolerance; max_iterations < 1; negative threads. A result is
/// rejected for a non-finite dose, a non-finite or negative entry or exit
/// error, a negative iteration count, or a non-finite solve_ms.
ShardJob decode_shard_job(std::string_view payload);
ShardResult decode_shard_result(std::string_view payload);
std::uint64_t decode_token(std::string_view payload);

/// A framed message as read off a stream.
struct Frame {
  MsgType type = MsgType::kShardJob;
  std::string payload;
};

/// The 24-byte frame header for @p payload_size bytes of @p type.
std::string encode_frame_header(MsgType type, std::uint64_t payload_size);

/// Parses a frame header, validating magic, version, and endian tag.
/// @p header must be exactly kFrameHeaderSize bytes. Returns (type,
/// payload size). Throws DataError on any mismatch.
inline constexpr std::size_t kFrameHeaderSize = 24;
std::pair<MsgType, std::uint64_t> parse_frame_header(std::string_view header);

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of @p data — the per-frame
/// payload checksum. Exposed so tests and the fault-injection harness can
/// build (or deliberately break) frames by hand.
std::uint32_t crc32(std::string_view data);

/// One fully framed message: header + payload + CRC-32 trailer, as the
/// bytes that write_frame puts on the stream.
std::string encode_framed(MsgType type, std::string_view payload);

/// Reads one frame from @p fd. Returns false on clean EOF at a frame
/// boundary (no bytes read); throws DataError on a truncated header,
/// payload, or trailer, a header that fails validation, or a payload whose
/// CRC-32 does not match the trailer, and TimeoutError (util/subprocess.h)
/// once @p deadline passes before the full frame has arrived — the worker
/// supervisor's hung-worker detection reads results through this. The
/// default deadline waits forever.
bool read_frame(int fd, Frame* out,
                std::chrono::steady_clock::time_point deadline =
                    std::chrono::steady_clock::time_point::max());

/// Writes one framed message to @p fd (header + payload + CRC trailer,
/// single logical write). Throws DataError on short writes / broken pipes,
/// and TimeoutError once @p deadline passes before the peer accepts the
/// whole frame — the send-side half of hung-peer detection (a daemon that
/// stops draining its receive window must not block the supervisor's
/// writer forever). The default deadline waits forever.
void write_frame(int fd, MsgType type, std::string_view payload,
                 std::chrono::steady_clock::time_point deadline =
                     std::chrono::steady_clock::time_point::max());

}  // namespace ebl::wire
