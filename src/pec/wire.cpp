#include "pec/wire.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/contracts.h"
#include "util/subprocess.h"

namespace ebl::wire {
namespace {

// All wire values are little-endian; on a big-endian host every load and
// store byte-swaps. (The tag in the frame header still catches streams from
// writers that did not follow the convention.)
template <typename T>
T to_wire_order(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out;
    auto* src = reinterpret_cast<const unsigned char*>(&v);
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
    return out;
  }
  return v;
}

struct Writer {
  std::string buf;

  void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(to_wire_order(v)); }
  void u64(std::uint64_t v) { raw(to_wire_order(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Bit-exact: the IEEE-754 pattern crosses as an integer.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  template <typename T>
  void raw(T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    buf.append(bytes, sizeof(T));
  }
};

struct Reader {
  const char* p;
  const char* end;

  explicit Reader(std::string_view s) : p(s.data()), end(s.data() + s.size()) {}

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n)
      throw DataError("wire: truncated payload");
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint32_t u32() { return to_wire_order(raw<std::uint32_t>()); }
  std::uint64_t u64() { return to_wire_order(raw<std::uint64_t>()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw DataError("wire: malformed boolean");
    return v != 0;
  }

  /// An element count about to drive a resize: bounded by the bytes that
  /// could possibly back it, so a corrupted count cannot trigger a huge
  /// allocation before the truncation check fires.
  std::size_t count(std::size_t min_elem_size) {
    const std::uint64_t n = u64();
    if (n > static_cast<std::size_t>(end - p) / min_elem_size)
      throw DataError("wire: element count exceeds payload");
    return static_cast<std::size_t>(n);
  }

  void finish() const {
    if (p != end) throw DataError("wire: trailing bytes after payload");
  }

  template <typename T>
  T raw() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

// --- field-group codecs (kept in one place so job and result stay in
// lock-step with their decoders; any layout change bumps kVersion) ---

void put_solve_fields(Writer& w, const ShardJob& job) {
  w.i32(job.max_iterations);
  w.f64(job.target);
  w.f64(job.min_dose);
  w.f64(job.max_dose);
  w.i32(job.resident_shard_budget);
  const ExposureOptions& e = job.exposure;
  w.f64(e.cutoff_sigmas);
  w.i32(e.threads);
  w.u8(e.fast_erf ? 1 : 0);
}

void get_solve_fields(Reader& r, ShardJob& job) {
  job.max_iterations = r.i32();
  job.target = r.f64();
  job.min_dose = r.f64();
  job.max_dose = r.f64();
  job.resident_shard_budget = r.i32();
  ExposureOptions& e = job.exposure;
  e.cutoff_sigmas = r.f64();
  e.threads = r.i32();
  e.fast_erf = r.boolean();
}

// A value no solve can run with is a bad frame: DataError, before it reaches
// the solver's contracts or std::clamp with inverted bounds.
void require(bool ok, const char* what) {
  if (!ok) throw DataError(std::string("wire: job ") + what);
}

// A result the driver would publish wrong is a bad frame too: a non-finite
// dose, a NaN or negative error, a negative iteration count or a non-finite
// solve time. Doses are checked for finiteness only — a measurement pass
// returns its input doses, which may lie outside the job's clamp.
void require_result(bool ok, const char* what) {
  if (!ok) throw DataError(std::string("wire: result ") + what);
}

bool positive(double v) { return std::isfinite(v) && v > 0; }
bool non_negative(double v) { return std::isfinite(v) && v >= 0; }

void validate(const ShardJob& job) {
  require(non_negative(job.tolerance), "tolerance must be finite and >= 0");
  for (const PsfTerm& t : job.psf_terms)
    require(positive(t.weight) && positive(t.sigma),
            "PSF weight and sigma must be finite and > 0");
  require(job.max_iterations >= 1, "max_iterations must be >= 1");
  require(positive(job.target), "target must be finite and > 0");
  require(positive(job.min_dose) && positive(job.max_dose),
          "dose bounds must be finite and > 0");
  require(job.min_dose <= job.max_dose, "min_dose exceeds max_dose");
  require(positive(job.exposure.cutoff_sigmas),
          "cutoff_sigmas must be finite and > 0");
  require(job.exposure.threads >= 0, "threads must be >= 0");
}

void put_shots(Writer& w, const ShotList& shots) {
  w.u64(shots.size());
  for (const Shot& s : shots) {
    w.i32(s.shape.y0);
    w.i32(s.shape.y1);
    w.i32(s.shape.xl0);
    w.i32(s.shape.xr0);
    w.i32(s.shape.xl1);
    w.i32(s.shape.xr1);
    w.f64(s.dose);
  }
}

ShotList get_shots(Reader& r) {
  constexpr std::size_t kShotBytes = 6 * 4 + 8;
  const std::size_t n = r.count(kShotBytes);
  ShotList shots(n);
  for (Shot& s : shots) {
    s.shape.y0 = r.i32();
    s.shape.y1 = r.i32();
    s.shape.xl0 = r.i32();
    s.shape.xr0 = r.i32();
    s.shape.xl1 = r.i32();
    s.shape.xr1 = r.i32();
    s.dose = r.f64();
  }
  return shots;
}

void put_perf(Writer& w, const BlurPerf& p) {
  w.f64(p.accumulate_ms);
  w.f64(p.blur_ms);
  w.i32(p.refreshes);
  w.i32(p.skipped_refreshes);
}

BlurPerf get_perf(Reader& r) {
  BlurPerf p;
  p.accumulate_ms = r.f64();
  p.blur_ms = r.f64();
  p.refreshes = r.i32();
  p.skipped_refreshes = r.i32();
  return p;
}

}  // namespace

std::string encode(const ShardJob& job) {
  Writer w;
  w.u64(job.session_id);
  w.u64(job.shard_key);
  w.u8(job.correct ? 1 : 0);
  w.u8(job.allow_optimistic ? 1 : 0);
  w.f64(job.tolerance);
  w.u32(static_cast<std::uint32_t>(job.psf_terms.size()));
  for (const PsfTerm& t : job.psf_terms) {
    w.f64(t.weight);
    w.f64(t.sigma);
  }
  put_solve_fields(w, job);
  put_shots(w, job.active);
  put_shots(w, job.ghosts);
  return std::move(w.buf);
}

ShardJob decode_shard_job(std::string_view payload) {
  Reader r(payload);
  ShardJob job;
  job.session_id = r.u64();
  job.shard_key = r.u64();
  job.correct = r.boolean();
  job.allow_optimistic = r.boolean();
  job.tolerance = r.f64();
  const std::uint32_t nterms = r.u32();
  if (nterms == 0 || nterms > 64) throw DataError("wire: bad PSF term count");
  job.psf_terms.resize(nterms);
  for (PsfTerm& t : job.psf_terms) {
    t.weight = r.f64();
    t.sigma = r.f64();
  }
  get_solve_fields(r, job);
  job.active = get_shots(r);
  job.ghosts = get_shots(r);
  r.finish();
  validate(job);
  return job;
}

std::string encode(const ShardResult& result) {
  expects(result.changed.size() == result.doses.size(),
          "wire: result changed/doses size mismatch");
  Writer w;
  w.u64(result.shard_key);
  w.u64(result.errors.size());
  for (const double e : result.errors) w.f64(e);
  w.i32(result.iterations);
  w.u8(result.updated ? 1 : 0);
  w.u8(result.optimistic ? 1 : 0);
  put_perf(w, result.perf);
  w.u64(result.doses.size());
  for (const double d : result.doses) w.f64(d);
  for (const std::uint8_t c : result.changed) w.u8(c ? 1 : 0);
  w.u32(result.pool_resident);
  w.u32(result.pool_evictions);
  w.f64(result.solve_ms);
  return std::move(w.buf);
}

ShardResult decode_shard_result(std::string_view payload) {
  Reader r(payload);
  ShardResult result;
  result.shard_key = r.u64();
  result.errors.resize(r.count(8));
  for (double& e : result.errors) e = r.f64();
  result.iterations = r.i32();
  result.updated = r.boolean();
  result.optimistic = r.boolean();
  result.perf = get_perf(r);
  const std::size_t n = r.count(8);
  result.doses.resize(n);
  for (double& d : result.doses) d = r.f64();
  result.changed.resize(n);
  for (std::uint8_t& c : result.changed) c = r.boolean() ? 1 : 0;
  result.pool_resident = r.u32();
  result.pool_evictions = r.u32();
  result.solve_ms = r.f64();
  r.finish();
  require_result(!result.errors.empty(), "errors must not be empty");
  for (const double e : result.errors)
    require_result(non_negative(e), "errors must be finite and >= 0");
  require_result(result.iterations >= 0, "iterations must be >= 0");
  for (const double d : result.doses)
    require_result(std::isfinite(d), "doses must be finite");
  require_result(std::isfinite(result.solve_ms), "solve_ms must be finite");
  return result;
}

std::string encode_token(std::uint64_t token) {
  Writer w;
  w.u64(token);
  return std::move(w.buf);
}

std::uint64_t decode_token(std::string_view payload) {
  Reader r(payload);
  const std::uint64_t token = r.u64();
  r.finish();
  return token;
}

std::string encode_frame_header(MsgType type, std::uint64_t payload_size) {
  Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(kEndianTag);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload_size);
  return std::move(w.buf);
}

std::pair<MsgType, std::uint64_t> parse_frame_header(std::string_view header) {
  expects(header.size() == kFrameHeaderSize, "wire: header must be 24 bytes");
  Reader r(header);
  if (r.u32() != kMagic) throw DataError("wire: bad magic (not an EBLW stream)");
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw DataError("wire: version mismatch (stream v" + std::to_string(version) +
                    ", reader v" + std::to_string(kVersion) + ")");
  if (r.u32() != kEndianTag)
    throw DataError("wire: endianness mismatch (stream written foreign-endian)");
  const std::uint32_t type = r.u32();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kShardJob:
    case MsgType::kShardResult:
    case MsgType::kPing:
    case MsgType::kPong:
      return {static_cast<MsgType>(type), r.u64()};
  }
  throw DataError("wire: unknown message type " + std::to_string(type));
}

std::uint32_t crc32(std::string_view data) {
  // IEEE 802.3 reflected CRC-32, table computed once. No dependency, ~1 GB/s
  // byte-at-a-time — frame payloads are far smaller than the solves they
  // describe, so the trailer cost is noise.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_framed(MsgType type, std::string_view payload) {
  std::string msg = encode_frame_header(type, payload.size());
  msg.append(payload);
  Writer trailer;
  trailer.u32(crc32(payload));
  msg.append(trailer.buf);
  return msg;
}

bool read_frame(int fd, Frame* out,
                std::chrono::steady_clock::time_point deadline) {
  char header[kFrameHeaderSize];
  if (!read_exact(fd, header, sizeof(header), deadline)) return false;  // clean EOF
  const auto [type, size] = parse_frame_header({header, sizeof(header)});
  // Sanity cap well above any real shard job (a 500k-shot shard is ~16 MB):
  // a corrupted length field must fail loudly, not drive a huge allocation.
  if (size > (std::uint64_t{1} << 32))
    throw DataError("wire: implausible payload size " + std::to_string(size));
  out->type = type;
  // Chunked payload read: allocation grows only as bytes actually arrive, so
  // a corrupted length *under* the cap (a single flipped bit can claim
  // gigabytes) costs at most one extra chunk before the short stream is
  // caught — never a multi-GiB up-front resize.
  out->payload.clear();
  constexpr std::uint64_t kChunk = std::uint64_t{4} << 20;
  for (std::uint64_t got = 0; got < size;) {
    const std::uint64_t chunk = std::min(size - got, kChunk);
    out->payload.resize(static_cast<std::size_t>(got + chunk));
    if (!read_exact(fd, out->payload.data() + got,
                    static_cast<std::size_t>(chunk), deadline))
      throw DataError("wire: stream ended inside a payload");
    got += chunk;
  }
  char trailer[4];
  if (!read_exact(fd, trailer, sizeof(trailer), deadline))
    throw DataError("wire: stream ended before the frame checksum");
  Reader r({trailer, sizeof(trailer)});
  if (r.u32() != crc32(out->payload))
    throw DataError("wire: frame checksum mismatch (corrupted payload)");
  return true;
}

void write_frame(int fd, MsgType type, std::string_view payload,
                 std::chrono::steady_clock::time_point deadline) {
  const std::string msg = encode_framed(type, payload);
  write_all(fd, msg.data(), msg.size(), deadline);
}

}  // namespace ebl::wire
