#include "layout/oasis.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "layout/stream.h"
#include "util/contracts.h"

namespace ebl {
namespace {

constexpr char kMagic[] = "%SEMI-OASIS\r\n";
constexpr std::size_t kMagicLen = 13;

// Record ids (SEMI P39 table 6). Odd/even pairs differ in how names are
// numbered (implicit counter vs. explicit reference number) or, for CELL,
// whether the cell is addressed by refnum (13) or name (14).
enum RecordId : std::uint8_t {
  kPad = 0,
  kStart = 1,
  kEnd = 2,
  kCellnameImplicit = 3,
  kCellnameExplicit = 4,
  kTextstringImplicit = 5,
  kTextstringExplicit = 6,
  kPropnameImplicit = 7,
  kPropnameExplicit = 8,
  kPropstringImplicit = 9,
  kPropstringExplicit = 10,
  kLayernameGeometry = 11,
  kLayernameText = 12,
  kCellRefnum = 13,
  kCellName = 14,
  kXyAbsolute = 15,
  kXyRelative = 16,
  kPlacement = 17,
  kPlacementTransform = 18,
  kText = 19,
  kRectangle = 20,
  kPolygon = 21,
  kPath = 22,
  kTrapezoidAB = 23,
  kTrapezoidA = 24,
  kTrapezoidB = 25,
  kCtrapezoid = 26,
  kCircle = 27,
  kProperty = 28,
  kPropertyRepeat = 29,
  kXnameImplicit = 30,
  kXnameExplicit = 31,
  kXelement = 32,
  kXgeometry = 33,
  kCblock = 34,
};

const char* record_name(unsigned id) {
  switch (id) {
    case kCtrapezoid: return "CTRAPEZOID";
    case kCircle: return "CIRCLE";
    case kXnameImplicit:
    case kXnameExplicit: return "XNAME";
    case kXelement: return "XELEMENT";
    case kXgeometry: return "XGEOMETRY";
    case kCblock: return "CBLOCK";
    default: return "record";
  }
}

/// Sanity bound against hostile length operands (strings, repetition dims).
constexpr std::uint64_t kMaxStringLen = 64ull << 20;
constexpr std::uint64_t kMaxRepetitionCount = 1ull << 24;

}  // namespace

namespace oasis_detail {

Cursor::Cursor(std::istream& is, std::uint64_t offset) : is_(is), buf_off_(offset) {}

void Cursor::fail_at(std::uint64_t offset, const std::string& what) {
  throw DataError("OASIS: " + what + " at byte " + std::to_string(offset));
}

bool Cursor::refill() {
  buf_off_ = offset();
  is_.read(buf_, static_cast<std::streamsize>(kBlock));
  pos_ = buf_;
  end_ = buf_ + is_.gcount();
  return pos_ != end_;
}

void Cursor::seek(std::uint64_t offset) {
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(offset));
  if (!is_) throw DataError("OASIS: seek to byte " + std::to_string(offset) + " failed");
  buf_off_ = offset;
  pos_ = end_ = buf_;
}

std::uint64_t Cursor::read_uint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = byte();
    const std::uint64_t bits = b & 0x7Fu;
    if (shift == 63 && bits > 1) fail("unsigned integer overflows 64 bits");
    if (shift > 63) fail("unsigned integer overflows 64 bits");
    v |= bits << shift;
    if (!(b & 0x80u)) return v;
    shift += 7;
  }
}

std::int64_t Cursor::read_sint() {
  const std::uint64_t u = read_uint();
  const std::uint64_t mag = u >> 1;
  if (u & 1) {
    if (mag > 0x8000000000000000ull - 1) fail("signed integer overflows 64 bits");
    return -static_cast<std::int64_t>(mag);
  }
  return static_cast<std::int64_t>(mag);
}

double Cursor::read_real() {
  const std::uint64_t type = read_uint();
  double v = 0.0;
  switch (type) {
    case 0: v = static_cast<double>(read_uint()); break;
    case 1: v = -static_cast<double>(read_uint()); break;
    case 2:
    case 3: {
      const std::uint64_t d = read_uint();
      if (d == 0) fail("real with zero denominator");
      v = 1.0 / static_cast<double>(d);
      if (type == 3) v = -v;
      break;
    }
    case 4:
    case 5: {
      const std::uint64_t a = read_uint();
      const std::uint64_t b = read_uint();
      if (b == 0) fail("real with zero denominator");
      v = static_cast<double>(a) / static_cast<double>(b);
      if (type == 5) v = -v;
      break;
    }
    case 6: {
      std::uint8_t raw[4];
      for (auto& r : raw) r = byte();
      float f = 0;
      static_assert(sizeof(f) == 4);
      std::memcpy(&f, raw, 4);  // little-endian per spec; matches host
      v = f;
      break;
    }
    case 7: {
      std::uint8_t raw[8];
      for (auto& r : raw) r = byte();
      static_assert(sizeof(v) == 8);
      std::memcpy(&v, raw, 8);
      break;
    }
    default:
      fail("invalid real type " + std::to_string(type));
  }
  if (!std::isfinite(v)) fail("non-finite real value");
  return v;
}

std::string Cursor::read_string(bool printable) {
  const std::uint64_t len = read_uint();
  if (len > kMaxStringLen) fail("string length " + std::to_string(len) + " exceeds sanity bound");
  if (printable && len == 0) fail("empty n-string");
  const std::uint64_t start = offset();
  std::string s;
  while (s.size() < len) {
    if (pos_ == end_ && !refill()) fail_at(start, "truncated string");
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(len - s.size(), static_cast<std::uint64_t>(end_ - pos_)));
    s.append(pos_, take);
    pos_ += take;
  }
  if (printable) {
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (u < 0x21 || u > 0x7E) fail("non-printable character in n-string");
    }
  }
  return s;
}

Coord Cursor::read_coord() {
  const std::int64_t v = read_sint();
  if (v < std::numeric_limits<Coord>::min() || v > std::numeric_limits<Coord>::max())
    fail("coordinate overflows the 32-bit database grid");
  return static_cast<Coord>(v);
}

Coord Cursor::read_ucoord() {
  const std::uint64_t v = read_uint();
  if (v > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
    fail("coordinate overflows the 32-bit database grid");
  return static_cast<Coord>(v);
}

void write_uint(std::ostream& os, std::uint64_t v) {
  do {
    std::uint8_t b = v & 0x7Fu;
    v >>= 7;
    if (v) b |= 0x80u;
    os.put(static_cast<char>(b));
  } while (v);
}

void write_sint(std::ostream& os, std::int64_t v) {
  const bool neg = v < 0;
  const auto mag = neg ? static_cast<std::uint64_t>(-(v + 1)) + 1 : static_cast<std::uint64_t>(v);
  expects(mag < (1ull << 62), "OASIS sint magnitude out of range");
  write_uint(os, (mag << 1) | (neg ? 1u : 0u));
}

void write_real(std::ostream& os, double v) {
  if (std::floor(v) == v && std::abs(v) < 9.0e18) {
    // Exact whole number: type 0 (positive) / 1 (negative).
    write_uint(os, v < 0 ? 1 : 0);
    write_uint(os, static_cast<std::uint64_t>(std::abs(v)));
    return;
  }
  write_uint(os, 7);  // IEEE float64, little-endian: exact for any double
  std::uint8_t raw[8];
  std::memcpy(raw, &v, 8);
  for (const std::uint8_t b : raw) os.put(static_cast<char>(b));
}

void write_string(std::ostream& os, const std::string& s) {
  write_uint(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::size_t uint_length(std::uint64_t v) {
  std::size_t n = 0;
  do {
    ++n;
    v >>= 7;
  } while (v);
  return n;
}

}  // namespace oasis_detail

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

using oasis_detail::write_sint;
using oasis_detail::write_string;
using oasis_detail::write_uint;

bool is_n_string(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x21 || u > 0x7E) return false;
  }
  return true;
}

std::uint64_t layer_operand(std::int16_t v, const char* what) {
  if (v < 0) throw DataError(std::string("OASIS: negative ") + what + " not representable");
  return static_cast<std::uint64_t>(v);
}

/// Writes a g-delta in form 2 (explicit x with sign, then y as sint) — one
/// form for every vector keeps the encoder trivially correct.
void write_gdelta(std::ostream& os, Point d) {
  const bool neg = d.x < 0;
  const auto mag = static_cast<std::uint64_t>(neg ? -Coord64(d.x) : Coord64(d.x));
  write_uint(os, (mag << 2) | (neg ? 2u : 0u) | 1u);
  write_sint(os, d.y);
}

bool horizontal(Point d) { return d.y == 0; }

/// True when the contour is closed Manhattan with strictly alternating
/// horizontal/vertical edges — encodable as a type 0/1 point list.
bool manhattan_alternating(std::span<const Point> pts) {
  const std::size_t n = pts.size();
  if (n < 4 || n % 2 != 0) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point a = pts[i];
    const Point b = pts[(i + 1) % n];
    const Point d = b - a;
    if ((d.x == 0) == (d.y == 0)) return false;  // zero-length or diagonal
    const Point c = pts[(i + 2) % n];
    const Point e = c - b;
    if (horizontal(d) == horizontal(e)) return false;
  }
  return true;
}

/// Point list for a POLYGON record: vertex 0 becomes the record's (x,y); the
/// remaining vertices are deltas. Type 0/1 when Manhattan-alternating (the
/// last two edges are implicit), type 4 g-deltas otherwise (the closing edge
/// is implicit).
void write_polygon_point_list(std::ostream& os, std::span<const Point> pts) {
  const std::size_t n = pts.size();
  if (manhattan_alternating(pts)) {
    const Point first = pts[1] - pts[0];
    write_uint(os, horizontal(first) ? 0 : 1);
    write_uint(os, n - 2);
    for (std::size_t i = 0; i + 2 < n; ++i) {
      const Point d = pts[i + 1] - pts[i];
      write_sint(os, horizontal(d) ? d.x : d.y);
    }
    return;
  }
  write_uint(os, 4);
  write_uint(os, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) write_gdelta(os, pts[i + 1] - pts[i]);
}

/// Per-cell writer modal state; mirrors the reader so layer/datatype/width/
/// height repeats compress away (and the modal machinery gets exercised on
/// every round-trip).
struct WriterModal {
  std::optional<std::int16_t> layer;
  std::optional<std::int16_t> datatype;
  std::optional<Coord> width;
  std::optional<Coord> height;
};

class OasisFileWriter {
 public:
  explicit OasisFileWriter(std::ostream& os) : os_(os) {}

  void begin(double dbu_in_microns) {
    os_.write(kMagic, static_cast<std::streamsize>(kMagicLen));
    os_.put(static_cast<char>(kStart));
    write_string(os_, "1.0");
    expects(dbu_in_microns > 0, "OASIS: dbu must be positive");
    oasis_detail::write_real(os_, 1.0 / dbu_in_microns);  // grid steps per micron
    write_uint(os_, 0);                                   // table offsets in START...
    for (int i = 0; i < 12; ++i) write_uint(os_, 0);      // ...all absent
  }

  void begin_cell(const std::string& name) {
    if (!is_n_string(name))
      throw DataError("OASIS: cell name is not a valid n-string: \"" + name + "\"");
    os_.put(static_cast<char>(kCellName));
    write_string(os_, name);
    modal_ = {};
  }

  void rectangle(LayerKey lk, const Box& b) {
    std::uint8_t info = 0x10 | 0x08;  // X Y always explicit
    const auto w = static_cast<Coord>(b.width());
    const auto h = static_cast<Coord>(b.height());
    const bool wl = modal_.layer != lk.layer;
    const bool wd = modal_.datatype != lk.datatype;
    const bool ww = modal_.width != w;
    const bool wh = modal_.height != h;
    if (ww) info |= 0x40;
    if (wh) info |= 0x20;
    if (wd) info |= 0x02;
    if (wl) info |= 0x01;
    os_.put(static_cast<char>(kRectangle));
    os_.put(static_cast<char>(info));
    if (wl) write_uint(os_, layer_operand(lk.layer, "layer"));
    if (wd) write_uint(os_, layer_operand(lk.datatype, "datatype"));
    if (ww) write_uint(os_, static_cast<std::uint64_t>(w));
    if (wh) write_uint(os_, static_cast<std::uint64_t>(h));
    write_sint(os_, b.lo.x);
    write_sint(os_, b.lo.y);
    modal_.layer = lk.layer;
    modal_.datatype = lk.datatype;
    modal_.width = w;
    modal_.height = h;
  }

  void polygon(LayerKey lk, const SimplePolygon& contour) {
    expects(contour.size() >= 3, "OASIS: polygon needs at least 3 vertices");
    std::uint8_t info = 0x20 | 0x10 | 0x08;  // P X Y
    const bool wl = modal_.layer != lk.layer;
    const bool wd = modal_.datatype != lk.datatype;
    if (wd) info |= 0x02;
    if (wl) info |= 0x01;
    os_.put(static_cast<char>(kPolygon));
    os_.put(static_cast<char>(info));
    if (wl) write_uint(os_, layer_operand(lk.layer, "layer"));
    if (wd) write_uint(os_, layer_operand(lk.datatype, "datatype"));
    write_polygon_point_list(os_, contour.points());
    write_sint(os_, contour[0].x);
    write_sint(os_, contour[0].y);
    modal_.layer = lk.layer;
    modal_.datatype = lk.datatype;
  }

  void placement(const std::string& child, const Reference& r) {
    if (!is_n_string(child))
      throw DataError("OASIS: cell name is not a valid n-string: \"" + child + "\"");
    const CTrans& t = r.trans;
    const bool rep = r.is_array();
    if (t.is_orthogonal()) {
      const Trans exact = t.to_trans();
      std::uint8_t info = 0x80 | 0x20 | 0x10;  // C(name) X Y
      if (rep) info |= 0x08;
      info |= static_cast<std::uint8_t>(exact.rot90() << 1);
      if (t.mirror()) info |= 0x01;
      os_.put(static_cast<char>(kPlacement));
      os_.put(static_cast<char>(info));
      write_string(os_, child);
    } else {
      std::uint8_t info = 0x80 | 0x20 | 0x10;
      if (rep) info |= 0x08;
      if (t.mag() != 1.0) info |= 0x04;
      if (t.angle() != 0.0) info |= 0x02;
      if (t.mirror()) info |= 0x01;
      os_.put(static_cast<char>(kPlacementTransform));
      os_.put(static_cast<char>(info));
      write_string(os_, child);
      if (t.mag() != 1.0) oasis_detail::write_real(os_, t.mag());
      if (t.angle() != 0.0) oasis_detail::write_real(os_, t.angle());
    }
    write_sint(os_, t.disp().x);
    write_sint(os_, t.disp().y);
    if (rep) write_repetition(r);
  }

  void end() {
    os_.put(static_cast<char>(kEnd));
    // END records are exactly 256 bytes: 1 id + 2 length prefix + 252 pad +
    // 1 validation scheme (0 = none).
    write_string(os_, std::string(252, '\0'));
    write_uint(os_, 0);
  }

 private:
  void write_repetition(const Reference& r) {
    const bool x_axis = r.col_step.y == 0 && r.col_step.x >= 0;
    const bool y_axis = r.row_step.x == 0 && r.row_step.y >= 0;
    if (r.cols > 1 && r.rows > 1 && x_axis && y_axis) {
      write_uint(os_, 1);  // NxM axis-aligned matrix
      write_uint(os_, r.cols - 2);
      write_uint(os_, r.rows - 2);
      write_uint(os_, static_cast<std::uint64_t>(r.col_step.x));
      write_uint(os_, static_cast<std::uint64_t>(r.row_step.y));
    } else if (r.rows == 1 && r.cols > 1 && x_axis) {
      write_uint(os_, 2);  // x row
      write_uint(os_, r.cols - 2);
      write_uint(os_, static_cast<std::uint64_t>(r.col_step.x));
    } else if (r.cols == 1 && r.rows > 1 && y_axis) {
      write_uint(os_, 3);  // y column
      write_uint(os_, r.rows - 2);
      write_uint(os_, static_cast<std::uint64_t>(r.row_step.y));
    } else if (r.cols > 1 && r.rows > 1) {
      write_uint(os_, 8);  // 2D with arbitrary displacement vectors
      write_uint(os_, r.cols - 2);
      write_uint(os_, r.rows - 2);
      write_gdelta(os_, r.col_step);
      write_gdelta(os_, r.row_step);
    } else {
      write_uint(os_, 9);  // 1D with arbitrary displacement vector
      const bool along_cols = r.cols > 1;
      write_uint(os_, (along_cols ? r.cols : r.rows) - 2);
      write_gdelta(os_, along_cols ? r.col_step : r.row_step);
    }
  }

  std::ostream& os_;
  WriterModal modal_;
};

void write_contour(OasisFileWriter& w, LayerKey lk, const SimplePolygon& contour) {
  if (contour.empty()) return;
  const Box b = contour.bbox();
  if (contour == SimplePolygon::rect(b))
    w.rectangle(lk, b);
  else
    w.polygon(lk, contour);
}

}  // namespace

void write_oas(const Library& lib, std::ostream& os) {
  OasisFileWriter w(os);
  w.begin(lib.dbu_in_microns());
  for (std::size_t i = 0; i < lib.cell_count(); ++i) {
    const Cell& c = lib.cell(CellId{static_cast<std::uint32_t>(i)});
    w.begin_cell(c.name());
    for (const auto& [layer, polys] : c.shapes()) {
      for (const Polygon& poly : polys) {
        write_contour(w, layer, poly.outer());
        // As in the GDSII writer, holes become separate contours on the same
        // layer; downstream booleans re-merge by winding.
        for (const auto& hole : poly.holes()) write_contour(w, layer, hole);
      }
    }
    for (const Reference& r : c.references()) w.placement(lib.cell(r.child).name(), r);
  }
  w.end();
}

void write_oas(const Library& lib, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw DataError("cannot open for writing: " + path);
  write_oas(lib, os);
  if (!os) throw DataError("write failed: " + path);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

using oasis_detail::Cursor;
using stream_detail::ShapeSink;

/// A parsed repetition: either a regular cols x rows grid or an explicit
/// offset list (always starting at {0,0}).
struct Repetition {
  bool regular = true;
  std::uint32_t cols = 1;
  std::uint32_t rows = 1;
  Point col_step{0, 0};
  Point row_step{0, 0};
  std::vector<Point> offsets;
};

/// Modal variables (SEMI P39 §10). All reset at every CELL record; positions
/// reset to 0, everything else to "undefined" (use-before-set is a
/// DataError).
struct Modal {
  bool xy_relative = false;
  Coord64 placement_x = 0, placement_y = 0;
  Coord64 geometry_x = 0, geometry_y = 0;
  Coord64 text_x = 0, text_y = 0;
  std::optional<std::int16_t> layer, datatype;
  std::optional<std::int16_t> textlayer, texttype;
  std::optional<Coord> geometry_w, geometry_h;
  std::optional<Coord> path_halfwidth;
  std::optional<Coord> path_start_ext, path_end_ext;
  std::optional<std::vector<Point>> polygon_points;
  std::optional<std::vector<Point>> path_points;
  std::optional<Repetition> repetition;
  std::optional<std::string> placement_name;
  std::optional<std::uint64_t> placement_refnum;
  bool placement_set = false;
  bool text_string_set = false;
  bool prop_name_set = false;
  bool prop_values_set = false;
};

class OasisParser {
 public:
  explicit OasisParser(std::istream& is) : cur_(is) {
    parse_header();
    data_start_ = cur_.offset();
  }

  double dbu_in_microns() const { return dbu_um_; }
  std::uint64_t data_start() const { return data_start_; }
  std::uint64_t last_cell_offset() const { return last_cell_offset_; }
  const OasisReadReport& report() const { return rep_; }

  std::string name_of(std::uint64_t refnum) const {
    const auto it = cellnames_.find(refnum);
    if (it == cellnames_.end())
      throw DataError("OASIS: unresolved cellname reference " + std::to_string(refnum));
    return it->second;
  }

  /// Repositions to a previously recorded record offset (CELL records are
  /// safe re-parse points: all modal state resets there).
  void seek(std::uint64_t offset) {
    cur_.seek(offset);
    pending_.reset();
  }

  /// Forgets the name tables so a rescan from data_start() rebuilds them.
  void reset_tables() {
    cellnames_.clear();
    next_auto_refnum_ = 0;
    cellname_mode_ = NameMode::kUnknown;
    rep_ = {};
  }

  /// Parses up to and including the next CELL's contents (or, once @p sink
  /// is done, up to its last kept shape); false once END has been consumed
  /// and validated.
  bool next_cell(StreamCell& out, ShapeSink& sink) {
    for (;;) {
      std::uint64_t id_off;
      std::uint64_t id;
      if (pending_) {
        id = pending_->first;
        id_off = pending_->second;
        pending_.reset();
      } else {
        if (cur_.at_eof()) cur_.fail("end of file without END record");
        id_off = cur_.offset();
        id = cur_.read_uint();
      }
      switch (id) {
        case kPad:
          continue;
        case kEnd:
          parse_end(id_off);
          return false;
        case kCellRefnum:
        case kCellName:
          last_cell_offset_ = id_off;
          parse_cell(id, out, sink);
          return true;
        default:
          top_level(id, id_off);
          continue;
      }
    }
  }

 private:
  enum class NameMode { kUnknown, kImplicit, kExplicit };

  void parse_header() {
    for (std::size_t i = 0; i < kMagicLen; ++i) {
      if (cur_.at_eof() || cur_.byte() != static_cast<std::uint8_t>(kMagic[i]))
        throw DataError("OASIS: bad magic bytes (not an OASIS file)");
    }
    if (cur_.read_uint() != kStart) cur_.fail("expected START record after magic");
    const std::string version = cur_.read_string();
    if (version != "1.0") cur_.fail("unsupported OASIS version \"" + version + "\"");
    const double unit = cur_.read_real();
    if (unit <= 0) cur_.fail("non-positive unit (grid steps per micron)");
    dbu_um_ = 1.0 / unit;
    const std::uint64_t offset_flag = cur_.read_uint();
    if (offset_flag == 0) {
      for (int i = 0; i < 12; ++i) cur_.read_uint();  // table offsets (unused)
    } else if (offset_flag == 1) {
      table_offsets_in_end_ = true;
    } else {
      cur_.fail("invalid table offset-flag " + std::to_string(offset_flag));
    }
  }

  void parse_end(std::uint64_t id_off) {
    if (table_offsets_in_end_)
      for (int i = 0; i < 12; ++i) cur_.read_uint();
    cur_.read_string();  // padding
    const std::uint64_t scheme = cur_.read_uint();
    if (scheme > 2) cur_.fail("invalid validation scheme " + std::to_string(scheme));
    if (scheme != 0)
      for (int i = 0; i < 4; ++i) cur_.byte();  // crc32 / checksum32 (not verified)
    const std::uint64_t size = cur_.offset() - id_off;
    if (size != 256)
      cur_.fail("END record must be exactly 256 bytes, got " + std::to_string(size));
    if (!cur_.at_eof()) cur_.fail("trailing bytes after END record");
  }

  [[noreturn]] void unsupported(std::uint64_t id, std::uint64_t off) {
    if (id > kCblock)
      throw DataError("OASIS: unknown record id " + std::to_string(id) + " at byte " +
                      std::to_string(off));
    throw DataError("OASIS: unsupported record " + std::string(record_name(unsigned(id))) +
                    " (" + std::to_string(id) + ") at byte " + std::to_string(off) +
                    " — OASIS records carry no length prefix, so an undecodable record "
                    "cannot be skipped");
  }

  void top_level(std::uint64_t id, std::uint64_t id_off) {
    switch (id) {
      case kCellnameImplicit:
      case kCellnameExplicit: {
        const std::string name = cur_.read_string(true);
        std::uint64_t refnum;
        if (id == kCellnameExplicit) {
          set_cellname_mode(NameMode::kExplicit);
          refnum = cur_.read_uint();
        } else {
          set_cellname_mode(NameMode::kImplicit);
          refnum = next_auto_refnum_++;
        }
        const auto [it, inserted] = cellnames_.emplace(refnum, name);
        if (!inserted && it->second != name)
          cur_.fail("duplicate CELLNAME reference number " + std::to_string(refnum));
        break;
      }
      case kTextstringImplicit:
      case kTextstringExplicit:
      case kPropnameImplicit:
      case kPropnameExplicit:
      case kPropstringImplicit:
      case kPropstringExplicit:
        cur_.read_string(id == kPropnameImplicit || id == kPropnameExplicit);
        if (id % 2 == 0) cur_.read_uint();  // explicit reference number
        ++rep_.skipped;
        break;
      case kLayernameGeometry:
      case kLayernameText:
        cur_.read_string();
        read_interval();
        read_interval();
        ++rep_.skipped;
        break;
      case kProperty:
        parse_property();
        break;
      case kPropertyRepeat:
        if (!modal_.prop_name_set) cur_.fail("PROPERTY repeat with no previous property");
        ++rep_.skipped;
        break;
      default:
        if (id >= kXyAbsolute && id <= kTrapezoidB)
          cur_.fail("element record " + std::to_string(id) + " outside a cell");
        unsupported(id, id_off);
    }
  }

  void parse_cell(std::uint64_t id, StreamCell& out, ShapeSink& sink) {
    modal_ = Modal{};
    if (id == kCellRefnum) {
      out.refnum = cur_.read_uint();
      const auto it = cellnames_.find(out.refnum);
      if (it != cellnames_.end()) out.name = it->second;
    } else {
      out.name = cur_.read_string(true);
    }
    ++rep_.cells;
    for (;;) {
      if (sink.done()) return;  // a filtered re-read has its last shape
      if (cur_.at_eof()) cur_.fail("end of file inside a cell (missing END record)");
      const std::uint64_t off = cur_.offset();
      const std::uint64_t rid = cur_.read_uint();
      switch (rid) {
        case kPad:
          break;
        case kXyAbsolute:
          modal_.xy_relative = false;
          break;
        case kXyRelative:
          modal_.xy_relative = true;
          break;
        case kPlacement:
        case kPlacementTransform:
          parse_placement(rid, sink);
          break;
        case kText:
          parse_text();
          break;
        case kRectangle:
          parse_rectangle(sink);
          break;
        case kPolygon:
          parse_polygon(sink);
          break;
        case kPath:
          parse_path(sink);
          break;
        case kTrapezoidAB:
        case kTrapezoidA:
        case kTrapezoidB:
          parse_trapezoid(rid);
          break;
        case kProperty:
          parse_property();
          break;
        case kPropertyRepeat:
          if (!modal_.prop_name_set) cur_.fail("PROPERTY repeat with no previous property");
          ++rep_.skipped;
          break;
        case kEnd:
        case kCellRefnum:
        case kCellName:
        case kCellnameImplicit:
        case kCellnameExplicit:
        case kTextstringImplicit:
        case kTextstringExplicit:
        case kPropnameImplicit:
        case kPropnameExplicit:
        case kPropstringImplicit:
        case kPropstringExplicit:
        case kLayernameGeometry:
        case kLayernameText:
          pending_ = {rid, off};  // cell boundary: hand back to next_cell()
          return;
        default:
          unsupported(rid, off);
      }
    }
  }

  // -- operand helpers ------------------------------------------------------

  void set_cellname_mode(NameMode m) {
    if (cellname_mode_ == NameMode::kUnknown) cellname_mode_ = m;
    else if (cellname_mode_ != m)
      cur_.fail("mixed implicit and explicit CELLNAME numbering");
  }

  std::int16_t read_layer_operand(const char* what) {
    const std::uint64_t v = cur_.read_uint();
    if (v > 32767)
      cur_.fail(std::string(what) + " " + std::to_string(v) + " exceeds the 16-bit layer space");
    return static_cast<std::int16_t>(v);
  }

  Coord checked_coord(Coord64 v) {
    if (v < std::numeric_limits<Coord>::min() || v > std::numeric_limits<Coord>::max())
      cur_.fail("coordinate overflows the 32-bit database grid");
    return static_cast<Coord>(v);
  }

  Coord checked_round(double v) {
    if (!(std::abs(v) <= 2147483646.0)) cur_.fail("coordinate overflows the 32-bit database grid");
    return static_cast<Coord>(std::lround(v));
  }

  void update_xy(Coord64& v, bool present) {
    if (!present) return;
    const std::int64_t d = cur_.read_sint();
    v = modal_.xy_relative ? v + d : d;
  }

  Point read_gdelta() {
    const std::uint64_t u = cur_.read_uint();
    if ((u & 1) == 0) {
      const unsigned dir = (u >> 1) & 7;
      const std::uint64_t mag = u >> 4;
      if (mag > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
        cur_.fail("coordinate overflows the 32-bit database grid");
      const auto m = static_cast<Coord>(mag);
      static constexpr int kDx[8] = {1, 0, -1, 0, 1, -1, -1, 1};
      static constexpr int kDy[8] = {0, 1, 0, -1, 1, 1, -1, -1};
      return {static_cast<Coord>(m * kDx[dir]), static_cast<Coord>(m * kDy[dir])};
    }
    const std::uint64_t mag = u >> 2;
    if (mag > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
      cur_.fail("coordinate overflows the 32-bit database grid");
    const Coord x = (u & 2) ? -static_cast<Coord>(mag) : static_cast<Coord>(mag);
    return {x, cur_.read_coord()};
  }

  Repetition read_repetition() {
    const std::uint64_t type = cur_.read_uint();
    if (type == 0) {
      if (!modal_.repetition) cur_.fail("repetition reuse before any repetition was set");
      return *modal_.repetition;
    }
    Repetition r;
    const auto dim = [&](const char* what) -> std::uint32_t {
      const std::uint64_t n = cur_.read_uint();
      if (n + 2 > kMaxRepetitionCount)
        cur_.fail(std::string(what) + " repetition dimension " + std::to_string(n) + " too large");
      return static_cast<std::uint32_t>(n + 2);
    };
    const auto grid_mult = [&]() -> Coord64 {
      const std::uint64_t g = cur_.read_uint();
      if (g > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
        cur_.fail("repetition grid overflows the 32-bit database grid");
      return static_cast<Coord64>(g);
    };
    switch (type) {
      case 1:
        r.cols = dim("x");
        r.rows = dim("y");
        r.col_step = {cur_.read_ucoord(), 0};
        r.row_step = {0, cur_.read_ucoord()};
        break;
      case 2:
        r.cols = dim("x");
        r.col_step = {cur_.read_ucoord(), 0};
        break;
      case 3:
        r.rows = dim("y");
        r.row_step = {0, cur_.read_ucoord()};
        break;
      case 4:
      case 5:
      case 6:
      case 7: {
        const bool x_axis = type <= 5;
        const std::uint32_t n = dim(x_axis ? "x" : "y");
        const Coord64 grid = (type == 5 || type == 7) ? grid_mult() : 1;
        r.regular = false;
        r.offsets.push_back({0, 0});
        Coord64 acc = 0;
        for (std::uint32_t i = 0; i + 1 < n; ++i) {
          const std::uint64_t s = cur_.read_uint();
          if (s > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
            cur_.fail("coordinate overflows the 32-bit database grid");
          acc += static_cast<Coord64>(s) * grid;
          const Coord c = checked_coord(acc);
          r.offsets.push_back(x_axis ? Point{c, 0} : Point{0, c});
        }
        break;
      }
      case 8:
        r.cols = dim("x");
        r.rows = dim("y");
        r.col_step = read_gdelta();
        r.row_step = read_gdelta();
        break;
      case 9:
        r.cols = dim("x");
        r.col_step = read_gdelta();
        break;
      case 10:
      case 11: {
        const std::uint32_t n = dim("offset-list");
        const Coord64 grid = type == 11 ? grid_mult() : 1;
        r.regular = false;
        r.offsets.push_back({0, 0});
        Coord64 ax = 0, ay = 0;
        for (std::uint32_t i = 0; i + 1 < n; ++i) {
          const Point d = read_gdelta();
          ax += Coord64(d.x) * grid;
          ay += Coord64(d.y) * grid;
          r.offsets.push_back({checked_coord(ax), checked_coord(ay)});
        }
        break;
      }
      default:
        cur_.fail("invalid repetition type " + std::to_string(type));
    }
    modal_.repetition = r;
    return r;
  }

  /// Decodes a point list into vertices relative to the record position
  /// (first vertex {0,0}). For polygons, type 0/1 lists gain the implicit
  /// closing vertex; types 2-5 close implicitly edge-to-first.
  std::vector<Point> read_point_list(bool for_polygon) {
    const std::uint64_t type = cur_.read_uint();
    const std::uint64_t n = cur_.read_uint();
    if (n > kMaxRepetitionCount) cur_.fail("point list too long");
    if (n == 0) cur_.fail("empty point list");
    std::vector<Point> pts;
    // n is not yet backed by bytes: a truncated list must not reserve 2^24.
    pts.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 4096)) + 2);
    pts.push_back({0, 0});
    Coord64 cx = 0, cy = 0;
    const auto push = [&] { pts.push_back({checked_coord(cx), checked_coord(cy)}); };
    switch (type) {
      case 0:
      case 1: {
        if (for_polygon && (n < 2 || n % 2 != 0))
          cur_.fail("type " + std::to_string(type) +
                    " polygon point list needs an even delta count >= 2");
        bool horiz = type == 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::int64_t d = cur_.read_sint();
          if (d == 0) cur_.fail("zero-length 1-delta in point list");
          if (horiz) cx += d; else cy += d;
          push();
          horiz = !horiz;
        }
        if (for_polygon) {
          // Two implicit closing edges: the next (horizontal or vertical)
          // edge runs to the implicit vertex, the final edge back to {0,0}.
          if (horiz) cx = 0; else cy = 0;
          if ((cx == 0 && cy == 0) || (pts.back() == Point{checked_coord(cx), checked_coord(cy)}))
            cur_.fail("degenerate implicit closing vertex in point list");
          push();
        }
        break;
      }
      case 2:
      case 3: {
        const unsigned dir_bits = type == 2 ? 3u : 7u;
        const unsigned shift = type == 2 ? 2u : 3u;
        static constexpr int kDx[8] = {1, 0, -1, 0, 1, -1, -1, 1};
        static constexpr int kDy[8] = {0, 1, 0, -1, 1, 1, -1, -1};
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t u = cur_.read_uint();
          const unsigned dir = static_cast<unsigned>(u & dir_bits);
          const std::uint64_t mag = u >> shift;
          if (mag > static_cast<std::uint64_t>(std::numeric_limits<Coord>::max()))
            cur_.fail("coordinate overflows the 32-bit database grid");
          cx += static_cast<Coord64>(mag) * kDx[dir];
          cy += static_cast<Coord64>(mag) * kDy[dir];
          push();
        }
        break;
      }
      case 4: {
        for (std::uint64_t i = 0; i < n; ++i) {
          const Point d = read_gdelta();
          cx += d.x;
          cy += d.y;
          push();
        }
        break;
      }
      case 5: {
        Coord64 lx = 0, ly = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          const Point g = read_gdelta();
          lx += g.x;
          ly += g.y;
          cx += lx;
          cy += ly;
          push();
        }
        break;
      }
      default:
        cur_.fail("invalid point list type " + std::to_string(type));
    }
    if (for_polygon && pts.size() < 3) cur_.fail("polygon with fewer than 3 vertices");
    return pts;
  }

  template <class Fn>
  void for_each_offset(const std::optional<Repetition>& rep, Fn&& fn) {
    if (!rep) {
      fn(Point{0, 0});
      return;
    }
    if (!rep->regular) {
      for (const Point o : rep->offsets) fn(o);
      return;
    }
    const std::uint64_t total = std::uint64_t(rep->cols) * rep->rows;
    if (total > kMaxRepetitionCount) cur_.fail("geometry repetition too large");
    for (std::uint32_t row = 0; row < rep->rows; ++row)
      for (std::uint32_t col = 0; col < rep->cols; ++col)
        fn(Point{checked_coord(Coord64(rep->col_step.x) * col + Coord64(rep->row_step.x) * row),
                 checked_coord(Coord64(rep->col_step.y) * col + Coord64(rep->row_step.y) * row)});
  }

  void require(bool set, const char* what) {
    if (!set) cur_.fail(std::string(what) + " uses a modal variable before any was set");
  }

  // -- element records ------------------------------------------------------

  void parse_placement(std::uint64_t id, ShapeSink& sink) {
    const std::uint8_t info = cur_.byte();
    const bool has_cell = info & 0x80, by_refnum = info & 0x40;
    const bool has_x = info & 0x20, has_y = info & 0x10, has_rep = info & 0x08;
    if (has_cell) {
      if (by_refnum) {
        modal_.placement_refnum = cur_.read_uint();
        modal_.placement_name.reset();
      } else {
        modal_.placement_name = cur_.read_string(true);
        modal_.placement_refnum.reset();
      }
      modal_.placement_set = true;
    } else {
      require(modal_.placement_set, "PLACEMENT");
    }
    double mag = 1.0;
    double angle = 0.0;
    const bool mirror = info & 0x01;
    if (id == kPlacement) {
      angle = 90.0 * ((info >> 1) & 3);
    } else {
      if (info & 0x04) {
        mag = cur_.read_real();
        if (mag <= 0) cur_.fail("non-positive placement magnification");
      }
      if (info & 0x02) angle = cur_.read_real();
    }
    update_xy(modal_.placement_x, has_x);
    update_xy(modal_.placement_y, has_y);
    std::optional<Repetition> rep;
    if (has_rep) rep = read_repetition();
    ++rep_.placements;

    StreamRef ref;
    if (modal_.placement_name) ref.child = *modal_.placement_name;
    else ref.child_refnum = *modal_.placement_refnum;
    const auto place = [&](Point off) {
      StreamRef r = ref;
      r.trans = CTrans{{checked_coord(modal_.placement_x + off.x),
                        checked_coord(modal_.placement_y + off.y)},
                       angle, mag, mirror};
      sink.ref(std::move(r));
    };
    if (rep && rep->regular) {
      ref.cols = rep->cols;
      ref.rows = rep->rows;
      ref.col_step = rep->col_step;
      ref.row_step = rep->row_step;
      place({0, 0});
    } else if (rep) {
      for (const Point o : rep->offsets) place(o);
    } else {
      place({0, 0});
    }
  }

  void parse_text() {
    const std::uint8_t info = cur_.byte();
    const bool has_str = info & 0x40, by_refnum = info & 0x20;
    if (has_str) {
      if (by_refnum) cur_.read_uint();
      else cur_.read_string();
      modal_.text_string_set = true;
    } else {
      require(modal_.text_string_set, "TEXT");
    }
    if (info & 0x01) modal_.textlayer = read_layer_operand("textlayer");
    if (info & 0x02) modal_.texttype = read_layer_operand("texttype");
    update_xy(modal_.text_x, info & 0x10);
    update_xy(modal_.text_y, info & 0x08);
    if (info & 0x04) read_repetition();
    require(modal_.textlayer.has_value(), "TEXT");
    require(modal_.texttype.has_value(), "TEXT");
    ++rep_.skipped;
  }

  void parse_rectangle(ShapeSink& sink) {
    const std::uint8_t info = cur_.byte();
    const bool square = info & 0x80;
    if (square && (info & 0x20)) cur_.fail("RECTANGLE with both S and H bits set");
    if (info & 0x01) modal_.layer = read_layer_operand("layer");
    if (info & 0x02) modal_.datatype = read_layer_operand("datatype");
    if (info & 0x40) modal_.geometry_w = cur_.read_ucoord();
    if (info & 0x20) modal_.geometry_h = cur_.read_ucoord();
    if (square) {
      require(modal_.geometry_w.has_value(), "RECTANGLE");
      modal_.geometry_h = modal_.geometry_w;
    }
    update_xy(modal_.geometry_x, info & 0x10);
    update_xy(modal_.geometry_y, info & 0x08);
    std::optional<Repetition> rep;
    if (info & 0x04) rep = read_repetition();
    require(modal_.layer.has_value(), "RECTANGLE");
    require(modal_.datatype.has_value(), "RECTANGLE");
    require(modal_.geometry_w.has_value(), "RECTANGLE");
    require(modal_.geometry_h.has_value(), "RECTANGLE");
    ++rep_.rectangles;
    const LayerKey lk{*modal_.layer, *modal_.datatype};
    const Coord w = *modal_.geometry_w;
    const Coord h = *modal_.geometry_h;
    for_each_offset(rep, [&](Point off) {
      const Coord x0 = checked_coord(modal_.geometry_x + off.x);
      const Coord y0 = checked_coord(modal_.geometry_y + off.y);
      const Coord x1 = checked_coord(Coord64(x0) + w);
      const Coord y1 = checked_coord(Coord64(y0) + h);
      sink.shape(lk, [&] { return Polygon::rect(Box{x0, y0, x1, y1}); });
    });
  }

  void parse_polygon(ShapeSink& sink) {
    const std::uint8_t info = cur_.byte();
    if (info & 0xC0) cur_.fail("invalid POLYGON info byte");
    if (info & 0x01) modal_.layer = read_layer_operand("layer");
    if (info & 0x02) modal_.datatype = read_layer_operand("datatype");
    if (info & 0x20) modal_.polygon_points = read_point_list(true);
    update_xy(modal_.geometry_x, info & 0x10);
    update_xy(modal_.geometry_y, info & 0x08);
    std::optional<Repetition> rep;
    if (info & 0x04) rep = read_repetition();
    require(modal_.layer.has_value(), "POLYGON");
    require(modal_.datatype.has_value(), "POLYGON");
    require(modal_.polygon_points.has_value(), "POLYGON");
    ++rep_.polygons;
    const LayerKey lk{*modal_.layer, *modal_.datatype};
    const std::vector<Point>& rel = *modal_.polygon_points;
    for_each_offset(rep, [&](Point off) {
      // Placed and checked whether or not the shape is kept: the skim runs
      // every check the geometry parse runs.
      placed_.clear();
      for (const Point v : rel)
        placed_.push_back({checked_coord(modal_.geometry_x + off.x + v.x),
                           checked_coord(modal_.geometry_y + off.y + v.y)});
      sink.shape(lk, [&] { return Polygon(SimplePolygon{placed_}); });
    });
  }

  void parse_path(ShapeSink& sink) {
    const std::uint8_t info = cur_.byte();
    if (info & 0x01) modal_.layer = read_layer_operand("layer");
    if (info & 0x02) modal_.datatype = read_layer_operand("datatype");
    if (info & 0x40) modal_.path_halfwidth = cur_.read_ucoord();
    if (info & 0x80) {
      const std::uint64_t scheme = cur_.read_uint();
      if (scheme > 15) cur_.fail("invalid path extension scheme " + std::to_string(scheme));
      const auto ext = [&](unsigned bits, std::optional<Coord>& slot, const char* side) {
        switch (bits) {
          case 0: break;  // keep modal
          case 1: slot = 0; break;
          case 2:
            if (!modal_.path_halfwidth)
              cur_.fail(std::string("halfwidth ") + side +
                        " extension before any halfwidth was set");
            slot = *modal_.path_halfwidth;
            break;
          case 3: slot = cur_.read_coord(); break;
        }
      };
      ext((scheme >> 2) & 3, modal_.path_start_ext, "start");
      ext(scheme & 3, modal_.path_end_ext, "end");
    }
    if (info & 0x20) modal_.path_points = read_point_list(false);
    update_xy(modal_.geometry_x, info & 0x10);
    update_xy(modal_.geometry_y, info & 0x08);
    std::optional<Repetition> rep;
    if (info & 0x04) rep = read_repetition();
    require(modal_.layer.has_value(), "PATH");
    require(modal_.datatype.has_value(), "PATH");
    require(modal_.path_halfwidth.has_value(), "PATH");
    require(modal_.path_start_ext.has_value(), "PATH");
    require(modal_.path_end_ext.has_value(), "PATH");
    require(modal_.path_points.has_value(), "PATH");
    ++rep_.paths;
    const LayerKey lk{*modal_.layer, *modal_.datatype};
    const double hw = *modal_.path_halfwidth;
    const double es = *modal_.path_start_ext;
    const double ee = *modal_.path_end_ext;
    const std::vector<Point>& rel = *modal_.path_points;
    for_each_offset(rep, [&](Point off) {
      for (std::size_t s = 0; s + 1 < rel.size(); ++s) {
        const double ax = double(modal_.geometry_x + off.x) + rel[s].x;
        const double ay = double(modal_.geometry_y + off.y) + rel[s].y;
        const double bx = double(modal_.geometry_x + off.x) + rel[s + 1].x;
        const double by = double(modal_.geometry_y + off.y) + rel[s + 1].y;
        const double dx = bx - ax, dy = by - ay;
        const double len = std::hypot(dx, dy);
        if (len == 0.0) cur_.fail("zero-length path segment");
        const double ux = dx / len, uy = dy / len;   // along the segment
        const double nx = -uy, ny = ux;              // left normal
        const double s0 = s == 0 ? es : 0.0;
        const double e0 = s + 2 == rel.size() ? ee : 0.0;
        // Rounded and checked whether or not the quad is kept.
        const std::array<Point, 4> quad{{
            {checked_round(ax - ux * s0 - nx * hw), checked_round(ay - uy * s0 - ny * hw)},
            {checked_round(bx + ux * e0 - nx * hw), checked_round(by + uy * e0 - ny * hw)},
            {checked_round(bx + ux * e0 + nx * hw), checked_round(by + uy * e0 + ny * hw)},
            {checked_round(ax - ux * s0 + nx * hw), checked_round(ay - uy * s0 + ny * hw)}}};
        sink.shape(lk, [&] {
          return Polygon(SimplePolygon{std::vector<Point>(quad.begin(), quad.end())});
        });
      }
    });
  }

  void parse_trapezoid(std::uint64_t id) {
    const std::uint8_t info = cur_.byte();
    if (info & 0x01) modal_.layer = read_layer_operand("layer");
    if (info & 0x02) modal_.datatype = read_layer_operand("datatype");
    if (info & 0x40) modal_.geometry_w = cur_.read_ucoord();
    if (info & 0x20) modal_.geometry_h = cur_.read_ucoord();
    if (id != kTrapezoidB) cur_.read_sint();  // delta-a (1-delta)
    if (id != kTrapezoidA) cur_.read_sint();  // delta-b (1-delta)
    update_xy(modal_.geometry_x, info & 0x10);
    update_xy(modal_.geometry_y, info & 0x08);
    if (info & 0x04) read_repetition();
    require(modal_.layer.has_value(), "TRAPEZOID");
    require(modal_.datatype.has_value(), "TRAPEZOID");
    require(modal_.geometry_w.has_value(), "TRAPEZOID");
    require(modal_.geometry_h.has_value(), "TRAPEZOID");
    // Operands are fully validated to keep the stream position and modal
    // state exact, but the geometry itself is dropped (reported via the
    // trapezoids counter) — see docs/formats.md.
    ++rep_.trapezoids;
  }

  void parse_property() {
    const std::uint8_t info = cur_.byte();
    if (info & 0x04) {
      if (info & 0x02) cur_.read_uint();
      else cur_.read_string(true);
      modal_.prop_name_set = true;
    } else {
      require(modal_.prop_name_set, "PROPERTY");
    }
    if (!(info & 0x08)) {
      std::uint64_t count = info >> 4;
      if (count == 15) count = cur_.read_uint();
      if (count > kMaxRepetitionCount) cur_.fail("property value list too long");
      for (std::uint64_t i = 0; i < count; ++i) read_property_value();
      modal_.prop_values_set = true;
    } else {
      require(modal_.prop_values_set, "PROPERTY");
    }
    ++rep_.skipped;
  }

  void read_property_value() {
    const std::uint64_t kind = cur_.read_uint();
    switch (kind) {
      case 0: case 1: cur_.read_uint(); break;
      case 2: case 3: {
        if (cur_.read_uint() == 0) cur_.fail("real with zero denominator");
        break;
      }
      case 4: case 5: {
        cur_.read_uint();
        if (cur_.read_uint() == 0) cur_.fail("real with zero denominator");
        break;
      }
      case 6: for (int i = 0; i < 4; ++i) cur_.byte(); break;
      case 7: for (int i = 0; i < 8; ++i) cur_.byte(); break;
      case 8: cur_.read_uint(); break;
      case 9: cur_.read_sint(); break;
      case 10: case 11: cur_.read_string(); break;
      case 12: cur_.read_string(true); break;
      case 13: case 14: case 15: cur_.read_uint(); break;
      default: cur_.fail("invalid property value type " + std::to_string(kind));
    }
  }

  void read_interval() {
    const std::uint64_t type = cur_.read_uint();
    switch (type) {
      case 0: break;
      case 1: case 2: case 3: cur_.read_uint(); break;
      case 4: cur_.read_uint(); cur_.read_uint(); break;
      default: cur_.fail("invalid layer interval type " + std::to_string(type));
    }
  }

  Cursor cur_;
  std::vector<Point> placed_;  // parse_polygon's reused vertex buffer
  double dbu_um_ = 0.001;
  bool table_offsets_in_end_ = false;
  std::uint64_t data_start_ = 0;
  std::uint64_t last_cell_offset_ = 0;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> pending_;  // (id, offset)
  Modal modal_;
  std::map<std::uint64_t, std::string> cellnames_;
  std::uint64_t next_auto_refnum_ = 0;
  NameMode cellname_mode_ = NameMode::kUnknown;
  OasisReadReport rep_;
};

/// LayoutStream over an OASIS byte source: forward iteration plus seek-based
/// re-reads of already-seen cells (CELL records reset all modal state, so a
/// recorded record offset is a safe re-parse point).
class OasisCellStream final : public LayoutStream {
 public:
  OasisCellStream(std::unique_ptr<std::istream> owned, std::istream& is)
      : owned_(std::move(owned)), parser_(is) {}

  const std::string& library_name() const override { return name_; }
  double dbu_in_microns() const override { return parser_.dbu_in_microns(); }
  const OasisReadReport& report() const { return parser_.report(); }

  bool next(StreamCell& out, bool with_geometry) override {
    if (pass_done_) return false;
    out = StreamCell{};
    ShapeSink sink(out, with_geometry);
    if (!parser_.next_cell(out, sink)) {
      pass_done_ = true;
      names_complete_ = true;
      return false;
    }
    offsets_.push_back(parser_.last_cell_offset());
    if (out.name.empty() && out.refnum != kNoRefnum && names_complete_)
      out.name = parser_.name_of(out.refnum);
    return true;
  }

  void rewind() override {
    parser_.seek(parser_.data_start());
    parser_.reset_tables();
    offsets_.clear();
    pass_done_ = false;
    names_complete_ = false;
  }

  std::size_t cells_seen() const override { return offsets_.size(); }

  StreamCell read_cell(std::size_t index, const std::optional<LayerFilter>& filter) override {
    expects(index < offsets_.size(), "LayoutStream::read_cell index out of range");
    parser_.seek(offsets_[index]);
    StreamCell c;
    ShapeSink sink(c, filter);
    const bool ok = parser_.next_cell(c, sink);
    ensures(ok, "LayoutStream::read_cell: cell vanished on re-read");
    if (c.name.empty() && c.refnum != kNoRefnum && names_complete_)
      c.name = parser_.name_of(c.refnum);
    return c;
  }

  std::string name_of(std::uint64_t refnum) const override { return parser_.name_of(refnum); }

 private:
  std::unique_ptr<std::istream> owned_;
  OasisParser parser_;
  std::string name_ = "OASIS";
  std::vector<std::uint64_t> offsets_;
  bool pass_done_ = false;
  bool names_complete_ = false;
};

}  // namespace

Library read_oas(std::istream& is, OasisReadReport* report) {
  OasisCellStream stream(nullptr, is);
  Library lib = build_library(stream);
  if (report) *report = stream.report();
  return lib;
}

Library read_oas(const std::string& path, OasisReadReport* report) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw DataError("cannot open for reading: " + path);
  return read_oas(is, report);
}

std::unique_ptr<LayoutStream> open_oas_stream(std::unique_ptr<std::istream> is) {
  expects(is != nullptr, "open_oas_stream: null stream");
  std::istream& ref = *is;
  return std::make_unique<OasisCellStream>(std::move(is), ref);
}

std::unique_ptr<LayoutStream> open_oas_stream(const std::string& path) {
  auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*f) throw DataError("cannot open for reading: " + path);
  return open_oas_stream(std::move(f));
}

}  // namespace ebl
