#include "layout/gdsii.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "layout/stream.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using stream_detail::ShapeSink;

// Record types (record_type << 8 | data_type).
enum : std::uint16_t {
  kHeader = 0x0002,
  kBgnLib = 0x0102,
  kLibName = 0x0206,
  kUnits = 0x0305,
  kEndLib = 0x0400,
  kBgnStr = 0x0502,
  kStrName = 0x0606,
  kEndStr = 0x0700,
  kBoundary = 0x0800,
  kPath = 0x0900,
  kSref = 0x0A00,
  kAref = 0x0B00,
  kText = 0x0C00,
  kLayer = 0x0D02,
  kDatatype = 0x0E02,
  kWidth = 0x0F03,
  kXy = 0x1003,
  kEndEl = 0x1100,
  kSname = 0x1206,
  kColRow = 0x1302,
  kNode = 0x1500,
  kBoxEl = 0x2D00,
  kStrans = 0x1A01,
  kMag = 0x1B05,
  kAngle = 0x1C05,
};

class RecordWriter {
 public:
  explicit RecordWriter(std::ostream& os) : os_(os) {}

  void record(std::uint16_t type, const std::vector<std::uint8_t>& payload = {}) {
    const std::size_t len = payload.size() + 4;
    expects(len <= 0xFFFF, "GDS record too long");
    put16(static_cast<std::uint16_t>(len));
    put16(type);
    os_.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }

  static void push16(std::vector<std::uint8_t>& v, std::uint16_t x) {
    v.push_back(static_cast<std::uint8_t>(x >> 8));
    v.push_back(static_cast<std::uint8_t>(x));
  }
  static void push32(std::vector<std::uint8_t>& v, std::uint32_t x) {
    v.push_back(static_cast<std::uint8_t>(x >> 24));
    v.push_back(static_cast<std::uint8_t>(x >> 16));
    v.push_back(static_cast<std::uint8_t>(x >> 8));
    v.push_back(static_cast<std::uint8_t>(x));
  }
  static void push64(std::vector<std::uint8_t>& v, std::uint64_t x) {
    for (int s = 56; s >= 0; s -= 8) v.push_back(static_cast<std::uint8_t>(x >> s));
  }
  static void push_string(std::vector<std::uint8_t>& v, const std::string& s) {
    for (char c : s) v.push_back(static_cast<std::uint8_t>(c));
    if (v.size() % 2) v.push_back(0);  // pad to even length
  }

 private:
  void put16(std::uint16_t x) {
    const char b[2] = {static_cast<char>(x >> 8), static_cast<char>(x)};
    os_.write(b, 2);
  }
  std::ostream& os_;
};

class RecordReader {
 public:
  explicit RecordReader(std::istream& is) : is_(is) {}

  /// Reads the next record; returns false at a clean EOF. Tracks absolute
  /// byte offsets so every DataError names where the corruption is.
  bool next() {
    record_off_ = off_;
    std::uint8_t head[4];
    is_.read(reinterpret_cast<char*>(head), 4);
    if (is_.gcount() == 0) return false;
    if (is_.gcount() != 4)
      throw DataError("GDS: truncated record header at byte " + std::to_string(record_off_));
    off_ += 4;
    const std::uint16_t len = static_cast<std::uint16_t>((head[0] << 8) | head[1]);
    type_ = static_cast<std::uint16_t>((head[2] << 8) | head[3]);
    if (len < 4) {
      // Some writers emit a null word as padding at EOF.
      if (len == 0 && type_ == 0) return false;
      throw DataError("GDS: record length < 4 at byte " + std::to_string(record_off_));
    }
    payload_.resize(len - 4u);
    if (!payload_.empty()) {
      is_.read(reinterpret_cast<char*>(payload_.data()),
               static_cast<std::streamsize>(payload_.size()));
      if (static_cast<std::size_t>(is_.gcount()) != payload_.size())
        throw DataError("GDS: truncated record payload at byte " + std::to_string(record_off_));
      off_ += payload_.size();
    }
    return true;
  }

  /// Absolute offset of the first header byte of the current record.
  std::uint64_t record_offset() const { return record_off_; }

  /// Repositions to a previously recorded record offset (structures are
  /// self-contained, so BGNSTR offsets are safe re-parse points).
  void seek(std::uint64_t off) {
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(off));
    if (!is_) throw DataError("GDS: seek to byte " + std::to_string(off) + " failed");
    off_ = off;
    record_off_ = off;
  }

  std::uint16_t type() const { return type_; }
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  std::uint16_t u16(std::size_t offset) const {
    need(offset + 2);
    return static_cast<std::uint16_t>((payload_[offset] << 8) | payload_[offset + 1]);
  }
  std::int16_t i16(std::size_t offset) const {
    return static_cast<std::int16_t>(u16(offset));
  }
  std::int32_t i32(std::size_t offset) const {
    need(offset + 4);
    return static_cast<std::int32_t>((std::uint32_t(payload_[offset]) << 24) |
                                     (std::uint32_t(payload_[offset + 1]) << 16) |
                                     (std::uint32_t(payload_[offset + 2]) << 8) |
                                     std::uint32_t(payload_[offset + 3]));
  }
  std::uint64_t u64(std::size_t offset) const {
    need(offset + 8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | payload_[offset + static_cast<std::size_t>(i)];
    return x;
  }
  std::string str() const {
    std::string s(payload_.begin(), payload_.end());
    while (!s.empty() && s.back() == '\0') s.pop_back();
    return s;
  }

 private:
  /// A record shorter than its type's operands is malformed input.
  void need(std::size_t bytes) const {
    if (payload_.size() < bytes)
      throw DataError("GDS: record payload too short at byte " + std::to_string(record_off_));
  }

  std::istream& is_;
  std::uint16_t type_ = 0;
  std::vector<std::uint8_t> payload_;
  std::uint64_t off_ = 0;
  std::uint64_t record_off_ = 0;
};

std::vector<std::uint8_t> i16_payload(std::int16_t v) {
  std::vector<std::uint8_t> p;
  RecordWriter::push16(p, static_cast<std::uint16_t>(v));
  return p;
}

// Zero-filled 12-word BGNLIB/BGNSTR timestamp payload (dates are irrelevant
// for data prep and zero keeps output byte-reproducible).
std::vector<std::uint8_t> timestamp_payload() {
  return std::vector<std::uint8_t>(24, 0);
}

void write_xy(RecordWriter& w, const SimplePolygon& contour) {
  std::vector<std::uint8_t> p;
  for (const Point pt : contour.points()) {
    RecordWriter::push32(p, static_cast<std::uint32_t>(pt.x));
    RecordWriter::push32(p, static_cast<std::uint32_t>(pt.y));
  }
  // GDSII closes boundaries explicitly by repeating the first point.
  if (!contour.empty()) {
    RecordWriter::push32(p, static_cast<std::uint32_t>(contour[0].x));
    RecordWriter::push32(p, static_cast<std::uint32_t>(contour[0].y));
  }
  w.record(kXy, p);
}

void write_boundary(RecordWriter& w, LayerKey layer, const SimplePolygon& contour) {
  w.record(kBoundary);
  w.record(kLayer, i16_payload(layer.layer));
  w.record(kDatatype, i16_payload(layer.datatype));
  write_xy(w, contour);
  w.record(kEndEl);
}

void write_transform(RecordWriter& w, const CTrans& t) {
  const bool need_strans = t.mirror() || t.mag() != 1.0 || t.angle() != 0.0;
  if (!need_strans) return;
  std::vector<std::uint8_t> flags;
  RecordWriter::push16(flags, t.mirror() ? 0x8000 : 0x0000);
  w.record(kStrans, flags);
  if (t.mag() != 1.0) {
    std::vector<std::uint8_t> p;
    RecordWriter::push64(p, gds_detail::to_gds_real(t.mag()));
    w.record(kMag, p);
  }
  if (t.angle() != 0.0) {
    std::vector<std::uint8_t> p;
    RecordWriter::push64(p, gds_detail::to_gds_real(t.angle()));
    w.record(kAngle, p);
  }
}

/// LayoutStream over a GDSII byte source. The header (records up to the
/// first BGNSTR) is parsed eagerly; next() then yields one structure per
/// call. BGNSTR offsets are recorded so read_cell() can re-parse any seen
/// structure via seek — GDS structures are self-contained, making them safe
/// re-parse points.
class GdsCellStream final : public LayoutStream {
 public:
  GdsCellStream(std::unique_ptr<std::istream> owned, std::istream& is)
      : owned_(std::move(owned)), r_(is) {
    if (!r_.next() || r_.type() != kHeader) throw DataError("GDS: missing HEADER record");
    if (!r_.next() || r_.type() != kBgnLib) throw DataError("GDS: missing BGNLIB record");
    for (;;) {
      if (!r_.next()) throw DataError("GDS: missing ENDLIB at byte " + offset_str());
      if (r_.type() == kLibName) {
        name_ = r_.str();
      } else if (r_.type() == kUnits) {
        dbu_um_ = gds_detail::from_gds_real(r_.u64(0));
        if (dbu_um_ <= 0) throw DataError("GDS: invalid UNITS at byte " + offset_str());
      } else if (r_.type() == kBgnStr || r_.type() == kEndLib) {
        data_start_ = r_.record_offset();
        have_record_ = true;
        break;
      }
      // other header records (timestamps, attributes): skip
    }
  }

  const std::string& library_name() const override { return name_; }
  double dbu_in_microns() const override { return dbu_um_; }
  const GdsReadReport& report() const { return rep_; }

  bool next(StreamCell& out, bool with_geometry) override {
    if (pass_done_) return false;
    for (;;) {
      if (!have_record_ && !r_.next())
        throw DataError("GDS: missing ENDLIB at byte " + offset_str());
      have_record_ = false;
      switch (r_.type()) {
        case kEndLib:
          pass_done_ = true;
          return false;
        case kBgnStr: {
          offsets_.push_back(r_.record_offset());
          out = StreamCell{};
          ShapeSink sink(out, with_geometry);
          parse_structure(out, sink);
          return true;
        }
        case kBoundary:
        case kSref:
        case kAref:
          throw DataError("GDS: element outside structure at byte " + offset_str());
        default:
          break;  // unknown top-level record: skip
      }
    }
  }

  void rewind() override {
    r_.seek(data_start_);
    have_record_ = false;
    offsets_.clear();
    pass_done_ = false;
  }

  std::size_t cells_seen() const override { return offsets_.size(); }

  StreamCell read_cell(std::size_t index, const std::optional<LayerFilter>& filter) override {
    expects(index < offsets_.size(), "LayoutStream::read_cell index out of range");
    r_.seek(offsets_[index]);
    have_record_ = false;
    ensures(r_.next() && r_.type() == kBgnStr, "GDS: structure vanished on re-read");
    StreamCell out;
    ShapeSink sink(out, filter);
    parse_structure(out, sink);  // report counters re-count on re-parse
    return out;
  }

 private:
  std::string offset_str() const { return std::to_string(r_.record_offset()); }

  void parse_structure(StreamCell& out, ShapeSink& sink) {
    bool named = false;
    for (;;) {
      if (named && sink.done()) return;  // a filtered re-read has its last shape
      if (!r_.next()) throw DataError("GDS: missing ENDSTR at byte " + offset_str());
      switch (r_.type()) {
        case kStrName:
          out.name = r_.str();
          named = true;
          ++rep_.structures;
          break;
        case kEndStr:
          if (!named)
            throw DataError("GDS: structure without STRNAME at byte " + offset_str());
          return;
        case kBoundary:
          if (!named)
            throw DataError("GDS: BOUNDARY outside structure at byte " + offset_str());
          parse_boundary(sink);
          break;
        case kSref:
        case kAref:
          if (!named)
            throw DataError("GDS: reference outside structure at byte " + offset_str());
          parse_reference(sink, r_.type() == kAref);
          break;
        case kPath:
        case kText:
        case kNode:
        case kBoxEl:
          ++rep_.skipped_elements;
          while (r_.next() && r_.type() != kEndEl) {
          }
          break;
        case kBgnStr:
        case kEndLib:
          throw DataError("GDS: missing ENDSTR at byte " + offset_str());
        default:
          break;  // unknown element record: skip
      }
    }
  }

  void parse_boundary(ShapeSink& sink) {
    LayerKey layer{};
    pts_.clear();
    while (r_.next() && r_.type() != kEndEl) {
      if (r_.type() == kLayer) layer.layer = r_.i16(0);
      else if (r_.type() == kDatatype) layer.datatype = r_.i16(0);
      else if (r_.type() == kXy) {
        const std::size_t n = r_.payload().size() / 8;
        for (std::size_t i = 0; i < n; ++i) {
          pts_.push_back({static_cast<Coord>(r_.i32(i * 8)),
                          static_cast<Coord>(r_.i32(i * 8 + 4))});
        }
      }
    }
    if (pts_.size() >= 4 && pts_.front() == pts_.back()) pts_.pop_back();
    if (pts_.size() >= 3) {
      ++rep_.boundaries;
      sink.shape(layer, [&] { return Polygon(SimplePolygon{pts_}); });
    }
  }

  void parse_reference(ShapeSink& sink, bool is_aref) {
    const std::uint64_t ref_off = r_.record_offset();
    std::string child;
    bool mirror = false;
    double mag = 1.0;
    double angle = 0.0;
    std::uint16_t cols = 1;
    std::uint16_t rows = 1;
    std::vector<Point> xy;
    while (r_.next() && r_.type() != kEndEl) {
      if (r_.type() == kSname) child = r_.str();
      else if (r_.type() == kStrans) mirror = (r_.u16(0) & 0x8000) != 0;
      else if (r_.type() == kMag) mag = gds_detail::from_gds_real(r_.u64(0));
      else if (r_.type() == kAngle) angle = gds_detail::from_gds_real(r_.u64(0));
      else if (r_.type() == kColRow) {
        cols = r_.u16(0);
        rows = r_.u16(2);
      } else if (r_.type() == kXy) {
        const std::size_t n = r_.payload().size() / 8;
        for (std::size_t i = 0; i < n; ++i) {
          xy.push_back({static_cast<Coord>(r_.i32(i * 8)),
                        static_cast<Coord>(r_.i32(i * 8 + 4))});
        }
      }
    }
    if (child.empty() || xy.empty())
      throw DataError("GDS: incomplete reference at byte " + std::to_string(ref_off));
    StreamRef ref;
    ref.child = std::move(child);
    ref.trans = CTrans{xy[0], angle, mag, mirror};
    if (is_aref) {
      if (xy.size() != 3 || cols == 0 || rows == 0)
        throw DataError("GDS: malformed AREF at byte " + std::to_string(ref_off));
      ref.cols = cols;
      ref.rows = rows;
      ref.col_step = {static_cast<Coord>((Coord64(xy[1].x) - xy[0].x) / cols),
                      static_cast<Coord>((Coord64(xy[1].y) - xy[0].y) / cols)};
      ref.row_step = {static_cast<Coord>((Coord64(xy[2].x) - xy[0].x) / rows),
                      static_cast<Coord>((Coord64(xy[2].y) - xy[0].y) / rows)};
      ++rep_.arefs;
    } else {
      ++rep_.srefs;
    }
    sink.ref(std::move(ref));
  }

  std::unique_ptr<std::istream> owned_;
  RecordReader r_;
  std::string name_ = "LIB";
  double dbu_um_ = 0.001;
  std::uint64_t data_start_ = 0;
  bool have_record_ = false;
  bool pass_done_ = false;
  std::vector<std::uint64_t> offsets_;
  std::vector<Point> pts_;  // parse_boundary's reused vertex buffer
  GdsReadReport rep_;
};

}  // namespace

namespace gds_detail {

std::uint64_t to_gds_real(double value) {
  if (value == 0.0) return 0;
  std::uint64_t sign = 0;
  if (value < 0) {
    sign = 1ull << 63;
    value = -value;
  }
  // Normalize mantissa into [1/16, 1) with base-16 exponent.
  int exponent = 0;
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  const auto mantissa = static_cast<std::uint64_t>(std::ldexp(value, 56));
  return sign | (static_cast<std::uint64_t>(exponent + 64) << 56) |
         (mantissa & 0x00FFFFFFFFFFFFFFull);
}

double from_gds_real(std::uint64_t bits) {
  if (bits == 0) return 0.0;
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const auto mantissa = static_cast<double>(bits & 0x00FFFFFFFFFFFFFFull);
  double value = std::ldexp(mantissa, -56) * std::pow(16.0, exponent);
  return negative ? -value : value;
}

}  // namespace gds_detail

void write_gds(const Library& lib, std::ostream& os) {
  RecordWriter w(os);
  w.record(kHeader, i16_payload(600));  // stream version 6
  w.record(kBgnLib, timestamp_payload());
  {
    std::vector<std::uint8_t> p;
    RecordWriter::push_string(p, lib.name());
    w.record(kLibName, p);
  }
  {
    // UNITS: size of one dbu in user units (user unit = 1 µm), then in
    // meters.
    std::vector<std::uint8_t> p;
    RecordWriter::push64(p, gds_detail::to_gds_real(lib.dbu_in_microns()));
    RecordWriter::push64(p, gds_detail::to_gds_real(lib.dbu_in_microns() * 1e-6));
    w.record(kUnits, p);
  }

  for (std::size_t i = 0; i < lib.cell_count(); ++i) {
    const Cell& c = lib.cell(CellId{static_cast<std::uint32_t>(i)});
    expects(c.name().size() <= 126, "GDS: cell name too long");
    w.record(kBgnStr, timestamp_payload());
    {
      std::vector<std::uint8_t> p;
      RecordWriter::push_string(p, c.name());
      w.record(kStrName, p);
    }
    for (const auto& [layer, polys] : c.shapes()) {
      for (const Polygon& poly : polys) {
        write_boundary(w, layer, poly.outer());
        // GDSII has no hole concept: holes are written as separate
        // boundaries on the same layer; the reader re-merges by winding
        // when it runs booleans. (Keyholing is not needed for data prep.)
        for (const auto& hole : poly.holes()) write_boundary(w, layer, hole);
      }
    }
    for (const Reference& r : c.references()) {
      const Cell& child = lib.cell(r.child);
      if (r.is_array()) {
        w.record(kAref);
        std::vector<std::uint8_t> p;
        RecordWriter::push_string(p, child.name());
        w.record(kSname, p);
        write_transform(w, r.trans);
        p.clear();
        RecordWriter::push16(p, static_cast<std::uint16_t>(r.cols));
        RecordWriter::push16(p, static_cast<std::uint16_t>(r.rows));
        w.record(kColRow, p);
        p.clear();
        const Point o = r.trans.disp();
        const Point pc{static_cast<Coord>(o.x + Coord64(r.col_step.x) * r.cols),
                       static_cast<Coord>(o.y + Coord64(r.col_step.y) * r.cols)};
        const Point pr{static_cast<Coord>(o.x + Coord64(r.row_step.x) * r.rows),
                       static_cast<Coord>(o.y + Coord64(r.row_step.y) * r.rows)};
        for (const Point pt : {o, pc, pr}) {
          RecordWriter::push32(p, static_cast<std::uint32_t>(pt.x));
          RecordWriter::push32(p, static_cast<std::uint32_t>(pt.y));
        }
        w.record(kXy, p);
        w.record(kEndEl);
      } else {
        w.record(kSref);
        std::vector<std::uint8_t> p;
        RecordWriter::push_string(p, child.name());
        w.record(kSname, p);
        write_transform(w, r.trans);
        p.clear();
        RecordWriter::push32(p, static_cast<std::uint32_t>(r.trans.disp().x));
        RecordWriter::push32(p, static_cast<std::uint32_t>(r.trans.disp().y));
        w.record(kXy, p);
        w.record(kEndEl);
      }
    }
    w.record(kEndStr);
  }
  w.record(kEndLib);
}

void write_gds(const Library& lib, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw DataError("cannot open for writing: " + path);
  write_gds(lib, os);
  if (!os) throw DataError("write failed: " + path);
}

Library read_gds(std::istream& is, GdsReadReport* report) {
  GdsCellStream stream(nullptr, is);
  Library lib = build_library(stream);
  if (report) *report = stream.report();
  return lib;
}

Library read_gds(const std::string& path, GdsReadReport* report) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw DataError("cannot open for reading: " + path);
  return read_gds(is, report);
}

std::unique_ptr<LayoutStream> open_gds_stream(std::unique_ptr<std::istream> is) {
  expects(is != nullptr, "open_gds_stream: null stream");
  std::istream& ref = *is;
  return std::make_unique<GdsCellStream>(std::move(is), ref);
}

std::unique_ptr<LayoutStream> open_gds_stream(const std::string& path) {
  auto is = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*is) throw DataError("cannot open for reading: " + path);
  return open_gds_stream(std::move(is));
}

}  // namespace ebl
