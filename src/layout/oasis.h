// OASIS (SEMI P39) stream format reader/writer.
//
// OASIS is the compressed successor to GDSII: variable-length integer
// operands, modal variables that carry state between records, and implicit
// record lengths. This implementation covers the record set real foundry
// interchange needs — CELL / CELLNAME / PLACEMENT (both forms) / RECTANGLE /
// POLYGON / PATH — plus TEXT, PROPERTY, and TRAPEZOID records (operands
// fully parsed and validated, geometry not imported) and every repetition
// type (0-11). CBLOCK
// compression, CTRAPEZOID, CIRCLE, and X* extension records are rejected
// with a DataError naming the record: OASIS has no record length prefix, so
// a record that cannot be decoded cannot be skipped either (see
// docs/formats.md for the full support matrix).
//
// Validation is strict in the style of pec/wire.cpp: truncation, operand
// overflow, out-of-grid coordinates, unset modal variables, and malformed
// structure all throw DataError carrying the absolute byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "layout/library.h"

namespace ebl {

/// Result counters from an OASIS read.
struct OasisReadReport {
  std::size_t cells = 0;
  std::size_t rectangles = 0;
  std::size_t polygons = 0;
  std::size_t paths = 0;        ///< PATH records (converted to segment quads)
  std::size_t trapezoids = 0;   ///< TRAPEZOID records (parsed, geometry dropped)
  std::size_t placements = 0;   ///< placement records (arrays count once)
  std::size_t skipped = 0;      ///< TEXT / PROPERTY / name-table records
};

/// Writes @p lib to @p path / @p os. Geometry becomes RECTANGLE records when
/// a contour is an axis-aligned rectangle in canonical vertex order and
/// POLYGON records otherwise (1-delta Manhattan point lists when the contour
/// alternates horizontal/vertical, g-delta lists for the general case).
/// Holes are written as separate polygons on the same layer, mirroring the
/// GDSII writer. Throws DataError on I/O failure or unrepresentable values
/// (cell names that are not printable OASIS n-strings, layer numbers beyond
/// int16).
void write_oas(const Library& lib, const std::string& path);
void write_oas(const Library& lib, std::ostream& os);

/// Reads an OASIS file into a new Library. Structural errors throw DataError
/// with the byte offset of the offending operand. The library is named
/// "OASIS" (the format has no library-name record).
Library read_oas(const std::string& path, OasisReadReport* report = nullptr);
Library read_oas(std::istream& is, OasisReadReport* report = nullptr);

namespace oasis_detail {

/// Buffered byte cursor over an istream tracking the absolute offset for
/// error messages. It reads the stream in blocks, so byte() is a pointer
/// bump; the stream position runs ahead of offset() by the buffered bytes.
/// All read_* methods throw DataError("OASIS: ... at byte N") on truncation
/// or malformed operands. Exposed for unit testing the operand codecs
/// against hand-built byte sequences.
class Cursor {
 public:
  /// Bytes read from the stream per refill.
  static constexpr std::size_t kBlock = 8192;

  /// @p offset is the absolute offset of the stream's current position.
  explicit Cursor(std::istream& is, std::uint64_t offset = 0);
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  std::uint64_t offset() const { return buf_off_ + static_cast<std::uint64_t>(pos_ - buf_); }

  /// Repositions the stream to absolute @p offset and drops the buffer.
  void seek(std::uint64_t offset);

  /// True when no byte is left (reads ahead).
  bool at_eof() { return pos_ == end_ && !refill(); }

  std::uint8_t byte() {
    if (pos_ == end_ && !refill()) fail("unexpected end of file");
    return static_cast<std::uint8_t>(*pos_++);
  }
  /// Unsigned-integer: base-128 little-endian varint, at most 64 bits.
  std::uint64_t read_uint();
  /// Signed-integer: varint with the sign in the low bit of the encoding.
  std::int64_t read_sint();
  /// Real: type byte 0-7 (whole / reciprocal / ratio / float32 / float64).
  double read_real();
  /// Length-prefixed byte string. @p printable demands 0x21..0x7E only
  /// (OASIS n-string, used for cell names).
  std::string read_string(bool printable = false);
  /// Signed coordinate that must fit the 32-bit database grid.
  Coord read_coord();
  /// Unsigned operand that must fit a positive 32-bit coordinate.
  Coord read_ucoord();

  [[noreturn]] void fail(const std::string& what) const { fail_at(offset(), what); }

 private:
  [[noreturn]] static void fail_at(std::uint64_t offset, const std::string& what);
  /// Reads the next block; false at end of stream.
  bool refill();

  std::istream& is_;
  char buf_[kBlock];
  const char* pos_ = buf_;
  const char* end_ = buf_;
  std::uint64_t buf_off_;  ///< absolute offset of buf_[0]
};

void write_uint(std::ostream& os, std::uint64_t v);
void write_sint(std::ostream& os, std::int64_t v);
/// Writes type 0/1 (whole number) when exact, type 7 (float64) otherwise.
void write_real(std::ostream& os, double v);
void write_string(std::ostream& os, const std::string& s);

/// Encoded byte length of write_uint(v) (for END-record padding math).
std::size_t uint_length(std::uint64_t v);

}  // namespace oasis_detail

}  // namespace ebl
