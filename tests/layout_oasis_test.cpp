// OASIS codec, round-trip, and hostile-input tests.
//
// The hand-built byte sequences below follow SEMI P39 record layouts; the
// record-id and info-byte constants are documented in docs/formats.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>

#include "layout/gdsii.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "layout_fixtures.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using oasis_detail::Cursor;
using oasis_detail::write_real;
using oasis_detail::write_sint;
using oasis_detail::write_string;
using oasis_detail::write_uint;
using test_fixtures::sample_library;

std::string dump_oas(const Library& lib) {
  std::ostringstream os(std::ios::binary);
  write_oas(lib, os);
  return os.str();
}

// ---------------------------------------------------------------- codecs ---

TEST(OasisCodec, UintRoundTripsBoundaries) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 31,
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_uint(ss, v);
    Cursor c(ss);
    EXPECT_EQ(c.read_uint(), v) << "value " << v;
    EXPECT_TRUE(c.at_eof());
  }
}

TEST(OasisCodec, UintRejects65BitEncoding) {
  // Nine continuation bytes put the tenth at shift 63, where only the low
  // bit may be set; 0x03 would be bit 64.
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  for (int i = 0; i < 9; ++i) ss.put(static_cast<char>(0xFF));
  ss.put(0x03);
  Cursor c(ss);
  EXPECT_THROW(c.read_uint(), DataError);
}

TEST(OasisCodec, UintRejectsOverlongContinuation) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  for (int i = 0; i < 10; ++i) ss.put(static_cast<char>(0x81));
  ss.put(0x01);
  Cursor c(ss);
  EXPECT_THROW(c.read_uint(), DataError);
}

TEST(OasisCodec, SintRoundTripsBoundaries) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        (std::int64_t{1} << 62) - 1, -((std::int64_t{1} << 62) - 1)}) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_sint(ss, v);
    Cursor c(ss);
    EXPECT_EQ(c.read_sint(), v) << "value " << v;
  }
}

TEST(OasisCodec, RealRoundTripsWholeAndFractional) {
  for (const double v : {0.0, 1.0, -1.0, 1000.0, -42.0, 0.5, 1.25, -2.75e-3, 3.14159}) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_real(ss, v);
    Cursor c(ss);
    EXPECT_DOUBLE_EQ(c.read_real(), v) << "value " << v;
  }
}

TEST(OasisCodec, RealDecodesAllSpecTypes) {
  const auto decode = [](const std::function<void(std::ostream&)>& put) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    put(ss);
    Cursor c(ss);
    return c.read_real();
  };
  // Type 2/3: positive/negative reciprocal.
  EXPECT_DOUBLE_EQ(decode([](std::ostream& os) {
                     write_uint(os, 2);
                     write_uint(os, 4);
                   }),
                   0.25);
  EXPECT_DOUBLE_EQ(decode([](std::ostream& os) {
                     write_uint(os, 3);
                     write_uint(os, 8);
                   }),
                   -0.125);
  // Type 4/5: ratio.
  EXPECT_DOUBLE_EQ(decode([](std::ostream& os) {
                     write_uint(os, 4);
                     write_uint(os, 3);
                     write_uint(os, 4);
                   }),
                   0.75);
  EXPECT_DOUBLE_EQ(decode([](std::ostream& os) {
                     write_uint(os, 5);
                     write_uint(os, 7);
                     write_uint(os, 2);
                   }),
                   -3.5);
  // Type 6: float32, little-endian.
  EXPECT_DOUBLE_EQ(decode([](std::ostream& os) {
                     write_uint(os, 6);
                     const float f = 1.5f;
                     char raw[4];
                     std::memcpy(raw, &f, 4);
                     os.write(raw, 4);
                   }),
                   1.5);
}

TEST(OasisCodec, RealRejectsZeroDenominatorAndNonFinite) {
  const auto expect_throw = [](const std::function<void(std::ostream&)>& put) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    put(ss);
    Cursor c(ss);
    EXPECT_THROW(c.read_real(), DataError);
  };
  expect_throw([](std::ostream& os) {
    write_uint(os, 2);
    write_uint(os, 0);  // 1/0
  });
  expect_throw([](std::ostream& os) {
    write_uint(os, 4);
    write_uint(os, 1);
    write_uint(os, 0);  // 1/0 as ratio
  });
  expect_throw([](std::ostream& os) {
    write_uint(os, 7);
    const double inf = std::numeric_limits<double>::infinity();
    char raw[8];
    std::memcpy(raw, &inf, 8);
    os.write(raw, 8);
  });
  expect_throw([](std::ostream& os) { write_uint(os, 8); });  // invalid type
}

TEST(OasisCodec, NStringValidation) {
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_string(ss, "TOP_0.A$");
    Cursor c(ss);
    EXPECT_EQ(c.read_string(true), "TOP_0.A$");
  }
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_string(ss, "bad name");  // space is outside 0x21..0x7E
    Cursor c(ss);
    EXPECT_THROW(c.read_string(true), DataError);
  }
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    write_string(ss, "");
    Cursor c(ss);
    EXPECT_THROW(c.read_string(true), DataError);  // empty n-string
  }
}

TEST(OasisCodec, CoordRejectsGridOverflow) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_sint(ss, std::int64_t{1} << 33);
  Cursor c(ss);
  EXPECT_THROW(c.read_coord(), DataError);
}

// ------------------------------------------------- buffered cursor refills ---
//
// The cursor reads kBlock bytes per refill. Operands that straddle a refill
// boundary must decode to the same values, and errors must name the same
// byte offsets, as an operand inside one block.

constexpr std::size_t kBlock = Cursor::kBlock;

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DataError& e) {
    return e.what();
  }
  return "no error";
}

// @p n zero bytes: n varint zeros, consumed with read_uint.
void skip_zeros(Cursor& c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(c.read_uint(), 0u);
}

TEST(OasisCursor, VarintStraddlingARefillDecodes) {
  const std::uint64_t v = (std::uint64_t{1} << 62) + 12345;  // a 9-byte varint
  for (std::size_t shift = 0; shift <= 10; ++shift) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(kBlock - shift, '\0');
    write_uint(ss, v);
    write_sint(ss, -77);
    Cursor c(ss);
    skip_zeros(c, kBlock - shift);
    EXPECT_EQ(c.read_uint(), v) << "shift " << shift;
    EXPECT_EQ(c.read_sint(), -77) << "shift " << shift;
    EXPECT_EQ(c.offset(), kBlock - shift + 9 + 2);
    EXPECT_TRUE(c.at_eof());
  }
}

TEST(OasisCursor, NStringStraddlingARefillDecodes) {
  const std::string name = "CELL_NAME_ACROSS_A_REFILL";
  const std::string long_name(3 * kBlock + 5, 'Q');  // spans four blocks
  for (std::size_t shift = 0; shift <= name.size() + 2; ++shift) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(kBlock - shift, '\0');
    write_string(ss, name);
    write_string(ss, long_name);
    Cursor c(ss);
    skip_zeros(c, kBlock - shift);
    EXPECT_EQ(c.read_string(true), name) << "shift " << shift;
    EXPECT_EQ(c.read_string(true), long_name) << "shift " << shift;
    EXPECT_TRUE(c.at_eof());
  }
}

TEST(OasisCursor, ErrorsAtARefillNameTheSameOffsets) {
  // Truncated mid-varint exactly at the boundary, and one byte past it.
  for (const std::size_t cut : {kBlock, kBlock + 1}) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(cut - 2, '\0') << '\x80' << '\x80';
    Cursor c(ss);
    skip_zeros(c, cut - 2);
    EXPECT_EQ(message_of([&] { c.read_uint(); }),
              "OASIS: unexpected end of file at byte " + std::to_string(cut));
  }
  // A 65-bit varint whose last byte lies in the next block.
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(kBlock - 5, '\0') << std::string(9, '\xFF') << '\x03';
    Cursor c(ss);
    skip_zeros(c, kBlock - 5);
    EXPECT_EQ(message_of([&] { c.read_uint(); }),
              "OASIS: unsigned integer overflows 64 bits at byte " + std::to_string(kBlock + 5));
  }
  // A string truncated in the next block reports where its bytes start.
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(kBlock - 20, '\0');
    write_uint(ss, 100);
    ss << std::string(50, 'A');
    Cursor c(ss);
    skip_zeros(c, kBlock - 20);
    EXPECT_EQ(message_of([&] { c.read_string(); }),
              "OASIS: truncated string at byte " + std::to_string(kBlock - 19));
  }
  // A non-printable byte in the next block: reported after the whole string.
  {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    ss << std::string(kBlock - 4, '\0');
    write_string(ss, "ABCDEF G");
    Cursor c(ss);
    skip_zeros(c, kBlock - 4);
    EXPECT_EQ(message_of([&] { c.read_string(true); }),
              "OASIS: non-printable character in n-string at byte " +
                  std::to_string(kBlock - 4 + 1 + 8));
  }
}

// ------------------------------------------------------------ round trip ---

TEST(Oasis, RoundTripPreservesStructure) {
  const Library lib = sample_library();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_oas(lib, ss);

  OasisReadReport report;
  const Library back = read_oas(ss, &report);
  EXPECT_EQ(back.cell_count(), 2u);
  EXPECT_EQ(report.cells, 2u);
  EXPECT_EQ(report.placements, 2u);
  EXPECT_GE(report.rectangles, 1u);  // the leaf Box goes out as RECTANGLE
  ASSERT_TRUE(back.find_cell("LEAF").has_value());
  ASSERT_TRUE(back.find_cell("TOP").has_value());
}

TEST(Oasis, RoundTripPreservesFlattenedGeometryExactly) {
  const Library lib = sample_library();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_oas(lib, ss);
  const Library back = read_oas(ss);

  const CellId top = *lib.find_cell("TOP");
  const CellId btop = *back.find_cell("TOP");
  for (const LayerKey layer : {LayerKey{1, 0}, LayerKey{1, 5}}) {
    const auto a = lib.flatten(top, layer).trapezoids();
    const auto b = back.flatten(btop, layer).trapezoids();
    EXPECT_EQ(a, b) << "layer " << layer.layer << "/" << layer.datatype;
  }
  // Holes are written as separate contours (the GDSII convention shared by
  // both writers): the merged region turns the hole into overlap, so only
  // the union bbox is preserved on the holed layer.
  EXPECT_EQ(lib.flatten(top, LayerKey{2, 0}).bbox(),
            back.flatten(btop, LayerKey{2, 0}).bbox());
}

TEST(Oasis, RoundTripPreservesArrayPlacement) {
  const Library lib = sample_library();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_oas(lib, ss);
  const Library back = read_oas(ss);

  const Cell& top = back.cell(*back.find_cell("TOP"));
  ASSERT_EQ(top.references().size(), 2u);
  const Reference& sref = top.references()[0];
  EXPECT_EQ(sref.trans.disp(), (Point{1000, -500}));
  EXPECT_DOUBLE_EQ(sref.trans.angle(), 90.0);
  EXPECT_TRUE(sref.trans.mirror());
  const Reference& aref = top.references()[1];
  EXPECT_EQ(aref.cols, 3u);
  EXPECT_EQ(aref.rows, 2u);
  EXPECT_EQ(aref.col_step, (Point{200, 0}));
  EXPECT_EQ(aref.row_step, (Point{0, 300}));
}

TEST(Oasis, CrossFormatEqualityWithGdsii) {
  const Library lib = sample_library();
  std::stringstream gds(std::ios::in | std::ios::out | std::ios::binary);
  std::stringstream oas(std::ios::in | std::ios::out | std::ios::binary);
  write_gds(lib, gds);
  write_oas(lib, oas);
  const Library from_gds = read_gds(gds);
  const Library from_oas = read_oas(oas);

  ASSERT_EQ(from_gds.cell_count(), from_oas.cell_count());
  const CellId gtop = *from_gds.find_cell("TOP");
  const CellId otop = *from_oas.find_cell("TOP");
  for (const LayerKey layer : {LayerKey{1, 0}, LayerKey{1, 5}, LayerKey{2, 0}}) {
    EXPECT_EQ(from_gds.flatten(gtop, layer).trapezoids(),
              from_oas.flatten(otop, layer).trapezoids())
        << "layer " << layer.layer << "/" << layer.datatype;
  }
}

TEST(Oasis, WriterRejectsUnrepresentableNames) {
  Library lib("BAD");
  lib.add_cell("has space");
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(write_oas(lib, os), DataError);
}

// --------------------------------------------------------- hand-built files ---

void put_header(std::ostream& os) {
  os.write("%SEMI-OASIS\r\n", 13);
  os.put(1);  // START
  write_string(os, "1.0");
  write_real(os, 1000.0);  // 1000 grid steps per micron = 1 nm dbu
  write_uint(os, 0);       // offset-flag: table offsets here...
  for (int i = 0; i < 12; ++i) write_uint(os, 0);  // ...and all absent
}

void put_end(std::ostream& os) {
  os.put(2);  // END
  std::string pad(252, '\0');
  write_string(os, pad);
  write_uint(os, 0);  // validation scheme: none
}

void put_cell(std::ostream& os, const std::string& name) {
  os.put(14);  // CELL by name
  write_string(os, name);
}

// RECTANGLE with everything explicit: info = W H X Y D L.
void put_rectangle(std::ostream& os, std::uint64_t layer, std::uint64_t datatype,
                   std::uint64_t w, std::uint64_t h, std::int64_t x, std::int64_t y) {
  os.put(20);
  os.put(0x7B);  // 0100 0000 W | 0010 0000 H | X Y | D L
  write_uint(os, layer);
  write_uint(os, datatype);
  write_uint(os, w);
  write_uint(os, h);
  write_sint(os, x);
  write_sint(os, y);
}

TEST(OasisHandBuilt, MinimalFileParses) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  put_rectangle(ss, 1, 0, 100, 50, 10, 20);
  put_end(ss);

  OasisReadReport report;
  const Library lib = read_oas(ss, &report);
  EXPECT_EQ(report.rectangles, 1u);
  const Cell& a = lib.cell(*lib.find_cell("A"));
  ASSERT_EQ(a.shapes_on(LayerKey{1, 0}).size(), 1u);
  EXPECT_EQ(a.shapes_on(LayerKey{1, 0})[0], Polygon::rect(Box{10, 20, 110, 70}));
}

TEST(OasisHandBuilt, ModalVariablesCompressWithinACell) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  put_rectangle(ss, 1, 0, 100, 50, 0, 0);
  // Second rectangle reuses every modal: info = X Y only.
  ss.put(20);
  ss.put(0x18);
  write_sint(ss, 500);
  write_sint(ss, 500);
  put_end(ss);

  const Library lib = read_oas(ss);
  const Cell& a = lib.cell(*lib.find_cell("A"));
  ASSERT_EQ(a.shapes_on(LayerKey{1, 0}).size(), 2u);
  EXPECT_EQ(a.shapes_on(LayerKey{1, 0})[1], Polygon::rect(Box{500, 500, 600, 550}));
}

TEST(OasisHandBuilt, ModalStateResetsAcrossCells) {
  // Cell B's rectangle reuses modal layer/width/... — but CELL resets all
  // modal variables, so the reuse must be a hard error, not cell A's state.
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  put_rectangle(ss, 1, 0, 100, 50, 0, 0);
  put_cell(ss, "B");
  ss.put(20);
  ss.put(0x18);  // X Y only: layer/datatype/width/height all modal — unset
  write_sint(ss, 0);
  write_sint(ss, 0);
  put_end(ss);

  try {
    read_oas(ss);
    FAIL() << "modal reuse across cells must throw";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("modal variable"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
  }
}

TEST(OasisHandBuilt, XyRelativeModeAccumulates) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  put_rectangle(ss, 1, 0, 10, 10, 100, 200);
  ss.put(16);  // XYRELATIVE
  ss.put(20);  // rectangle at modal + (5, 7)
  ss.put(0x18);
  write_sint(ss, 5);
  write_sint(ss, 7);
  put_end(ss);

  const Library lib = read_oas(ss);
  const Cell& a = lib.cell(*lib.find_cell("A"));
  ASSERT_EQ(a.shapes_on(LayerKey{1, 0}).size(), 2u);
  EXPECT_EQ(a.shapes_on(LayerKey{1, 0})[1], Polygon::rect(Box{105, 207, 115, 217}));
}

TEST(OasisHandBuilt, PathBecomesSegmentQuads) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  ss.put(22);    // PATH
  ss.put(0xFB);  // E W P X Y - D L
  write_uint(ss, 3);              // layer
  write_uint(ss, 1);              // datatype
  write_uint(ss, 5);              // halfwidth
  write_uint(ss, (1u << 2) | 1);  // extension scheme: both flush
  write_uint(ss, 0);              // point list type 0: horizontal first
  write_uint(ss, 1);              // one delta
  write_sint(ss, 20);             // 20 dbu east
  write_sint(ss, 0);              // x
  write_sint(ss, 0);              // y
  put_end(ss);

  OasisReadReport report;
  const Library lib = read_oas(ss, &report);
  EXPECT_EQ(report.paths, 1u);
  const Cell& a = lib.cell(*lib.find_cell("A"));
  ASSERT_EQ(a.shapes_on(LayerKey{3, 1}).size(), 1u);
  EXPECT_EQ(a.shapes_on(LayerKey{3, 1})[0], Polygon::rect(Box{0, -5, 20, 5}));
}

// Form 2 g-delta: explicit x with sign, then y.
void put_gdelta(std::ostream& os, Point d) {
  const bool neg = d.x < 0;
  const auto mag = static_cast<std::uint64_t>(neg ? -Coord64(d.x) : Coord64(d.x));
  write_uint(os, (mag << 2) | (neg ? 2u : 0u) | 1u);
  write_sint(os, d.y);
}

// One cell "A" holding a g-delta POLYGON on 1/0, behind @p pads top-level
// PAD records; *list_at receives the offset of the point list.
std::string padded_polygon_file(std::size_t pads, std::size_t* list_at = nullptr) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  ss << std::string(pads, '\0');
  put_cell(ss, "A");
  ss.put(21);    // POLYGON
  ss.put(0x3B);  // P X Y D L
  write_uint(ss, 1);
  write_uint(ss, 0);
  if (list_at) *list_at = static_cast<std::size_t>(ss.tellp());
  write_uint(ss, 4);  // g-delta point list
  write_uint(ss, 3);
  for (const Point d : {Point{300000, 0}, Point{0, 200000}, Point{-150000, 100000}})
    put_gdelta(ss, d);
  write_sint(ss, -5000);
  write_sint(ss, 7000);
  put_end(ss);
  return ss.str();
}

TEST(OasisHandBuilt, PointListStraddlingARefillParses) {
  std::size_t list_at = 0;
  const std::size_t list_len = padded_polygon_file(0, &list_at).size() - 256 - 4 - list_at;
  const Polygon expected(SimplePolygon{
      {{-5000, 7000}, {295000, 7000}, {295000, 207000}, {145000, 307000}}});
  for (std::size_t k = 0; k <= list_len; ++k) {
    const std::size_t pads = kBlock - list_at - k;  // the boundary k bytes into the list
    std::stringstream ss(padded_polygon_file(pads), std::ios::in | std::ios::binary);
    const Library lib = read_oas(ss);
    const auto& shapes = lib.cell(*lib.find_cell("A")).shapes_on(LayerKey{1, 0});
    ASSERT_EQ(shapes.size(), 1u) << "split " << k;
    EXPECT_EQ(shapes[0], expected) << "split " << k;
  }
}

TEST(OasisHandBuilt, TruncationAroundARefillNamesTheCut) {
  std::size_t list_at = 0;
  padded_polygon_file(0, &list_at);
  const std::string bytes = padded_polygon_file(kBlock - list_at - 3);
  for (std::size_t cut = kBlock - 8; cut <= kBlock + 8; ++cut) {
    std::stringstream ss(bytes.substr(0, cut), std::ios::in | std::ios::binary);
    const std::string what = message_of([&] { read_oas(ss); });
    const std::string tail = " at byte " + std::to_string(cut);
    ASSERT_GE(what.size(), tail.size()) << what;
    EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
  }
}

// The skim runs every check the geometry parse runs. ORPHAN is never
// reached from TOP, but its shape's placed vertices leave the 32-bit grid:
// read_oas rejects the file, and so must stream_layer with TOP as its top.
TEST(OasisHandBuilt, SkimChecksPlacedVerticesOfUnreachedCells) {
  const auto file = [](bool path) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    put_header(ss);
    put_cell(ss, "TOP");
    put_rectangle(ss, 1, 0, 100, 50, 0, 0);
    put_cell(ss, "ORPHAN");
    if (path) {
      ss.put(22);    // PATH
      ss.put(0xFB);  // E W P X Y - D L
      write_uint(ss, 1);
      write_uint(ss, 0);
      write_uint(ss, 10);             // halfwidth
      write_uint(ss, (1u << 2) | 1);  // both ends flush
      write_uint(ss, 0);              // one horizontal delta
      write_uint(ss, 1);
      write_sint(ss, 100);
    } else {
      ss.put(21);    // POLYGON
      ss.put(0x3B);  // P X Y D L
      write_uint(ss, 1);
      write_uint(ss, 0);
      write_uint(ss, 0);  // two 1-deltas, horizontal first
      write_uint(ss, 2);
      write_sint(ss, 100);
      write_sint(ss, 100);
    }
    write_sint(ss, 2147483600);  // + 100 leaves the grid
    write_sint(ss, 0);
    put_end(ss);
    return ss.str();
  };
  for (const bool path : {false, true}) {
    std::stringstream in_ram(file(path), std::ios::in | std::ios::binary);
    const std::string read_error = message_of([&] { read_oas(in_ram); });
    EXPECT_NE(read_error.find("coordinate overflows the 32-bit database grid"),
              std::string::npos)
        << read_error;

    const auto stream =
        open_oas_stream(std::make_unique<std::stringstream>(file(path), std::ios::in | std::ios::binary));
    IngestOptions opt;
    opt.top = "TOP";
    opt.layer = LayerKey{1, 0};
    const std::string stream_error =
        message_of([&] { stream_layer(*stream, opt, [](const Polygon&) {}); });
    EXPECT_EQ(stream_error, read_error) << (path ? "PATH" : "POLYGON");
  }
}

TEST(OasisHandBuilt, RejectsCblock) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  ss.put(34);  // CBLOCK
  put_end(ss);
  try {
    read_oas(ss);
    FAIL() << "CBLOCK must be rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("CBLOCK"), std::string::npos) << e.what();
  }
}

// --------------------------------------------------------- hostile inputs ---

TEST(Oasis, RejectsGarbage) {
  std::stringstream ss("this is not an OASIS file at all");
  EXPECT_THROW(read_oas(ss), DataError);
}

TEST(Oasis, RejectsTrailingBytesAfterEnd) {
  std::string bytes = dump_oas(sample_library());
  bytes.push_back('\0');
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_oas(ss), DataError);
}

TEST(Oasis, TruncationAtEveryByteOffsetThrowsDataError) {
  // The wire-protocol standard: any prefix of a valid file must produce a
  // clean DataError — never a crash, a hang, or a silently parsed library.
  const std::string bytes = dump_oas(sample_library());
  ASSERT_GT(bytes.size(), 256u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream ss(bytes.substr(0, len), std::ios::in | std::ios::binary);
    EXPECT_THROW(read_oas(ss), DataError) << "prefix length " << len;
  }
}

TEST(Oasis, PlacementOfUndefinedCellRejected) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  put_header(ss);
  put_cell(ss, "A");
  ss.put(17);    // PLACEMENT
  ss.put(0xB0);  // C(name present) - N X Y
  write_string(ss, "GHOST");
  write_sint(ss, 0);
  write_sint(ss, 0);
  put_end(ss);
  EXPECT_THROW(read_oas(ss), DataError);
}

}  // namespace
}  // namespace ebl
