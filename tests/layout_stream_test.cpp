// LayoutStream + bounded-window ingestion tests.
//
// The load-bearing claims of the streaming subsystem are verified here:
// streamed fracture is bitwise-identical to the in-RAM flatten path for
// both formats, and the flatten pass never holds more parsed cells than
// the configured window.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/job.h"
#include "fracture/fracture.h"
#include "layout/gdsii.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "layout_fixtures.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using test_fixtures::deep_library;
using test_fixtures::sample_library;

constexpr LayerKey kMetal{1, 0};

std::unique_ptr<LayoutStream> stream_of(const Library& lib, bool oasis) {
  auto ss = std::make_unique<std::stringstream>(std::ios::in | std::ios::out |
                                                std::ios::binary);
  if (oasis) {
    write_oas(lib, *ss);
    return open_oas_stream(std::move(ss));
  }
  write_gds(lib, *ss);
  return open_gds_stream(std::move(ss));
}

TEST(LayoutStream, IteratesCellsInFileOrder) {
  for (const bool oasis : {false, true}) {
    const auto stream = stream_of(sample_library(), oasis);
    std::vector<std::string> names;
    StreamCell cell;
    while (stream->next(cell)) names.push_back(cell.name);
    EXPECT_EQ(names, (std::vector<std::string>{"LEAF", "TOP"})) << "oasis " << oasis;
    EXPECT_EQ(stream->cells_seen(), 2u);
  }
}

TEST(LayoutStream, SkimCountsShapesWithoutStoringThem) {
  for (const bool oasis : {false, true}) {
    const auto stream = stream_of(sample_library(), oasis);
    StreamCell cell;
    ASSERT_TRUE(stream->next(cell, /*with_geometry=*/false));
    EXPECT_EQ(cell.name, "LEAF");
    EXPECT_TRUE(cell.shapes.empty()) << "oasis " << oasis;
    // LEAF carries a rectangle on 1/0, a triangle on 1/5 and a holed
    // polygon on 2/0, which both writers emit as two contours.
    const ShapeCounts expected{{LayerKey{1, 0}, 1}, {LayerKey{1, 5}, 1}, {LayerKey{2, 0}, 2}};
    EXPECT_EQ(cell.shape_counts, expected) << "oasis " << oasis;
    EXPECT_EQ(cell.shape_count(), 4u);
    const StreamCell full = stream->read_cell(0);
    EXPECT_EQ(full.shape_counts, expected) << "oasis " << oasis;
    for (const auto& [layer, polys] : full.shapes)
      EXPECT_EQ(polys.size(), expected.at(layer)) << "oasis " << oasis << " layer " << layer;
    EXPECT_EQ(full.shapes.size(), expected.size());
  }
}

TEST(LayoutStream, RewindRestartsIteration) {
  for (const bool oasis : {false, true}) {
    const auto stream = stream_of(deep_library(), oasis);
    StreamCell cell;
    std::vector<std::string> first;
    while (stream->next(cell)) first.push_back(cell.name);
    stream->rewind();
    std::vector<std::string> second;
    while (stream->next(cell)) second.push_back(cell.name);
    EXPECT_EQ(first, second) << "oasis " << oasis;
  }
}

TEST(LayoutStream, ReadCellReparsesByIndex) {
  for (const bool oasis : {false, true}) {
    const auto stream = stream_of(deep_library(), oasis);
    StreamCell cell;
    std::vector<StreamCell> cells;
    while (stream->next(cell)) cells.push_back(cell);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const StreamCell again = stream->read_cell(i);
      EXPECT_EQ(again.name, cells[i].name);
      EXPECT_EQ(again.shape_counts, cells[i].shape_counts);
      EXPECT_EQ(again.refs.size(), cells[i].refs.size());
      EXPECT_EQ(again.shapes, cells[i].shapes) << "oasis " << oasis << " cell " << i;
    }
  }
}

TEST(LayoutStream, GdsStreamHasNoRefnumTable) {
  const auto stream = stream_of(sample_library(), false);
  EXPECT_THROW(stream->name_of(0), DataError);
}

TEST(LayoutStream, UnsupportedExtensionRejected) {
  EXPECT_THROW(open_layout_stream("pattern.txt"), DataError);
  EXPECT_THROW(open_layout_stream("no_extension"), DataError);
}

// ------------------------------------------------------- streamed fracture ---

TEST(StreamFracture, BitwiseIdenticalToInRamForEveryWindow) {
  const Library lib = deep_library();
  FractureOptions fopt;
  fopt.max_shot_size = 64;

  const FractureResult reference =
      fracture(lib.flatten(*lib.find_cell("TOP"), kMetal), fopt);
  ASSERT_GT(reference.shots.size(), 0u);

  for (const bool oasis : {false, true}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const auto stream = stream_of(lib, oasis);
      IngestOptions iopt;
      iopt.layer = kMetal;
      iopt.window = window;
      const StreamFractureResult r = stream_fracture(*stream, iopt, fopt);
      EXPECT_EQ(r.fracture.shots, reference.shots)
          << "oasis " << oasis << " window " << window;
      EXPECT_LE(r.ingest.peak_resident, window)
          << "oasis " << oasis << " window " << window;
      EXPECT_EQ(r.ingest.cells, 5u);
    }
  }
}

TEST(StreamFracture, WindowOneForcesReloadsLargeWindowAvoidsThem) {
  const Library lib = deep_library();
  // deep_library interleaves LEAF_A and LEAF_B under two mid cells, so a
  // window of 1 must evict and re-parse leaves; a window covering every
  // cell never parses one twice.
  for (const bool oasis : {false, true}) {
    IngestOptions iopt;
    iopt.layer = kMetal;

    iopt.window = 1;
    auto stream = stream_of(lib, oasis);
    const StreamFractureResult tight = stream_fracture(*stream, iopt, {});
    EXPECT_EQ(tight.ingest.peak_resident, 1u);
    EXPECT_GT(tight.ingest.reloads, 0u) << "oasis " << oasis;

    iopt.window = 16;
    stream = stream_of(lib, oasis);
    const StreamFractureResult roomy = stream_fracture(*stream, iopt, {});
    EXPECT_EQ(roomy.ingest.reloads, 0u) << "oasis " << oasis;
    EXPECT_EQ(roomy.ingest.cell_parses, 2u);  // only the two geometry leaves
    EXPECT_EQ(tight.fracture.shots, roomy.fracture.shots);
  }
}

TEST(StreamFracture, AutoTopDetection) {
  const auto stream = stream_of(deep_library(), true);
  IngestOptions iopt;
  iopt.layer = kMetal;  // top left empty: TOP is the only unreferenced cell
  const StreamFractureResult r = stream_fracture(*stream, iopt, {});
  EXPECT_GT(r.ingest.polygons, 0u);
}

TEST(StreamFracture, ExplicitTopSelectsSubtree) {
  const Library lib = deep_library();
  const auto stream = stream_of(lib, true);
  IngestOptions iopt;
  iopt.layer = kMetal;
  iopt.top = "MID_A";
  const StreamFractureResult r = stream_fracture(*stream, iopt, {});
  const FractureResult reference = fracture(lib.flatten(*lib.find_cell("MID_A"), kMetal));
  EXPECT_EQ(r.fracture.shots, reference.shots);
}

TEST(StreamFracture, MissingTopRejected) {
  const auto stream = stream_of(deep_library(), true);
  IngestOptions iopt;
  iopt.layer = kMetal;
  iopt.top = "NO_SUCH_CELL";
  EXPECT_THROW(stream_fracture(*stream, iopt, {}), DataError);
}

TEST(StreamFracture, AmbiguousTopRejected) {
  Library lib("TWO_TOPS");
  lib.cell(lib.add_cell("A")).add_shape(kMetal, Box{0, 0, 10, 10});
  lib.cell(lib.add_cell("B")).add_shape(kMetal, Box{20, 0, 30, 10});
  const auto stream = stream_of(lib, true);
  IngestOptions iopt;
  iopt.layer = kMetal;
  EXPECT_THROW(stream_fracture(*stream, iopt, {}), DataError);
}

TEST(StreamFracture, CollectAccumulatesFlattenedTarget) {
  const Library lib = deep_library();
  const auto stream = stream_of(lib, true);
  IngestOptions iopt;
  iopt.layer = kMetal;
  PolygonSet collected;
  stream_fracture(*stream, iopt, {}, &collected);
  const PolygonSet reference = lib.flatten(*lib.find_cell("TOP"), kMetal);
  ASSERT_EQ(collected.size(), reference.size());
  EXPECT_EQ(collected.trapezoids(), reference.trapezoids());
}

// ------------------------------------------------- layer-filtered re-reads ---
//
// A fetch keeps only the target layer and stops after the piece's last
// target shape. The files below are written record by record, so the
// target layer can come first, last or interleaved in every cell, and the
// OASIS writer leans on modal state (layer, size and point list carried
// over from off-layer records) and on repetitions, as real writers do.

constexpr LayerKey kVia{2, 0};
constexpr LayerKey kPoly{3, 1};

struct ShapeRec {
  LayerKey layer;
  Box box;                     ///< a rectangle, or the legs of a triangle
  bool triangle = false;       ///< right triangle at box.lo
  std::uint32_t copies = 1;    ///< copies along x (an OASIS repetition)
  Coord step = 0;
};

struct RefRec {
  std::string child;
  Point at;
  std::uint32_t cols = 1, rows = 1;  ///< both 1 (a placement) or both >= 2
  Point step{0, 0};                  ///< column step x, row step y
};

struct CellRec {
  std::string name;
  std::vector<ShapeRec> shapes;  ///< in file order
  std::vector<RefRec> refs;
};

std::string oasis_bytes(const std::vector<CellRec>& cells) {
  using oasis_detail::write_sint;
  using oasis_detail::write_string;
  using oasis_detail::write_uint;
  std::ostringstream os(std::ios::binary);
  os.write("%SEMI-OASIS\r\n", 13);
  os.put(1);
  write_string(os, "1.0");
  oasis_detail::write_real(os, 1000.0);
  write_uint(os, 0);
  for (int i = 0; i < 12; ++i) write_uint(os, 0);
  for (const CellRec& c : cells) {
    os.put(14);
    write_string(os, c.name);
    // Modal state, as a compressing writer keeps it: an operand equal to
    // the modal value is left out, whichever layer set it.
    std::optional<LayerKey> layer;
    std::optional<Point> size;
    std::optional<Point> legs;
    for (const ShapeRec& r : c.shapes) {
      const Point wh{static_cast<Coord>(r.box.width()), static_cast<Coord>(r.box.height())};
      std::uint8_t info = 0x18 | (r.copies > 1 ? 0x04 : 0);  // X Y [R]
      if (layer != r.layer) info |= 0x03;                    // D L
      if (r.triangle) {
        if (legs != wh) info |= 0x20;  // P
        os.put(21);
        os.put(static_cast<char>(info));
      } else {
        if (size != wh) info |= 0x60;  // W H
        os.put(20);
        os.put(static_cast<char>(info));
      }
      if (info & 0x01) {
        write_uint(os, static_cast<std::uint64_t>(r.layer.layer));
        write_uint(os, static_cast<std::uint64_t>(r.layer.datatype));
      }
      if (r.triangle && (info & 0x20)) {
        write_uint(os, 4);  // g-deltas (form 2): (w, 0), then (-w, h)
        write_uint(os, 2);
        write_uint(os, (static_cast<std::uint64_t>(wh.x) << 2) | 1u);
        write_sint(os, 0);
        write_uint(os, (static_cast<std::uint64_t>(wh.x) << 2) | 3u);
        write_sint(os, wh.y);
        legs = wh;
      } else if (!r.triangle && (info & 0x40)) {
        write_uint(os, static_cast<std::uint64_t>(wh.x));
        write_uint(os, static_cast<std::uint64_t>(wh.y));
        size = wh;
      }
      write_sint(os, r.box.lo.x);
      write_sint(os, r.box.lo.y);
      if (r.copies > 1) {
        write_uint(os, 2);  // x row
        write_uint(os, r.copies - 2);
        write_uint(os, static_cast<std::uint64_t>(r.step));
      }
      layer = r.layer;
    }
    for (const RefRec& r : c.refs) {
      const bool array = r.cols > 1;
      os.put(17);
      os.put(static_cast<char>(0xB0 | (array ? 0x08 : 0)));  // C X Y [R]
      write_string(os, r.child);
      write_sint(os, r.at.x);
      write_sint(os, r.at.y);
      if (array) {
        write_uint(os, 1);  // cols x rows matrix
        write_uint(os, r.cols - 2);
        write_uint(os, r.rows - 2);
        write_uint(os, static_cast<std::uint64_t>(r.step.x));
        write_uint(os, static_cast<std::uint64_t>(r.step.y));
      }
    }
  }
  os.put(2);
  write_string(os, std::string(252, '\0'));
  write_uint(os, 0);
  return os.str();
}

std::string gdsii_bytes(const std::vector<CellRec>& cells) {
  std::string out;
  const auto u16 = [&](std::string& p, std::uint16_t v) {
    p.push_back(static_cast<char>(v >> 8));
    p.push_back(static_cast<char>(v));
  };
  const auto i32 = [&](std::string& p, Coord v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int sh = 24; sh >= 0; sh -= 8) p.push_back(static_cast<char>(u >> sh));
  };
  const auto record = [&](std::uint16_t type, const std::string& payload = {}) {
    u16(out, static_cast<std::uint16_t>(payload.size() + 4));
    u16(out, type);
    out += payload;
  };
  const auto text = [](std::string s) {
    if (s.size() % 2) s.push_back('\0');
    return s;
  };
  const auto xy = [&](std::initializer_list<Point> pts) {
    std::string p;
    for (const Point q : pts) {
      i32(p, q.x);
      i32(p, q.y);
    }
    record(0x1003, p);
  };
  const auto i16 = [&](std::uint16_t type, std::int16_t v) {
    std::string p;
    u16(p, static_cast<std::uint16_t>(v));
    record(type, p);
  };
  i16(0x0002, 600);                          // HEADER
  record(0x0102, std::string(24, '\0'));     // BGNLIB
  record(0x0206, text("LAYERS"));            // LIBNAME
  {
    std::string units;                       // UNITS: 1e-3 um, 1e-9 m
    for (const std::uint64_t v : {gds_detail::to_gds_real(1e-3), gds_detail::to_gds_real(1e-9)})
      for (int sh = 56; sh >= 0; sh -= 8) units.push_back(static_cast<char>(v >> sh));
    record(0x0305, units);
  }
  for (const CellRec& c : cells) {
    record(0x0502, std::string(24, '\0'));   // BGNSTR
    record(0x0606, text(c.name));            // STRNAME
    for (const ShapeRec& r : c.shapes) {
      for (std::uint32_t k = 0; k < r.copies; ++k) {
        const Coord dx = r.step * static_cast<Coord>(k);
        const Box b{r.box.lo.x + dx, r.box.lo.y, r.box.hi.x + dx, r.box.hi.y};
        record(0x0800);                      // BOUNDARY
        i16(0x0D02, r.layer.layer);
        i16(0x0E02, r.layer.datatype);
        if (r.triangle)
          xy({b.lo, {b.hi.x, b.lo.y}, {b.lo.x, b.hi.y}, b.lo});
        else
          xy({b.lo, {b.hi.x, b.lo.y}, b.hi, {b.lo.x, b.hi.y}, b.lo});
        record(0x1100);                      // ENDEL
      }
    }
    for (const RefRec& r : c.refs) {
      const bool array = r.cols > 1;
      record(array ? 0x0B00 : 0x0A00);       // AREF / SREF
      record(0x1206, text(r.child));         // SNAME
      if (array) {
        std::string colrow;
        u16(colrow, static_cast<std::uint16_t>(r.cols));
        u16(colrow, static_cast<std::uint16_t>(r.rows));
        record(0x1302, colrow);
        xy({r.at, {static_cast<Coord>(r.at.x + r.step.x * Coord(r.cols)), r.at.y},
            {r.at.x, static_cast<Coord>(r.at.y + r.step.y * Coord(r.rows))}});
      } else {
        xy({r.at});
      }
      record(0x1100);
    }
    record(0x0700);                          // ENDSTR
  }
  record(0x0400);                            // ENDLIB
  return out;
}

enum class Order { first, last, interleaved };

// A leaf's shapes with the target layer (kMetal) first, last or interleaved
// with kVia and kPoly. The same target shapes appear in every order; the
// repetitions put several target shapes behind one record.
std::vector<ShapeRec> leaf_shapes(Order order, Coord dx) {
  const std::vector<ShapeRec> target = {
      {kMetal, Box{dx, 0, dx + 300, 120}, false, 4, 500},  // 4 copies: 1 record
      {kMetal, Box{dx, 400, dx + 200, 600}, true},
      {kMetal, Box{dx + 700, 400, dx + 1000, 520}},        // size of the first
  };
  const std::vector<ShapeRec> off = {
      {kVia, Box{dx, 0, dx + 300, 120}, false, 3, 250},  // sets the size modal
      {kPoly, Box{dx + 50, 800, dx + 250, 1000}, true},  // sets the point-list modal
      {kVia, Box{dx + 10, 900, dx + 60, 950}},
  };
  std::vector<ShapeRec> out;
  switch (order) {
    case Order::first:
      out = target;
      out.insert(out.end(), off.begin(), off.end());
      break;
    case Order::last:
      out = off;
      out.insert(out.end(), target.begin(), target.end());
      break;
    case Order::interleaved:
      out = {off[0], target[0], off[1], target[1], off[2], target[2], off[0]};
      break;
  }
  return out;
}

// LEAF_A and LEAF_B hold shapes in @p order; OFF_ONLY has no kMetal shape
// and is placed everywhere; MID interleaves the leaves, so a small window
// evicts and re-reads them.
std::vector<CellRec> layered_cells(Order order) {
  return {
      {"LEAF_A", leaf_shapes(order, 0), {}},
      {"LEAF_B", leaf_shapes(order, 5000), {}},
      {"OFF_ONLY", {{kVia, Box{0, 0, 100, 100}, false, 5, 200}, {kPoly, Box{0, 300, 80, 380}}}, {}},
      {"MID",
       {{kVia, Box{0, 2000, 50, 2050}}, {kMetal, Box{0, 2500, 900, 2600}}},
       {{"LEAF_A", {0, 0}}, {"OFF_ONLY", {0, 3000}}, {"LEAF_B", {0, 0}}, {"LEAF_A", {0, 4000}}}},
      {"TOP",
       {},
       {{"MID", {0, 0}, 2, 2, {12000, 10000}}, {"LEAF_B", {30000, 0}},
        {"OFF_ONLY", {30000, 5000}}, {"LEAF_A", {40000, 0}}}},
  };
}

TEST(LayerFilter, StreamedShotsMatchInRamForEveryOrderFormatAndWindow) {
  FractureOptions fopt;
  fopt.max_shot_size = 256;
  for (const Order order : {Order::first, Order::last, Order::interleaved}) {
    for (const bool oasis : {false, true}) {
      const std::vector<CellRec> cells = layered_cells(order);
      const std::string path = testing::TempDir() + "layer_filter" +
                               std::to_string(static_cast<int>(order)) +
                               (oasis ? ".oas" : ".gds");
      std::ofstream(path, std::ios::binary) << (oasis ? oasis_bytes(cells) : gdsii_bytes(cells));

      const Library lib = read_layout(path);
      const FractureResult reference = fracture(lib.flatten(*lib.find_cell("TOP"), kMetal), fopt);
      ASSERT_GT(reference.shots.size(), 0u);
      for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
        const std::string where = std::string(oasis ? "oasis" : "gdsii") + " order " +
                                  std::to_string(static_cast<int>(order)) + " window " +
                                  std::to_string(window);
        const auto stream = open_layout_stream(path);
        IngestOptions iopt;
        iopt.layer = kMetal;
        iopt.window = window;
        const StreamFractureResult r = stream_fracture(*stream, iopt, fopt);
        EXPECT_EQ(r.fracture.shots, reference.shots) << where;
        EXPECT_LE(r.ingest.peak_resident, window) << where;
        // Only LEAF_A, LEAF_B and MID hold kMetal: OFF_ONLY and TOP are
        // never re-read, whatever the window.
        EXPECT_EQ(r.ingest.cell_parses - r.ingest.reloads, 3u) << where;
        if (window == 16) EXPECT_EQ(r.ingest.cell_parses, 3u) << where;
        if (window == 1) EXPECT_GT(r.ingest.reloads, 0u) << where;
      }
    }
  }
}

TEST(LayerFilter, FilteredReadHoldsTheTargetShapesOnly) {
  for (const Order order : {Order::first, Order::last, Order::interleaved}) {
    for (const bool oasis : {false, true}) {
      const std::vector<CellRec> cells = layered_cells(order);
      const std::string bytes = oasis ? oasis_bytes(cells) : gdsii_bytes(cells);
      auto in = std::make_unique<std::stringstream>(bytes, std::ios::in | std::ios::binary);
      const auto stream = oasis ? open_oas_stream(std::move(in)) : open_gds_stream(std::move(in));
      std::vector<StreamCell> skimmed;
      for (StreamCell c; stream->next(c, /*with_geometry=*/false);) skimmed.push_back(c);
      ASSERT_EQ(skimmed.size(), cells.size());
      // LEAF_A: 4 + 1 + 1 target shapes; the repetition counts per shape.
      EXPECT_EQ(skimmed[0].shape_counts.at(kMetal), 6u);
      EXPECT_EQ(skimmed[0].shape_counts.at(kVia), order == Order::interleaved ? 7u : 4u);
      EXPECT_EQ(skimmed[2].shape_counts.count(kMetal), 0u);  // OFF_ONLY
      for (std::size_t i = 0; i < skimmed.size(); ++i) {
        const auto count = skimmed[i].shape_counts.find(kMetal);
        if (count == skimmed[i].shape_counts.end()) continue;
        const StreamCell full = stream->read_cell(i);
        const StreamCell only = stream->read_cell(i, LayerFilter{kMetal, count->second});
        ASSERT_EQ(only.shapes.size(), 1u) << skimmed[i].name;
        EXPECT_EQ(only.shapes_on(kMetal), full.shapes_on(kMetal)) << skimmed[i].name;
        EXPECT_TRUE(only.refs.empty());
        EXPECT_TRUE(only.shape_counts.empty());
      }
    }
  }
}

// ------------------------------------------------------------- pipeline ---

TEST(PipelineIngest, FileInputMatchesInRamPipeline) {
  const Library lib = deep_library();
  const std::string path = testing::TempDir() + "layout_stream_test.oas";
  write_oas(lib, path);

  PrepOptions opt;
  opt.input_path = path;
  opt.ingest.layer = kMetal;
  opt.ingest.window = 2;
  opt.fracture.max_shot_size = 64;
  const PrepResult streamed = run_data_prep(opt);

  PrepOptions ram_opt = opt;
  ram_opt.input_path.clear();
  const PrepResult in_ram =
      run_data_prep(lib, *lib.find_cell("TOP"), kMetal, ram_opt);

  EXPECT_EQ(streamed.shots, in_ram.shots);
  ASSERT_TRUE(streamed.ingest.has_value());
  EXPECT_LE(streamed.ingest->peak_resident, 2u);
  EXPECT_FALSE(in_ram.ingest.has_value());

  // The front stage is reported as "ingest" instead of "fracture".
  bool saw_ingest = false;
  for (const StageTime& s : streamed.stage_times) {
    EXPECT_NE(s.name, "fracture");
    if (s.name == "ingest") saw_ingest = true;
  }
  EXPECT_TRUE(saw_ingest);
}

TEST(PipelineIngest, GdsInputWorksToo) {
  const Library lib = sample_library();
  const std::string path = testing::TempDir() + "layout_stream_test.gds";
  write_gds(lib, path);

  PrepOptions opt;
  opt.input_path = path;
  opt.ingest.layer = kMetal;
  const PrepResult streamed = run_data_prep(opt);

  PrepOptions ram_opt = opt;
  ram_opt.input_path.clear();
  const PrepResult in_ram =
      run_data_prep(lib, *lib.find_cell("TOP"), kMetal, ram_opt);
  EXPECT_EQ(streamed.shots, in_ram.shots);
}

TEST(PipelineIngest, MissingLayerRejected) {
  const Library lib = sample_library();
  const std::string path = testing::TempDir() + "layout_stream_empty.oas";
  write_oas(lib, path);
  PrepOptions opt;
  opt.input_path = path;
  opt.ingest.layer = LayerKey{99, 0};
  EXPECT_THROW(run_data_prep(opt), DataError);
}

}  // namespace
}  // namespace ebl
