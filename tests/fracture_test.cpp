// Tests for the fracturing engine, shot splitting and EBF records.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/patterns.h"
#include "fracture/ebf.h"
#include "fracture/fracture.h"
#include "geom/curves.h"
#include "layout/library.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace ebl {
namespace {

PolygonSet l_shape() {
  PolygonSet s;
  s.insert(SimplePolygon{{{0, 0}, {2000, 0}, {2000, 1000}, {1000, 1000},
                          {1000, 2000}, {0, 2000}}});
  return s;
}

TEST(Fracture, RectangleSingleShot) {
  PolygonSet s;
  s.insert(Box{0, 0, 500, 300});
  const FractureResult r = fracture(s);
  ASSERT_EQ(r.shots.size(), 1u);
  EXPECT_EQ(r.stats.rectangles, 1u);
  EXPECT_DOUBLE_EQ(r.stats.area, 150000.0);
  EXPECT_DOUBLE_EQ(r.shots[0].dose, 1.0);
}

TEST(Fracture, LShapeTwoFigures) {
  const FractureResult r = fracture(l_shape());
  EXPECT_EQ(r.shots.size(), 2u);
  EXPECT_DOUBLE_EQ(r.stats.area, 3000000.0);  // 2*1 + 1*1 (in 1000² units)
}

TEST(Fracture, AreaConservedOnCurvedInput) {
  PolygonSet s;
  s.insert(circle({0, 0}, 50000, 2.0));
  const FractureResult r = fracture(s);
  const double poly_area = s.area();
  EXPECT_NEAR(r.stats.area, poly_area, poly_area * 1e-4);
  EXPECT_GT(r.stats.triangles, 0u);
}

TEST(Fracture, StrategiesAgreeOnArea) {
  Rng rng(5);
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 20000, 20000}, 0.3, 200, 3000);
  const double merged_area =
      fracture(s, {.strategy = FractureStrategy::merged_traps}).stats.area;
  const double bands_area = fracture(s, {.strategy = FractureStrategy::bands}).stats.area;
  const double rect_area =
      fracture(s, {.strategy = FractureStrategy::rectangles}).stats.area;
  EXPECT_DOUBLE_EQ(merged_area, bands_area);
  EXPECT_DOUBLE_EQ(merged_area, rect_area);
}

TEST(Fracture, MergedStrategyNeverMoreFigures) {
  Rng rng(6);
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 30000, 30000}, 0.25, 300, 4000);
  const auto merged = fracture(s, {.strategy = FractureStrategy::merged_traps});
  const auto bands = fracture(s, {.strategy = FractureStrategy::bands});
  EXPECT_LE(merged.stats.figures, bands.stats.figures);
  EXPECT_LT(merged.stats.figures, bands.stats.figures);  // real merging happens
}

TEST(Fracture, RectanglesStrategyRejectsAllAngle) {
  PolygonSet s;
  s.insert(SimplePolygon{{{0, 0}, {1000, 0}, {0, 1000}}});
  EXPECT_THROW(fracture(s, {.strategy = FractureStrategy::rectangles}), DataError);
}

TEST(Fracture, MaxShotSizeSplitsRect) {
  PolygonSet s;
  s.insert(Box{0, 0, 1000, 1000});
  const FractureResult r = fracture(s, {.max_shot_size = 300});
  // ceil(1000/300) = 4 columns x 4 rows.
  EXPECT_EQ(r.stats.shots, 16u);
  EXPECT_DOUBLE_EQ(r.stats.area, 1e6);
  for (const Shot& shot : r.shots) {
    const Box bb = shot.shape.bbox();
    EXPECT_LE(bb.width(), 300);
    EXPECT_LE(bb.height(), 300);
  }
}

TEST(Fracture, SliverCounting) {
  PolygonSet s;
  s.insert(Box{0, 0, 10000, 5});      // 5 dbu tall sliver
  s.insert(Box{0, 100, 10000, 1100}); // healthy
  const FractureResult r = fracture(s, {.sliver_threshold = 20});
  EXPECT_EQ(r.stats.slivers, 1u);
}

TEST(SplitToMaxSize, TriangleStaysTrapezoidsAndConservesArea) {
  const Trapezoid tri{0, 1000, 0, 1000, 0, 0};  // right triangle
  const auto pieces = split_to_max_size(tri, 256);
  double area = 0.0;
  for (const auto& p : pieces) {
    EXPECT_TRUE(p.valid());
    const Box bb = p.bbox();
    EXPECT_LE(bb.width(), 256);
    EXPECT_LE(bb.height(), 256);
    area += p.area();
  }
  EXPECT_NEAR(area, tri.area(), tri.area() * 0.01);  // grid-rounded cuts
}

TEST(SplitToMaxSize, NoSplitWhenSmall) {
  const Trapezoid t{0, 100, 0, 100, 0, 100};
  const auto pieces = split_to_max_size(t, 100);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], t);
}

TEST(ClipTrapezoid, InsideOutsidePartial) {
  const Trapezoid t{0, 100, 0, 200, 0, 200};
  EXPECT_TRUE(clip_trapezoid(t, Box{300, 300, 400, 400}).empty());
  const auto whole = clip_trapezoid(t, Box{-10, -10, 500, 500});
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], t);
  const auto half = clip_trapezoid(t, Box{0, 0, 100, 100});
  double area = 0.0;
  for (const auto& p : half) area += p.area();
  EXPECT_DOUBLE_EQ(area, 100.0 * 100.0);
}

TEST(ClipTrapezoid, SlantedCutConservesArea) {
  const Trapezoid t{0, 1000, 0, 2000, 500, 1500};
  const Box left{0, 0, 700, 1000};
  const Box right{700, 0, 2000, 1000};
  double area = 0.0;
  for (const auto& p : clip_trapezoid(t, left)) area += p.area();
  for (const auto& p : clip_trapezoid(t, right)) area += p.area();
  EXPECT_NEAR(area, t.area(), 2.0);
}

TEST(Shot, AreaHelpers) {
  ShotList shots{{Trapezoid::rect(Box{0, 0, 10, 10}), 1.0},
                 {Trapezoid::rect(Box{20, 0, 30, 10}), 2.0}};
  EXPECT_DOUBLE_EQ(shot_area(shots), 200.0);
  EXPECT_DOUBLE_EQ(shot_charge_area(shots), 300.0);
}

TEST(Ebf, RoundTrip) {
  EbfFile f;
  f.field = Box{0, 0, 100000, 100000};
  f.shots.push_back({Trapezoid{0, 50, 10, 90, 20, 80}, 1.25});
  f.shots.push_back({Trapezoid::rect(Box{100, 100, 200, 160}), 0.75});

  std::stringstream buf;
  write_ebf(f, buf);
  const EbfFile back = read_ebf(buf);
  ASSERT_TRUE(back.field.has_value());
  EXPECT_EQ(back.field->width(), 100000);
  ASSERT_EQ(back.shots.size(), 2u);
  EXPECT_EQ(back.shots[0].shape, f.shots[0].shape);
  EXPECT_DOUBLE_EQ(back.shots[0].dose, 1.25);
  EXPECT_EQ(back.shots[1].shape, f.shots[1].shape);
}

TEST(Ebf, RejectsMalformed) {
  std::stringstream bad1("EBF2\nend\n");
  EXPECT_THROW(read_ebf(bad1), DataError);
  std::stringstream bad2("EBF1\nshot 0 0 0 0 0 0 1\nend\n");  // zero-height shot
  EXPECT_THROW(read_ebf(bad2), DataError);
  std::stringstream bad3("EBF1\nshot 0 10 0 10 0 10 1\n");  // missing end
  EXPECT_THROW(read_ebf(bad3), DataError);
  std::stringstream bad4("EBF1\nbogus\nend\n");
  EXPECT_THROW(read_ebf(bad4), DataError);
}

// Property sweep: fracture conserves area across strategies and seeds.
class FractureProperty : public ::testing::TestWithParam<int> {};

TEST_P(FractureProperty, AreaConservation) {
  Rng rng(100 + GetParam());
  const PolygonSet s = random_manhattan(rng, Box{0, 0, 10000, 10000}, 0.4, 100, 2000);
  const double merged_region_area = s.area();
  for (const auto strategy :
       {FractureStrategy::bands, FractureStrategy::merged_traps}) {
    FractureOptions opt;
    opt.strategy = strategy;
    const FractureResult r = fracture(s, opt);
    EXPECT_NEAR(r.stats.area, merged_region_area, 1e-6) << "seed " << GetParam();
  }
  // With shot splitting the area may shift by rounded cut lines only.
  FractureOptions split_opt;
  split_opt.max_shot_size = 750;
  const FractureResult r = fracture(s, split_opt);
  EXPECT_NEAR(r.stats.area, merged_region_area, merged_region_area * 1e-3);
  EXPECT_GE(r.stats.shots, r.stats.figures);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FractureProperty, ::testing::Range(0, 6));

// The merge in front of fracture runs on the pipeline's threads. A layout
// with enough overlapping boxes and triangles that both the boolean's pair
// tests and its band sweep split into parallel parts at 4 threads gives the
// same shots through the streamed and the in-RAM path, at 1 and 4 threads.
TEST(Fracture, StreamedAndInRamShotsAgreeAtOneAndFourThreads) {
  constexpr LayerKey kLayer{1, 0};
  Library lib("SOUP");
  const CellId leaf = lib.add_cell("LEAF");
  Rng rng(31);
  for (int i = 0; i < 600; ++i) {
    const Point a{static_cast<Coord>(rng.uniform(0, 12000)),
                  static_cast<Coord>(rng.uniform(0, 12000))};
    const Point b = a + Point{static_cast<Coord>(rng.uniform(50, 900)),
                              static_cast<Coord>(rng.uniform(50, 900))};
    if (i % 3 != 0) {
      lib.cell(leaf).add_shape(kLayer, Box{a, b});
    } else {
      lib.cell(leaf).add_shape(kLayer, SimplePolygon{{a, {b.x, a.y}, {a.x, b.y}}});
    }
  }
  const CellId top = lib.add_cell("TOP");
  Reference grid;
  grid.child = leaf;
  grid.cols = 2;
  grid.rows = 2;
  grid.col_step = {9000, 0};
  grid.row_step = {0, 9000};
  lib.cell(top).add_reference(grid);
  Reference turned;
  turned.child = leaf;
  turned.trans = CTrans{Point{20000, 4000}, 90.0, 1.0, false};
  lib.cell(top).add_reference(turned);

  FractureOptions fopt;
  fopt.max_shot_size = 2000;
  const PolygonSet flat = lib.flatten(top, kLayer);
  const FractureResult reference = fracture(flat, fopt, 1);
  ASSERT_GT(reference.shots.size(), 1000u);
  IngestOptions iopt;
  iopt.layer = kLayer;
  for (const int threads : {1, 4}) {
    EXPECT_EQ(fracture(flat, fopt, threads).shots, reference.shots) << "threads " << threads;
    auto oas = std::make_unique<std::stringstream>(std::ios::in | std::ios::out |
                                                   std::ios::binary);
    write_oas(lib, *oas);
    const auto stream = open_oas_stream(std::move(oas));
    const StreamFractureResult streamed = stream_fracture(*stream, iopt, fopt, nullptr, threads);
    EXPECT_EQ(streamed.fracture.shots, reference.shots) << "threads " << threads;
  }
}

}  // namespace
}  // namespace ebl
