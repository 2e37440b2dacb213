// Tests for the area-coverage rasterizer.
#include <gtest/gtest.h>

#include <limits>

#include "geom/raster.h"
#include "util/contracts.h"

namespace ebl {
namespace {

TEST(Raster, GridSizingAndIndexing) {
  Raster r(Box{0, 0, 1000, 500}, 100);
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.center(0, 0), Point(50, 50));
  EXPECT_EQ(r.index_of(Point{250, 250}), (std::pair{2, 2}));
  EXPECT_EQ(r.index_of(Point{-100, 9999}), (std::pair{0, 4}));  // clamped
}

TEST(Raster, PartialPixelFrameRoundsUp) {
  Raster r(Box{0, 0, 1050, 100}, 100);
  EXPECT_EQ(r.width(), 11);
  EXPECT_EQ(r.height(), 1);
}

TEST(Raster, FullCoverageOfAlignedRect) {
  Raster r(Box{0, 0, 400, 400}, 100);
  r.add_coverage(Trapezoid::rect(Box{0, 0, 400, 400}));
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) EXPECT_DOUBLE_EQ(r.at(x, y), 1.0);
  }
  EXPECT_DOUBLE_EQ(r.sum(), 16.0);
  EXPECT_DOUBLE_EQ(r.max_value(), 1.0);
}

TEST(Raster, HalfPixelCoverage) {
  Raster r(Box{0, 0, 200, 100}, 100);
  r.add_coverage(Trapezoid::rect(Box{0, 0, 150, 100}));
  EXPECT_DOUBLE_EQ(r.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 0.5);
}

TEST(Raster, TriangleCoverageIsExact) {
  Raster r(Box{0, 0, 100, 100}, 100);
  // Right triangle covering half the single pixel.
  r.add_coverage(Trapezoid{0, 100, 0, 100, 0, 0});
  EXPECT_DOUBLE_EQ(r.at(0, 0), 0.5);
}

TEST(Raster, CoverageSumsAreaInvariant) {
  Raster r(Box{-500, -500, 1500, 1500}, 64);
  const Trapezoid t{13, 977, -240, 311, 52, 845};
  r.add_coverage(t, 1.0);
  const double pixel_area = 64.0 * 64.0;
  EXPECT_NEAR(r.sum() * pixel_area, t.area(), 1.0);
}

TEST(Raster, WeightScalesAccumulation) {
  Raster r(Box{0, 0, 100, 100}, 100);
  r.add_coverage(Trapezoid::rect(Box{0, 0, 100, 100}), 2.5);
  r.add_coverage(Trapezoid::rect(Box{0, 0, 100, 100}), 0.5);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 3.0);
}

TEST(Raster, OutsideGeometryIgnored) {
  Raster r(Box{0, 0, 100, 100}, 100);
  r.add_coverage(Trapezoid::rect(Box{500, 500, 600, 600}));
  EXPECT_DOUBLE_EQ(r.sum(), 0.0);
}

TEST(Raster, InvalidConstructionRejected) {
  EXPECT_THROW(Raster(Box{0, 0, 10, 10}, 0), ContractViolation);
  EXPECT_THROW(Raster(Box{}, 10), ContractViolation);
}

TEST(Raster, FrameWiderThanIntMaxPixelsIsRejected) {
  // 2^32 - 1 pixels on x: the count must not wrap to a 1-pixel raster.
  constexpr Coord lo = std::numeric_limits<Coord>::min();
  constexpr Coord hi = std::numeric_limits<Coord>::max();
  EXPECT_THROW(Raster(Box{lo, 0, hi, 1}, 1), DataError);
  EXPECT_THROW(Raster(Box{0, lo, 1, hi}, 1), DataError);
  // The same frame at a pixel that brings the count into range is fine.
  const Raster r(Box{lo, 0, hi, 1}, 1 << 16);
  EXPECT_EQ(r.width(), 1 << 16);
  EXPECT_EQ(r.height(), 1);
}

TEST(Raster, SampleFarOutsideTheGridIsZero) {
  // Points billions of pixels away have no pixel among their neighbours:
  // they read 0 instead of casting an out-of-range floor to int.
  Raster r(Box{0, 0, 100, 100}, 1);
  for (double& v : r.data()) v = 1.0;
  EXPECT_EQ(r.sample(50.0, 50.0), 1.0);
  EXPECT_EQ(r.sample(4e9, 50.0), 0.0);
  EXPECT_EQ(r.sample(-4e9, 50.0), 0.0);
  EXPECT_EQ(r.sample(50.0, 4e9), 0.0);
  EXPECT_EQ(r.sample(50.0, -4e9), 0.0);
  // One pixel past the edge, half a corner still lies on the grid.
  EXPECT_EQ(r.sample(100.0, 50.0), 0.5);
  EXPECT_EQ(r.sample(0.0, 50.0), 0.5);
  EXPECT_EQ(r.sample(-0.5, 50.0), 0.0);
}

TEST(Raster, AtBoundsChecked) {
  Raster r(Box{0, 0, 100, 100}, 100);
  EXPECT_THROW(r.at(1, 0), ContractViolation);
  EXPECT_THROW(r.at(0, -1), ContractViolation);
}

}  // namespace
}  // namespace ebl
