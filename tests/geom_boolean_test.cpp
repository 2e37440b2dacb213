// Tests for the scanline boolean engine, trapezoid decomposition and
// polygon stitching — the correctness core of the toolkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "fracture/fracture.h"
#include "geom/boolean.h"
#include "geom/polygon_set.h"
#include "util/rng.h"

namespace ebl {
namespace {

double traps_area(const std::vector<Trapezoid>& traps) {
  double a = 0.0;
  for (const auto& t : traps) a += t.area();
  return a;
}

double polys_area(const std::vector<Polygon>& polys) {
  double a = 0.0;
  for (const auto& p : polys) a += p.area();
  return a;
}

bool any_trap_contains(const std::vector<Trapezoid>& traps, Point p) {
  return std::any_of(traps.begin(), traps.end(),
                     [&](const Trapezoid& t) { return t.contains(p); });
}

TEST(Boolean, SingleRectangleIdentity) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 100, 50});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{0, 0, 100, 50}));
}

TEST(Boolean, DisjointRectanglesStayDisjoint) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{20, 20, 30, 30});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_EQ(traps.size(), 2u);
  EXPECT_DOUBLE_EQ(traps_area(traps), 200.0);
}

TEST(Boolean, OverlappingUnionArea) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{5, 5, 15, 15});
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Or)), 175.0);
}

TEST(Boolean, IntersectionOfOverlap) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10}, 0);
  eng.add(Box{5, 5, 15, 15}, 1);
  const auto traps = eng.trapezoids(BoolOp::And);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{5, 5, 10, 10}));
}

TEST(Boolean, SubtractionPunchesHole) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 30, 30}, 0);
  eng.add(Box{10, 10, 20, 20}, 1);
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Sub)), 800.0);
  const auto polys = eng.polygons(BoolOp::Sub);
  ASSERT_EQ(polys.size(), 1u);
  ASSERT_EQ(polys[0].holes().size(), 1u);
  EXPECT_DOUBLE_EQ(polys[0].area(), 800.0);
  EXPECT_FALSE(polys[0].contains({15, 15}));
  EXPECT_TRUE(polys[0].contains({5, 15}));
}

TEST(Boolean, XorIsSymmetricDifference) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10}, 0);
  eng.add(Box{5, 5, 15, 15}, 1);
  EXPECT_DOUBLE_EQ(traps_area(eng.trapezoids(BoolOp::Xor)), 150.0);
}

TEST(Boolean, TouchingRectanglesFuse) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{10, 0, 20, 10});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);
  EXPECT_EQ(traps[0], Trapezoid::rect(Box{0, 0, 20, 10}));
}

TEST(Boolean, VerticallyStackedRectanglesMerge) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 10, 10});
  eng.add(Box{0, 10, 10, 20});
  const auto merged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/true);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], Trapezoid::rect(Box{0, 0, 10, 20}));
  const auto unmerged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/false);
  EXPECT_EQ(unmerged.size(), 2u);
}

TEST(Boolean, TriangleDecomposes) {
  BooleanEngine eng;
  eng.add(SimplePolygon{{{0, 0}, {100, 0}, {0, 100}}});
  const auto traps = eng.trapezoids(BoolOp::Or);
  ASSERT_EQ(traps.size(), 1u);  // single trapezoid band (degenerate top)
  EXPECT_DOUBLE_EQ(traps_area(traps), 5000.0);
}

TEST(Boolean, CrossingRectanglesUnion) {
  // A plus-sign from two crossing bars.
  BooleanEngine eng;
  eng.add(Box{-30, -10, 30, 10});
  eng.add(Box{-10, -30, 10, 30});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_DOUBLE_EQ(traps_area(traps), 60.0 * 20.0 + 2.0 * 20.0 * 20.0);
  const auto polys = eng.polygons(BoolOp::Or);
  ASSERT_EQ(polys.size(), 1u);
  EXPECT_EQ(polys[0].outer().size(), 12u);
  EXPECT_TRUE(polys[0].holes().empty());
}

TEST(Boolean, DiagonalSquaresCross) {
  // Two 45-degree rotated squares overlapping -> eight-pointed star union.
  const SimplePolygon d1{{{0, -20}, {20, 0}, {0, 20}, {-20, 0}}};
  const SimplePolygon d2{{{10, -20}, {30, 0}, {10, 20}, {-10, 0}}};
  BooleanEngine eng;
  eng.add(d1, 0);
  eng.add(d2, 1);
  const double a1 = 2.0 * 20.0 * 20.0;  // diamond area = d^2/2 with d=40
  const auto uni = eng.trapezoids(BoolOp::Or);
  const auto inter = eng.trapezoids(BoolOp::And);
  const auto x = eng.trapezoids(BoolOp::Xor);
  // Inclusion-exclusion: |A|+|B| = |A∪B| + |A∩B| ; |XOR| = |A∪B| - |A∩B|.
  EXPECT_NEAR(traps_area(uni) + traps_area(inter), 2 * a1, 3.0);
  EXPECT_NEAR(traps_area(x), traps_area(uni) - traps_area(inter), 3.0);
}

TEST(Boolean, SelfIntersectingContourUsesWinding) {
  // A bowtie: two triangles sharing only the crossing point.
  const SimplePolygon bowtie{{{0, 0}, {20, 20}, {20, 0}, {0, 20}}};
  BooleanEngine eng;
  eng.add(bowtie);
  const auto traps = eng.trapezoids(BoolOp::Or);
  // Nonzero winding fills both wings: total area = 2 * (1/4 of 20x20) = 200.
  EXPECT_NEAR(traps_area(traps), 200.0, 1.0);
}

TEST(Boolean, HoleViaPolygonInput) {
  BooleanEngine eng;
  eng.add(Polygon{SimplePolygon::rect(0, 0, 40, 40), {SimplePolygon::rect(10, 10, 30, 30)}});
  const auto traps = eng.trapezoids(BoolOp::Or);
  EXPECT_DOUBLE_EQ(traps_area(traps), 1600.0 - 400.0);
  EXPECT_FALSE(any_trap_contains(traps, {20, 20}));
  EXPECT_TRUE(any_trap_contains(traps, {5, 20}));
}

TEST(Boolean, NestedHoleIsland) {
  // Ring with an island inside the hole.
  BooleanEngine eng;
  eng.add(Polygon{SimplePolygon::rect(0, 0, 100, 100),
                  {SimplePolygon::rect(20, 20, 80, 80)}});
  eng.add(Box{40, 40, 60, 60});
  const auto polys = eng.polygons(BoolOp::Or);
  ASSERT_EQ(polys.size(), 2u);
  EXPECT_DOUBLE_EQ(polys_area(polys), 10000.0 - 3600.0 + 400.0);
}

TEST(Boolean, EmptyInputsAndEmptyResults) {
  BooleanEngine eng;
  EXPECT_TRUE(eng.trapezoids(BoolOp::Or).empty());
  eng.add(Box{0, 0, 10, 10}, 0);
  EXPECT_TRUE(eng.trapezoids(BoolOp::And).empty());  // nothing in group B
  EXPECT_TRUE(eng.polygons(BoolOp::And).empty());
  // A \ A = empty.
  BooleanEngine eng2;
  eng2.add(Box{0, 0, 10, 10}, 0);
  eng2.add(Box{0, 0, 10, 10}, 1);
  EXPECT_TRUE(eng2.trapezoids(BoolOp::Sub).empty());
}

TEST(Boolean, StitchRoundTripPreservesArea) {
  BooleanEngine eng;
  eng.add(Box{0, 0, 50, 20});
  eng.add(SimplePolygon{{{10, 5}, {60, 5}, {60, 40}, {35, 60}}});
  eng.add(Box{-20, -20, 5, 5});
  const auto traps = eng.trapezoids(BoolOp::Or);
  const auto polys = eng.polygons(BoolOp::Or);
  EXPECT_NEAR(polys_area(polys), traps_area(traps), 1.0);

  // Re-run the reconstructed polygons through the engine: area must be stable.
  BooleanEngine eng2;
  for (const auto& p : polys) eng2.add(p);
  EXPECT_NEAR(traps_area(eng2.trapezoids(BoolOp::Or)), traps_area(traps), 1.0);
}

TEST(PolygonSet, OperatorsComposeAndAgreeWithContains) {
  PolygonSet a;
  a.insert(Box{0, 0, 100, 100});
  PolygonSet b;
  b.insert(Box{50, 50, 150, 150});

  EXPECT_DOUBLE_EQ(a.united(b).area(), 17500.0);
  EXPECT_DOUBLE_EQ(a.intersected(b).area(), 2500.0);
  EXPECT_DOUBLE_EQ(a.subtracted(b).area(), 7500.0);
  EXPECT_DOUBLE_EQ(a.xored(b).area(), 15000.0);

  const PolygonSet u = a.united(b);
  EXPECT_TRUE(u.contains({25, 25}));
  EXPECT_TRUE(u.contains({125, 125}));
  EXPECT_FALSE(u.contains({125, 25}));
}

TEST(PolygonSet, MergedDissolvesOverlap) {
  PolygonSet s;
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{5, 0, 15, 10});
  EXPECT_DOUBLE_EQ(s.raw_area(), 300.0);
  EXPECT_DOUBLE_EQ(s.area(), 150.0);
  const PolygonSet m = s.merged();
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.raw_area(), 150.0);
}

TEST(Sizing, GrowRectangle) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 100});
  const PolygonSet g = s.sized(10);
  EXPECT_DOUBLE_EQ(g.area(), 120.0 * 120.0);
  EXPECT_EQ(g.bbox(), Box(-10, -10, 110, 110));
}

TEST(Sizing, ShrinkRectangle) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 100});
  const PolygonSet g = s.sized(-10);
  EXPECT_DOUBLE_EQ(g.area(), 80.0 * 80.0);
  EXPECT_EQ(g.bbox(), Box(10, 10, 90, 90));
}

TEST(Sizing, ShrinkBelowWidthVanishes) {
  PolygonSet s;
  s.insert(Box{0, 0, 100, 15});
  EXPECT_DOUBLE_EQ(s.sized(-10).area(), 0.0);
}

TEST(Sizing, GrowMergesNeighbors) {
  PolygonSet s;
  s.insert(Box{0, 0, 10, 10});
  s.insert(Box{14, 0, 24, 10});   // 4 dbu gap, grow by 3 bridges it
  const PolygonSet g = s.sized(3);
  EXPECT_EQ(g.merged().size(), 1u);
}

TEST(Sizing, GrowFillsSmallHole) {
  PolygonSet s;
  s.insert(Polygon{SimplePolygon::rect(0, 0, 100, 100),
                   {SimplePolygon::rect(48, 48, 52, 52)}});
  const PolygonSet g = s.sized(5);
  // Hole half-width is 2 < 5: it must be swallowed, not resurrected (a
  // phantom 6x6 hole would lose 36 dbu²). Sub-dbu snapping slivers from the
  // cancelled inverted contour may cost a couple of dbu².
  EXPECT_NEAR(g.area(), 110.0 * 110.0, 8.0);
}

TEST(Sizing, GrowShrinkRoundTripOnFatShape) {
  PolygonSet s;
  s.insert(Box{0, 0, 200, 200});
  const PolygonSet rt = s.sized(17).sized(-17);
  EXPECT_NEAR(rt.area(), 200.0 * 200.0, 1.0);
}

// ---------------------------------------------------------------------------
// Property-style randomized sweeps.
// ---------------------------------------------------------------------------

class BooleanRandomRects : public ::testing::TestWithParam<int> {};

TEST_P(BooleanRandomRects, InclusionExclusionAndPointOracle) {
  Rng rng(1234 + GetParam());
  const int n = 12;
  std::vector<Box> group_a;
  std::vector<Box> group_b;
  BooleanEngine eng;
  for (int i = 0; i < n; ++i) {
    const Coord x = static_cast<Coord>(rng.uniform(-500, 500));
    const Coord y = static_cast<Coord>(rng.uniform(-500, 500));
    const Coord w = static_cast<Coord>(rng.uniform(1, 400));
    const Coord h = static_cast<Coord>(rng.uniform(1, 400));
    const Box box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)};
    const int g = static_cast<int>(rng.uniform(0, 1));
    eng.add(box, g);
    (g == 0 ? group_a : group_b).push_back(box);
  }

  const auto uni = eng.trapezoids(BoolOp::Or);
  const auto inter = eng.trapezoids(BoolOp::And);
  const auto sub = eng.trapezoids(BoolOp::Sub);
  const auto x = eng.trapezoids(BoolOp::Xor);

  // Area identities (exact for integer rect inputs).
  EXPECT_DOUBLE_EQ(traps_area(x), traps_area(uni) - traps_area(inter));
  EXPECT_DOUBLE_EQ(traps_area(sub) + traps_area(inter),
                   traps_area(uni) - (traps_area(x) - traps_area(sub)));

  // Point-sampling oracle against brute-force box membership.
  for (int k = 0; k < 300; ++k) {
    const Point p{static_cast<Coord>(rng.uniform(-600, 1000)),
                  static_cast<Coord>(rng.uniform(-600, 1000))};
    const bool in_a = std::any_of(group_a.begin(), group_a.end(),
                                  [&](const Box& b) { return b.contains(p); });
    const bool in_b = std::any_of(group_b.begin(), group_b.end(),
                                  [&](const Box& b) { return b.contains(p); });
    // Skip points on any boundary: closed-set semantics differ there.
    bool boundary = false;
    for (const Box& b : group_a)
      if (b.contains(p) && (p.x == b.lo.x || p.x == b.hi.x || p.y == b.lo.y || p.y == b.hi.y))
        boundary = true;
    for (const Box& b : group_b)
      if (b.contains(p) && (p.x == b.lo.x || p.x == b.hi.x || p.y == b.lo.y || p.y == b.hi.y))
        boundary = true;
    if (boundary) continue;

    EXPECT_EQ(any_trap_contains(uni, p), in_a || in_b) << "union @" << p;
    EXPECT_EQ(any_trap_contains(inter, p), in_a && in_b) << "and @" << p;
    EXPECT_EQ(any_trap_contains(sub, p), in_a && !in_b) << "sub @" << p;
    EXPECT_EQ(any_trap_contains(x, p), in_a != in_b) << "xor @" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanRandomRects, ::testing::Range(0, 8));

class BooleanRandomPolys : public ::testing::TestWithParam<int> {};

TEST_P(BooleanRandomPolys, StitchAgreesWithTrapezoidsOnRandomAllAngle) {
  Rng rng(777 + GetParam());
  BooleanEngine eng;
  for (int i = 0; i < 10; ++i) {
    // Random triangles (possibly degenerate-ish, all angles).
    const Point a{static_cast<Coord>(rng.uniform(-400, 400)),
                  static_cast<Coord>(rng.uniform(-400, 400))};
    const Point b = a + Point{static_cast<Coord>(rng.uniform(-200, 200)),
                              static_cast<Coord>(rng.uniform(-200, 200))};
    const Point c = a + Point{static_cast<Coord>(rng.uniform(-200, 200)),
                              static_cast<Coord>(rng.uniform(-200, 200))};
    if (cross(a, b, c) == 0) continue;
    eng.add(SimplePolygon{{a, b, c}});
  }
  // Compare against the UNMERGED bands: stitching reconstructs exactly the
  // rounded band geometry, while the merged trapezoids reunite bands split
  // by foreign events and are closer to the exact area (less rounding).
  const auto traps = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/false);
  const auto polys = eng.polygons(BoolOp::Or);
  // Grid snapping may shift each boundary crossing by <= 0.5 dbu; allow a
  // tolerance proportional to total perimeter.
  double perim = 0.0;
  for (const auto& p : polys) perim += p.outer().perimeter();
  EXPECT_NEAR(polys_area(polys), traps_area(traps), 2.0 + perim * 0.01);
  // The merged decomposition conserves area at least as well (it can only
  // remove rounded interior boundaries, never add error).
  const auto merged = eng.trapezoids(BoolOp::Or, /*merge_vertical=*/true);
  EXPECT_NEAR(traps_area(merged), traps_area(traps), 4.0 + perim * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanRandomPolys, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Differential tests on degenerate soups: collinear overlaps, shared and
// touching vertices, zero-area contours, one shape spanning the whole
// extent, and coordinates next to the ends of the 32-bit grid.
// ---------------------------------------------------------------------------

Wide doubled_area(const std::vector<Trapezoid>& traps) {
  Wide a = 0;
  for (const Trapezoid& t : traps) a += t.doubled_area();
  return a;
}

Wide doubled_area(const ShotList& shots) {
  Wide a = 0;
  for (const Shot& s : shots) a += s.shape.doubled_area();
  return a;
}

// Where a soup sits on the 32-bit grid. The lattice soups span
// kLattice * kCells dbu from their origin.
constexpr Coord kLattice = 10;
constexpr int kCells = 12;
constexpr Coord kMin = std::numeric_limits<Coord>::min();
constexpr Coord kMax = std::numeric_limits<Coord>::max();
constexpr Coord kFar = kLattice * kCells + 1;
const Point kOrigins[] = {{0, 0}, {kMax - kFar, kMax - kFar}, {kMin, kMin}, {kMin, kMax - kFar}};

struct ManhattanSoup {
  std::vector<Box> boxes[2];
};

// Boxes on a coarse lattice (so edges overlap collinearly and corners are
// shared or touch), a zero-width and a zero-height box, and one box whose
// bottom edge spans the whole extent; with @p huge that box runs from one
// end of the grid to the other.
ManhattanSoup lattice_boxes(Rng& rng, Point origin, bool huge) {
  ManhattanSoup soup;
  const auto at = [&](int cx, int cy) {
    return Point{static_cast<Coord>(origin.x + kLattice * cx),
                 static_cast<Coord>(origin.y + kLattice * cy)};
  };
  for (int i = 0; i < 14; ++i) {
    const int x = static_cast<int>(rng.uniform(0, kCells - 1));
    const int y = static_cast<int>(rng.uniform(0, kCells - 1));
    const int w = static_cast<int>(rng.uniform(1, kCells - x));
    const int h = static_cast<int>(rng.uniform(1, kCells - y));
    soup.boxes[rng.uniform(0, 1)].push_back(Box{at(x, y), at(x + w, y + h)});
  }
  soup.boxes[0].push_back(Box{at(3, 2), at(3, 9)});  // zero width
  soup.boxes[1].push_back(Box{at(1, 5), at(8, 5)});  // zero height
  const Box span = huge ? Box{kMin, at(0, 4).y, kMax, at(0, 5).y} : Box{at(0, 4), at(kCells, 5)};
  soup.boxes[rng.uniform(0, 1)].push_back(span);
  return soup;
}

// Expected result of @p op on one compressed-grid cell.
bool op_inside(BoolOp op, bool a, bool b) {
  switch (op) {
    case BoolOp::Or: return a || b;
    case BoolOp::And: return a && b;
    case BoolOp::Sub: return a && !b;
    case BoolOp::Xor: return a != b;
  }
  return false;
}

class BooleanDegenerateSoups : public ::testing::TestWithParam<int> {};

TEST_P(BooleanDegenerateSoups, ManhattanLatticeIsExact) {
  Rng rng(4242 + GetParam());
  const bool huge = GetParam() % 5 == 4;
  const ManhattanSoup soup = lattice_boxes(rng, kOrigins[GetParam() % 4], huge);

  BooleanEngine eng;
  BooleanEngine only[2];
  PolygonSet sets[2];
  std::vector<Coord> xs, ys;  // the compressed grid of every input edge
  for (int g = 0; g < 2; ++g) {
    for (const Box& b : soup.boxes[g]) {
      eng.add(b, g);
      only[g].add(b);
      sets[g].insert(b);
      xs.insert(xs.end(), {b.lo.x, b.hi.x});
      ys.insert(ys.end(), {b.lo.y, b.hi.y});
    }
  }
  for (auto* v : {&xs, &ys}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  const auto index_of = [](const std::vector<Coord>& v, Coord c) {
    const auto it = std::lower_bound(v.begin(), v.end(), c);
    return it != v.end() && *it == c ? static_cast<std::size_t>(it - v.begin()) : v.size();
  };
  const auto covered = [&](const std::vector<Box>& boxes, std::size_t i, std::size_t j) {
    return std::any_of(boxes.begin(), boxes.end(), [&](const Box& b) {
      return b.lo.x <= xs[i] && xs[i + 1] <= b.hi.x && b.lo.y <= ys[j] && ys[j + 1] <= b.hi.y;
    });
  };

  // Coverage: every result figure is a rectangle on the compressed grid,
  // and the figures cover each grid cell exactly as often (0 or 1) as the
  // op says.
  for (BoolOp op : {BoolOp::Or, BoolOp::And, BoolOp::Sub, BoolOp::Xor}) {
    for (bool merge : {true, false}) {
      std::vector<int> count((xs.size() - 1) * (ys.size() - 1), 0);
      for (const Trapezoid& t : eng.trapezoids(op, merge)) {
        ASSERT_TRUE(t.is_rect()) << t;
        const std::size_t i0 = index_of(xs, t.xl0), i1 = index_of(xs, t.xr0);
        const std::size_t j0 = index_of(ys, t.y0), j1 = index_of(ys, t.y1);
        ASSERT_TRUE(i1 < xs.size() && j1 < ys.size()) << "off the input grid: " << t;
        for (std::size_t j = j0; j < j1; ++j)
          for (std::size_t i = i0; i < i1; ++i) ++count[j * (xs.size() - 1) + i];
      }
      for (std::size_t j = 0; j + 1 < ys.size(); ++j) {
        for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
          const bool want = op_inside(op, covered(soup.boxes[0], i, j),
                                      covered(soup.boxes[1], i, j));
          ASSERT_EQ(count[j * (xs.size() - 1) + i], want ? 1 : 0)
              << "op " << int(op) << " merge " << merge << " cell " << i << "," << j;
        }
      }
    }
  }

  // Exact integer area identities.
  const Wide area_a = doubled_area(only[0].trapezoids(BoolOp::Or));
  const Wide area_b = doubled_area(only[1].trapezoids(BoolOp::Or));
  const Wide uni = doubled_area(eng.trapezoids(BoolOp::Or));
  const Wide inter = doubled_area(eng.trapezoids(BoolOp::And));
  EXPECT_TRUE(uni + inter == area_a + area_b);
  EXPECT_TRUE(doubled_area(eng.trapezoids(BoolOp::Sub)) + inter == area_a);
  EXPECT_TRUE(doubled_area(eng.trapezoids(BoolOp::Xor)) + 2 * inter == area_a + area_b);

  // Fracture conserves the doubled area exactly, also when it splits figures
  // to a maximum shot size (rectangles split on the grid without rounding).
  for (int g = 0; g < 2; ++g) {
    const Wide area = doubled_area(only[g].trapezoids(BoolOp::Or));
    EXPECT_TRUE(doubled_area(fracture(sets[g]).shots) == area);
    FractureOptions small;
    small.max_shot_size = 3 * kLattice + 7;
    // (A box across the whole grid would split into ~1e8 shots.)
    if (!huge) EXPECT_TRUE(doubled_area(fracture(sets[g], small).shots) == area);
  }
}

// Triangles on the lattice (they share vertices and overlap collinearly;
// collinear draws are zero-area contours and are kept), each in a random
// group, then one group-1 triangle with an edge across the whole extent (the
// full grid on every fifth seed). In drawing order, with their groups.
struct GroupedTriangle {
  SimplePolygon tri;
  int group;
};

std::vector<GroupedTriangle> lattice_triangles(int seed) {
  Rng rng(9090 + seed);
  const Point origin = kOrigins[seed % 4];
  const auto at = [&](std::int64_t cx, std::int64_t cy) {
    return Point{static_cast<Coord>(origin.x + kLattice * cx),
                 static_cast<Coord>(origin.y + kLattice * cy)};
  };
  const auto lattice_point = [&] {
    return at(rng.uniform(0, kCells), rng.uniform(0, kCells));
  };
  std::vector<GroupedTriangle> soup;
  for (int i = 0; i < 16; ++i) {
    const SimplePolygon tri{{lattice_point(), lattice_point(), lattice_point()}};
    soup.push_back({tri, static_cast<int>(rng.uniform(0, 1))});
  }
  soup.push_back({seed % 5 == 4 ? SimplePolygon{{{kMin, kMin}, {kMax, kMin + 7}, at(6, 8)}}
                                : SimplePolygon{{at(0, 0), at(kCells, 3), at(5, 7)}},
                  1});
  return soup;
}

TEST_P(BooleanDegenerateSoups, AllAngleFractureConservesArea) {
  PolygonSet sets[2];
  BooleanEngine eng;
  for (const GroupedTriangle& t : lattice_triangles(GetParam())) {
    sets[t.group].insert(t.tri);
    eng.add(t.tri, t.group);
  }

  for (int g = 0; g < 2; ++g) {
    for (FractureStrategy strategy : {FractureStrategy::merged_traps, FractureStrategy::bands}) {
      FractureOptions opt;
      opt.strategy = strategy;
      const bool merge = strategy == FractureStrategy::merged_traps;
      EXPECT_TRUE(doubled_area(fracture(sets[g], opt).shots) ==
                  doubled_area(sets[g].trapezoids(merge)));
    }
  }
  // No figure of any op is inverted (a side crossing inside it), so
  // fracturing the figures keeps their doubled area. Figures of zero width
  // at both ends may remain; they carry no area.
  for (BoolOp op : {BoolOp::Or, BoolOp::And, BoolOp::Sub, BoolOp::Xor}) {
    for (bool merge : {true, false}) {
      const auto traps = eng.trapezoids(op, merge);
      for (const Trapezoid& t : traps) EXPECT_TRUE(t.xl0 <= t.xr0 && t.xl1 <= t.xr1) << t;
      EXPECT_TRUE(doubled_area(fracture(traps).shots) == doubled_area(traps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BooleanDegenerateSoups, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// Bitwise pin of the engine's outputs on seeded soups: any change to the
// split order, the band order or the vertical merge that moves a cut point,
// a rounded x, a supporting-segment id or a figure shows up here.
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

// Same generators as bench/bench_boolean.cpp, on a smaller scale.
void add_manhattan_soup(BooleanEngine& eng, int n, std::uint64_t seed, int group) {
  Rng rng(seed);
  const Coord span = static_cast<Coord>(400.0 * std::sqrt(double(n)));
  for (int i = 0; i < n; ++i) {
    const Coord w = static_cast<Coord>(rng.uniform(50, 600));
    const Coord h = static_cast<Coord>(rng.uniform(50, 600));
    const Coord x = static_cast<Coord>(rng.uniform(0, span));
    const Coord y = static_cast<Coord>(rng.uniform(0, span));
    eng.add(Box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)}, group);
  }
}

void add_triangle_soup(BooleanEngine& eng, int n, std::uint64_t seed, int group) {
  Rng rng(seed);
  const Coord span = static_cast<Coord>(400.0 * std::sqrt(double(n)));
  for (int i = 0; i < n; ++i) {
    const Point a{static_cast<Coord>(rng.uniform(0, span)),
                  static_cast<Coord>(rng.uniform(0, span))};
    const Point b = a + Point{static_cast<Coord>(rng.uniform(-400, 400)),
                              static_cast<Coord>(rng.uniform(-400, 400))};
    const Point c = a + Point{static_cast<Coord>(rng.uniform(-400, 400)),
                              static_cast<Coord>(rng.uniform(-400, 400))};
    if (cross(a, b, c) == 0) continue;
    eng.add(SimplePolygon{{a, b, c}}, group);
  }
}

std::uint64_t engine_digest(const BooleanEngine& eng) {
  Fnv f;
  const auto add_stats = [&] {
    const BooleanStats& s = eng.stats();
    for (std::size_t v : {s.input_edges, s.split_edges, s.split_rounds, s.bands, s.intervals})
      f.add(static_cast<std::int64_t>(v));
  };
  const auto add_traps = [&](const std::vector<Trapezoid>& traps) {
    f.add(static_cast<std::int64_t>(traps.size()));
    for (const Trapezoid& t : traps)
      for (Coord v : {t.y0, t.y1, t.xl0, t.xr0, t.xl1, t.xr1}) f.add(v);
    add_stats();
  };
  const auto add_contour = [&](const SimplePolygon& c) {
    f.add(static_cast<std::int64_t>(c.size()));
    for (std::size_t i = 0; i < c.size(); ++i) {
      f.add(c[i].x);
      f.add(c[i].y);
    }
  };
  for (BoolOp op : {BoolOp::Or, BoolOp::And, BoolOp::Sub, BoolOp::Xor}) {
    add_traps(eng.trapezoids(op, true));
    add_traps(eng.trapezoids(op, false));
    // Stitching can reject the rounded band geometry of an all-angle soup;
    // the rejection is part of the pinned behavior.
    try {
      const auto polys = eng.polygons(op);
      f.add(static_cast<std::int64_t>(polys.size()));
      for (const Polygon& p : polys) {
        add_contour(p.outer());
        f.add(static_cast<std::int64_t>(p.holes().size()));
        for (const SimplePolygon& h : p.holes()) add_contour(h);
      }
    } catch (const std::exception& e) {
      for (char c : std::string_view(e.what())) f.add(c);
    }
    add_stats();
  }
  return f.h;
}

TEST(Boolean, SeededSoupsMatchParentDigests) {
  BooleanEngine manhattan;
  add_manhattan_soup(manhattan, 400, 1, 0);
  add_manhattan_soup(manhattan, 400, 2, 1);
  BooleanEngine all_angle;
  add_triangle_soup(all_angle, 200, 5, 0);
  add_triangle_soup(all_angle, 200, 6, 1);
  EXPECT_EQ(engine_digest(manhattan), 0x57bbe19e286f8122ull);
  EXPECT_EQ(engine_digest(all_angle), 0x9f9fa145cec76135ull);
}

// The lattice soups of BooleanDegenerateSoups (shared vertices, collinear
// overlaps, coalesced and inverted intervals, the ends of the grid), pinned
// to the digests of the band-by-band sweep with a separate vertical merge.
TEST(Boolean, LatticeSoupsMatchParentDigests) {
  constexpr std::uint64_t kBoxes[20] = {
      0xc99a29bf43c578a3ull, 0x266e89f7eea7ac73ull, 0x368f4594704728a0ull,
      0x0ca469e02412cf39ull, 0x54b0a4e37340ae10ull, 0x5f0b4fe199f57225ull,
      0xde113c3d331d343aull, 0xd7e4001e77dc79a5ull, 0x976e9e22a8022494ull,
      0x8add965bd71c76ebull, 0x6cbed87415eff9b5ull, 0x164c7e557ba03ee4ull,
      0x137f07ec5c3c77f9ull, 0x0c1eb63c69fa3a8dull, 0x4b44e8f0d6896e2aull,
      0x1e1663be6fc18853ull, 0xa4e7a44f48e7623eull, 0x8f01ef123ba74ebbull,
      0xb85b8db92bed34c1ull, 0x74063f1ad55ccf67ull};
  constexpr std::uint64_t kTriangles[20] = {
      0x9e24a472523540c1ull, 0x582ae86e0c212f9dull, 0xf4401acff50905bbull,
      0x7a36f93822e2fb33ull, 0x342633711c6ff8f9ull, 0xedf5e3e653287c4bull,
      0xe01a59d29df0ad89ull, 0xa864a2f5c6221ae9ull, 0xe1348367a9219630ull,
      0x9c2a7a2cef1a17c3ull, 0xf2cec5df66fca5e4ull, 0xda16f7b93ad82b91ull,
      0x6d797e698d105090ull, 0xdc5272feeebff4cdull, 0xf2321eb5eec23389ull,
      0x607abda9321e5b8bull, 0x6cb7ec104f774048ull, 0xad84c63de68026f3ull,
      0xfd06102d66faa23aull, 0x48db945b2bf2d92full};
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(4242 + seed);
    const ManhattanSoup boxes = lattice_boxes(rng, kOrigins[seed % 4], seed % 5 == 4);
    BooleanEngine lattice;
    for (int g = 0; g < 2; ++g)
      for (const Box& b : boxes.boxes[g]) lattice.add(b, g);
    BooleanEngine triangles;
    for (const GroupedTriangle& t : lattice_triangles(seed)) triangles.add(t.tri, t.group);
    EXPECT_EQ(engine_digest(lattice), kBoxes[seed]) << "lattice boxes " << seed;
    EXPECT_EQ(engine_digest(triangles), kTriangles[seed]) << "lattice triangles " << seed;
  }
}

// ---------------------------------------------------------------------------
// Thread and part counts: the parallel pair tests of the crossing split give
// the bits of one single-threaded run for any count.
// ---------------------------------------------------------------------------

bool same_bands(const std::vector<Band>& a, const std::vector<Band>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::vector<BandInterval>& ia = a[i].intervals;
    const std::vector<BandInterval>& ib = b[i].intervals;
    if (a[i].y0 != b[i].y0 || a[i].y1 != b[i].y1 || ia.size() != ib.size()) return false;
    if (!ia.empty() && std::memcmp(ia.data(), ib.data(), ia.size() * sizeof(BandInterval)) != 0)
      return false;
  }
  return true;
}

bool same_traps(const std::vector<Trapezoid>& a, const std::vector<Trapezoid>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Trapezoid)) == 0);
}

bool same_stats(const BooleanStats& a, const BooleanStats& b) {
  return a.input_edges == b.input_edges && a.split_edges == b.split_edges &&
         a.split_rounds == b.split_rounds && a.bands == b.bands && a.intervals == b.intervals;
}

// Polygons, or the stitcher's message when it rejects the band geometry.
struct Stitched {
  std::vector<Polygon> polys;
  std::string error;
  bool operator==(const Stitched&) const = default;
};

template <class F>
Stitched stitched(F&& polygons) {
  Stitched out;
  try {
    out.polys = polygons();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// Checks every output of @p eng for @p op at threads 1-4, through the public
// calls and with the pair-test part count forced to 1, 2, 7 and one grid row
// per part, against the single-threaded bands(), trapezoids(op, true) and
// the free functions over the bands. Returns how many of the bands'
// intervals a repair made: coalesced (no supporting right segment) or
// inverted at the top by a residual crossing.
std::size_t expect_same_bits_for_any_split(const BooleanEngine& eng, BoolOp op,
                                           const std::string& what) {
  const std::vector<Band> ref = detail::boolean_bands_forced(eng, op, 1, 1);  // one part
  const BooleanStats ref_stats = eng.stats();
  const std::vector<Trapezoid> ref_merged = eng.trapezoids(op, true, 1);
  EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << what;
  const std::vector<Trapezoid> ref_flat = band_trapezoids(ref);
  const Stitched ref_polys = stitched([&] { return stitch_bands(ref); });
  for (int threads = 1; threads <= 4; ++threads) {
    const std::string at = what + " op " + std::to_string(int(op)) + " threads " +
                           std::to_string(threads);
    EXPECT_TRUE(same_bands(eng.bands(op, threads), ref)) << at;
    EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << at;
    EXPECT_TRUE(same_traps(eng.trapezoids(op, true, threads), ref_merged)) << at;
    EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << at;
    EXPECT_TRUE(same_traps(eng.trapezoids(op, false, threads), ref_flat)) << at;
    EXPECT_TRUE(stitched([&] { return eng.polygons(op, threads); }) == ref_polys) << at;
    EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << at;
    for (const std::size_t pieces : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                     std::numeric_limits<std::size_t>::max()}) {
      const std::string forced = at + " pieces " + std::to_string(pieces);
      const std::vector<Band> got = detail::boolean_bands_forced(eng, op, threads, pieces);
      EXPECT_TRUE(same_bands(got, ref)) << forced;
      EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << forced;
      EXPECT_TRUE(same_traps(band_trapezoids(got), ref_flat)) << forced;
      EXPECT_TRUE(stitched([&] { return stitch_bands(got); }) == ref_polys) << forced;
      EXPECT_TRUE(same_traps(detail::boolean_trapezoids_forced(eng, op, true, threads, pieces),
                             ref_merged)) << forced;
      EXPECT_TRUE(same_stats(eng.stats(), ref_stats)) << forced;
      EXPECT_TRUE(same_traps(detail::boolean_trapezoids_forced(eng, op, false, threads, pieces),
                             ref_flat)) << forced;
    }
  }
  std::size_t repaired = 0;
  for (const Band& b : ref)
    for (const BandInterval& iv : b.intervals)
      if (iv.right_seg < 0 || iv.xl1 > iv.xr1) ++repaired;
  return repaired;
}

TEST(Boolean, ThreadAndSlabCountDoNotChangeABit) {
  constexpr BoolOp kOps[] = {BoolOp::Or, BoolOp::And, BoolOp::Sub, BoolOp::Xor};
  // The seeded soups of SeededSoupsMatchParentDigests: enough bands and
  // crossings for several slabs and pair-test parts.
  BooleanEngine manhattan;
  add_manhattan_soup(manhattan, 400, 1, 0);
  add_manhattan_soup(manhattan, 400, 2, 1);
  BooleanEngine all_angle;
  add_triangle_soup(all_angle, 200, 5, 0);
  add_triangle_soup(all_angle, 200, 6, 1);
  std::size_t repaired = 0;
  for (BoolOp op : kOps) {
    expect_same_bits_for_any_split(manhattan, op, "manhattan soup");
    repaired += expect_same_bits_for_any_split(all_angle, op, "triangle soup");
  }
  // The soups of BooleanDegenerateSoups: shared vertices, collinear
  // overlaps, zero-area contours and coordinates at the ends of the grid.
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(4242 + seed);
    const ManhattanSoup boxes = lattice_boxes(rng, kOrigins[seed % 4], seed % 5 == 4);
    BooleanEngine lattice;
    for (int g = 0; g < 2; ++g)
      for (const Box& b : boxes.boxes[g]) lattice.add(b, g);
    BooleanEngine triangles;
    for (const GroupedTriangle& t : lattice_triangles(seed)) triangles.add(t.tri, t.group);
    for (BoolOp op : kOps) {
      expect_same_bits_for_any_split(lattice, op, "lattice boxes " + std::to_string(seed));
      repaired += expect_same_bits_for_any_split(triangles, op,
                                                 "lattice triangles " + std::to_string(seed));
    }
  }
  // Some reference bands hold a coalesced or inverted interval, which the
  // sweep re-evaluates at every band.
  EXPECT_GT(repaired, 0u);
}

}  // namespace
}  // namespace ebl
