// Tests for the two-pass bucket field partitioner: conservation properties,
// straddler counting against an independent brute force, 64-bit frame math
// at extreme coordinates, and thread-count independence.
#include <gtest/gtest.h>

#include <limits>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "machine/field.h"
#include "util/rng.h"

namespace ebl {
namespace {

Box shots_bbox(const ShotList& shots) {
  Box b;
  for (const Shot& s : shots) b += s.shape.bbox();
  return b;
}

// Brute-force straddler test by walking the boundary lines themselves: a
// shot straddles iff some field boundary (anchor + k * field_size) falls
// strictly inside its bbox span, i.e. in (lo, hi]. Same definition as the
// partitioner's index arithmetic, different mechanism.
bool crosses_boundary(Coord64 lo, Coord64 hi, Coord64 anchor, Coord field) {
  for (Coord64 b = anchor + field; b <= hi; b += field) {
    if (b > lo) return true;
  }
  return false;
}

std::size_t brute_force_straddlers(const ShotList& shots, Coord field) {
  const Box bb = shots_bbox(shots);
  std::size_t n = 0;
  for (const Shot& s : shots) {
    const Box sb = s.shape.bbox();
    if (crosses_boundary(sb.lo.x, sb.hi.x, bb.lo.x, field) ||
        crosses_boundary(sb.lo.y, sb.hi.y, bb.lo.y, field))
      ++n;
  }
  return n;
}

TEST(FieldPartition, ConservesAreaAndChargeAndCountsStraddlers) {
  Rng rng(77);
  const PolygonSet s =
      random_manhattan(rng, Box{0, 0, 300000, 300000}, 0.15, 2000, 25000);
  ShotList shots = fracture(s, {.max_shot_size = 20000}).shots;
  ASSERT_GT(shots.size(), 100u);
  // Non-uniform doses so the dose-weighted conservation is a real check.
  for (std::size_t i = 0; i < shots.size(); ++i)
    shots[i].dose = 0.5 + 0.013 * static_cast<double>(i % 101);
  const double area = shot_area(shots);
  const double charge = shot_charge_area(shots);

  for (const Coord field : {70000, 100000}) {
    const FieldPartition part = partition_fields_counted(shots, field);
    EXPECT_GT(part.fields.size(), 1u);
    double piece_area = 0.0;
    double piece_charge = 0.0;
    for (const FieldJob& f : part.fields) {
      for (const Shot& piece : f.shots) {
        EXPECT_TRUE(f.field.contains(piece.shape.bbox()))
            << piece.shape << " vs " << f.field;
        piece_area += piece.shape.area();
        piece_charge += piece.shape.area() * piece.dose;
      }
    }
    EXPECT_NEAR(piece_area, area, area * 1e-9) << "field " << field;
    EXPECT_NEAR(piece_charge, charge, charge * 1e-9) << "field " << field;
    EXPECT_EQ(part.straddlers, brute_force_straddlers(shots, field));
    EXPECT_EQ(part.straddlers, count_boundary_straddlers(shots, field));
  }
}

TEST(FieldPartition, ExtremeCoordinateExtentsDoNotWrap) {
  // Pattern corner to corner spans nearly the full 32-bit range — well past
  // 2^31 dbu — so field frames computed naively in Coord wrap around. The
  // regression: pieces must land inside correctly-oriented frames and the
  // area must survive.
  constexpr Coord kMax = std::numeric_limits<Coord>::max();
  constexpr Coord kMin = std::numeric_limits<Coord>::min();
  ShotList shots;
  shots.push_back({Trapezoid::rect(Box{kMin + 10, kMin + 10, kMin + 50010, kMin + 40010}), 1.0});
  shots.push_back({Trapezoid::rect(Box{kMax - 50010, kMax - 40010, kMax - 10, kMax - 10}), 2.0});
  // A shot whose span crosses a field boundary near the positive edge.
  shots.push_back({Trapezoid::rect(Box{kMax - 250010, kMax - 20010, kMax - 49000, kMax - 10}), 1.5});

  const Coord field = 100000;
  const double area = shot_area(shots);
  const double charge = shot_charge_area(shots);
  const FieldPartition part = partition_fields_counted(shots, field);
  EXPECT_GE(part.fields.size(), 3u);
  double piece_area = 0.0;
  double piece_charge = 0.0;
  for (const FieldJob& f : part.fields) {
    EXPECT_FALSE(f.field.empty());
    EXPECT_GT(f.field.width(), 0);
    EXPECT_GT(f.field.height(), 0);
    for (const Shot& piece : f.shots) {
      EXPECT_TRUE(f.field.contains(piece.shape.bbox()))
          << piece.shape << " vs " << f.field;
      piece_area += piece.shape.area();
      piece_charge += piece.shape.area() * piece.dose;
    }
  }
  EXPECT_NEAR(piece_area, area, area * 1e-9);
  EXPECT_NEAR(piece_charge, charge, charge * 1e-9);
  EXPECT_EQ(part.straddlers, brute_force_straddlers(shots, field));
}

TEST(FieldPartition, IdenticalForAnyThreadCount) {
  Rng rng(91);
  const PolygonSet s =
      random_manhattan(rng, Box{0, 0, 200000, 200000}, 0.2, 2000, 20000);
  const ShotList shots = fracture(s, {.max_shot_size = 15000}).shots;
  const FieldPartition one = partition_fields_counted(shots, 60000, 1);
  const FieldPartition four = partition_fields_counted(shots, 60000, 4);
  EXPECT_EQ(one.straddlers, four.straddlers);
  ASSERT_EQ(one.fields.size(), four.fields.size());
  for (std::size_t f = 0; f < one.fields.size(); ++f) {
    EXPECT_EQ(one.fields[f].field, four.fields[f].field);
    ASSERT_EQ(one.fields[f].shots.size(), four.fields[f].shots.size()) << "field " << f;
    for (std::size_t k = 0; k < one.fields[f].shots.size(); ++k)
      EXPECT_EQ(one.fields[f].shots[k], four.fields[f].shots[k]);
  }
}

TEST(FieldPartition, WrapperMatchesCombinedResult) {
  Rng rng(13);
  const PolygonSet s =
      random_manhattan(rng, Box{0, 0, 150000, 150000}, 0.1, 2000, 15000);
  const ShotList shots = fracture(s).shots;
  const FieldPartition part = partition_fields_counted(shots, 50000);
  const std::vector<FieldJob> fields = partition_fields(shots, 50000);
  ASSERT_EQ(fields.size(), part.fields.size());
  for (std::size_t f = 0; f < fields.size(); ++f) {
    EXPECT_EQ(fields[f].field, part.fields[f].field);
    EXPECT_EQ(fields[f].shots, part.fields[f].shots);
  }
}

// Every field of the grid over the shots' bbox, each shot clipped into it
// in index order, the empty fields dropped: the partition as it was before
// shots inside one field skipped the clip.
std::vector<FieldJob> clip_every_shot(const ShotList& shots, Coord field) {
  const Box bb = shots_bbox(shots);
  std::vector<FieldJob> out;
  for (Coord64 y = bb.lo.y; y <= bb.hi.y; y += field) {
    for (Coord64 x = bb.lo.x; x <= bb.hi.x; x += field) {
      FieldJob job{Box{static_cast<Coord>(x), static_cast<Coord>(y),
                       static_cast<Coord>(x + field), static_cast<Coord>(y + field)},
                   {}};
      for (const Shot& s : shots)
        for (const Trapezoid& piece : clip_trapezoid(s.shape, job.field))
          job.shots.push_back(Shot{piece, s.dose});
      if (!job.shots.empty()) out.push_back(std::move(job));
    }
  }
  return out;
}

TEST(FieldPartition, UnclippedShotsMatchClippingEveryShot) {
  // Seeded slanted trapezoids and triangles, some inside one field and some
  // across its lines, then rectangles and slanted shapes whose edges lie
  // exactly on field lines (the grid is anchored at the first shot's
  // corner, 0, 0).
  constexpr Coord kField = 10000;
  Rng rng(2027);
  ShotList shots;
  shots.push_back({Trapezoid::rect(Box{0, 0, 10000, 10000}), 1.0});
  for (int i = 0; i < 400; ++i) {
    const Coord y0 = static_cast<Coord>(rng.uniform(0, 45000));
    const Coord y1 = y0 + static_cast<Coord>(rng.uniform(1, 6000));
    const Coord xl0 = static_cast<Coord>(rng.uniform(0, 45000));
    const Coord xr0 = xl0 + static_cast<Coord>(rng.uniform(i % 5 == 0 ? 0 : 1, 6000));
    const Coord xl1 = xl0 + static_cast<Coord>(rng.uniform(-2000, 2000));
    const Coord xr1 = std::max(xl1 + (xr0 == xl0 ? 1 : 0),
                               xr0 + static_cast<Coord>(rng.uniform(-2000, 2000)));
    const Trapezoid t(y0, y1, xl0, xr0, xl1, xr1);
    if (t.valid()) shots.push_back({t, 0.5 + 0.01 * i});
  }
  for (const Coord line : {10000, 20000, 30000}) {
    shots.push_back({Trapezoid::rect(Box{line, 2000, line + 3000, 5000}), 1.1});
    shots.push_back({Trapezoid::rect(Box{line - 3000, 2000, line, 5000}), 1.2});
    shots.push_back({Trapezoid::rect(Box{4000, line - 2000, 6000, line}), 1.3});
    shots.push_back({Trapezoid::rect(Box{4000, line, 6000, line + 2000}), 1.4});
    shots.push_back({Trapezoid(line - 1000, line, line - 2000, line, line - 1000, line), 0.9});
    shots.push_back({Trapezoid(line, line + 1000, line, line + 2000, line, line + 1000), 0.8});
  }
  const std::vector<FieldJob> want = clip_every_shot(shots, kField);
  for (const int threads : {1, 4}) {
    const FieldPartition got = partition_fields_counted(shots, kField, threads);
    ASSERT_EQ(got.fields.size(), want.size()) << threads << " threads";
    for (std::size_t f = 0; f < want.size(); ++f) {
      EXPECT_EQ(got.fields[f].field, want[f].field) << "field " << f;
      EXPECT_EQ(got.fields[f].shots, want[f].shots) << "field " << f;
    }
  }
}

}  // namespace
}  // namespace ebl
