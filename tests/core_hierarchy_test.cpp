// Tests for hierarchical (cell-cached) data preparation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ebl.h"
#include "util/contracts.h"

namespace ebl {
namespace {

Library arrayed_library(std::uint32_t n, Orient orient = Orient::r0) {
  Library lib("HIER");
  const CellId macro = lib.add_cell("MACRO");
  lib.cell(macro).add_shape(LayerKey{1, 0}, Box{0, 0, 3000, 1000});
  lib.cell(macro).add_shape(LayerKey{1, 0},
                            SimplePolygon{{{0, 2000}, {2000, 2000}, {0, 4000}}});
  const CellId top = lib.add_cell("TOP");
  Reference r;
  r.child = macro;
  r.cols = n;
  r.rows = n;
  r.col_step = {6000, 0};
  r.row_step = {0, 6000};
  r.trans = CTrans{Trans{Point{0, 0}, orient}};
  lib.cell(top).add_reference(r);
  return lib;
}

TEST(TransformTrapezoidNoswap, IdentityAndTranslate) {
  const Trapezoid t{0, 100, 10, 200, 30, 150};
  EXPECT_EQ(transform_trapezoid_noswap(t, Trans{}), t);
  const Trapezoid moved = transform_trapezoid_noswap(t, Trans{Point{5, 7}});
  EXPECT_EQ(moved, (Trapezoid{7, 107, 15, 205, 35, 155}));
}

TEST(TransformTrapezoidNoswap, Rotate180AndMirror) {
  const Trapezoid t{0, 100, 10, 200, 30, 150};
  const Trapezoid r180 = transform_trapezoid_noswap(t, Trans{Point{0, 0}, Orient::r180});
  EXPECT_TRUE(r180.valid());
  EXPECT_DOUBLE_EQ(r180.area(), t.area());
  EXPECT_EQ(r180.bbox(), (Box{-200, -100, -10, 0}));
  const Trapezoid m0 = transform_trapezoid_noswap(t, Trans{Point{0, 0}, Orient::m0});
  EXPECT_TRUE(m0.valid());
  EXPECT_DOUBLE_EQ(m0.area(), t.area());
  EXPECT_EQ(m0.bbox(), (Box{10, -100, 200, 0}));
}

TEST(TransformTrapezoidNoswap, RejectsAxisSwap) {
  const Trapezoid t{0, 100, 10, 200, 30, 150};
  EXPECT_THROW(transform_trapezoid_noswap(t, Trans{Point{0, 0}, Orient::r90}),
               ContractViolation);
}

TEST(HierPrep, MatchesFlatPrepOnArray) {
  const Library lib = arrayed_library(4);
  const CellId top = *lib.find_cell("TOP");
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0});
  const FractureResult flat = fracture(lib.flatten(top, LayerKey{1, 0}));

  EXPECT_EQ(hier.stats.instances, 17u);  // top + 16 array elements
  EXPECT_EQ(hier.stats.cells_fractured, 1u);
  EXPECT_EQ(hier.shots.size(), flat.shots.size());
  EXPECT_NEAR(hier.stats.area, flat.stats.area, 1e-6);
}

TEST(HierPrep, RotatedArrayConservesArea) {
  for (const Orient o : {Orient::r90, Orient::r270, Orient::m90}) {
    const Library lib = arrayed_library(3, o);
    const CellId top = *lib.find_cell("TOP");
    const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0});
    const FractureResult flat = fracture(lib.flatten(top, LayerKey{1, 0}));
    EXPECT_NEAR(hier.stats.area, flat.stats.area, 1.0) << "orient " << int(o);
    EXPECT_EQ(hier.shots.size(), flat.shots.size()) << "orient " << int(o);
    // Every shot valid.
    for (const Shot& s : hier.shots) EXPECT_TRUE(s.shape.valid());
  }
}

TEST(HierPrep, SharedCellFracturedOncePerOrientationClass) {
  Library lib("MIX");
  const CellId macro = lib.add_cell("MACRO");
  lib.cell(macro).add_shape(LayerKey{1, 0}, Box{0, 0, 1000, 500});
  const CellId top = lib.add_cell("TOP");
  for (int i = 0; i < 4; ++i) {
    Reference r;
    r.child = macro;
    r.trans = CTrans{Trans{Point{Coord(i * 3000), 0}, static_cast<Orient>(i)}};
    lib.cell(top).add_reference(r);
  }
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0});
  // r0/r180 share the unswapped cache entry; r90/r270 the swapped one.
  EXPECT_EQ(hier.stats.cells_fractured, 2u);
  EXPECT_EQ(hier.shots.size(), 4u);
  EXPECT_DOUBLE_EQ(hier.stats.area, 4.0 * 1000 * 500);
}

TEST(HierPrep, NonOrthogonalFallsBack) {
  Library lib("ROT");
  const CellId macro = lib.add_cell("MACRO");
  lib.cell(macro).add_shape(LayerKey{1, 0}, Box{0, 0, 1000, 1000});
  const CellId top = lib.add_cell("TOP");
  Reference r;
  r.child = macro;
  r.trans = CTrans{Point{0, 0}, 45.0, 1.0, false};
  lib.cell(top).add_reference(r);
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0});
  EXPECT_EQ(hier.stats.fallback_instances, 1u);
  // 45° square fractures into triangles/trapezoids; area preserved ~1 dbu.
  EXPECT_NEAR(hier.stats.area, 1e6, 1e6 * 1e-2);
}

TEST(HierPrep, RespectsMaxShotSize) {
  const Library lib = arrayed_library(2);
  const CellId top = *lib.find_cell("TOP");
  FractureOptions opt;
  opt.max_shot_size = 500;
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0}, opt);
  for (const Shot& s : hier.shots) {
    EXPECT_LE(s.shape.bbox().width(), 500);
    EXPECT_LE(s.shape.bbox().height(), 500);
  }
}

TEST(HierPrep, EmptyLayerGivesNoShots) {
  const Library lib = arrayed_library(2);
  const CellId top = *lib.find_cell("TOP");
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{9, 9});
  EXPECT_TRUE(hier.shots.empty());
  EXPECT_EQ(hier.stats.cells_fractured, 0u);
}

/// TOP places MID at x = 2e9 and MID places LEAF (a 10 dbu square at
/// leaf_x) at x = 2e9, rotated by @p leaf_angle degrees: every record is on
/// the grid, but the composed displacement is 4e9.
Library far_placements(Coord leaf_x, double leaf_angle = 0.0) {
  Library lib("FAR");
  const CellId leaf = lib.add_cell("LEAF");
  lib.cell(leaf).add_shape(LayerKey{1, 0}, Box{leaf_x, 0, leaf_x + 10, 10});
  const CellId mid = lib.add_cell("MID");
  Reference to_leaf;
  to_leaf.child = leaf;
  to_leaf.trans = CTrans{Point{2'000'000'000, 0}, leaf_angle, 1.0, false};
  lib.cell(mid).add_reference(to_leaf);
  Reference to_mid;
  to_mid.child = mid;
  to_mid.trans = CTrans{Trans{Point{2'000'000'000, 0}, Orient::r0}};
  lib.cell(lib.add_cell("TOP")).add_reference(to_mid);
  return lib;
}

TEST(HierPrep, FarPlacementRejectedNotWrapped) {
  // The leaf's shapes land past 2^31 on both the orthogonal path and the
  // non-orthogonal fallback: a DataError naming the cell path, as flatten
  // reports it, instead of wrapped shots.
  for (const double angle : {0.0, 45.0}) {
    const Library lib = far_placements(0, angle);
    try {
      const HierPrepResult hier = run_hier_prep(lib, *lib.find_cell("TOP"), LayerKey{1, 0});
      ADD_FAILURE() << "angle " << angle << ": wrapped to x = "
                    << (hier.shots.empty() ? 0 : hier.shots[0].shape.bbox().lo.x);
    } catch (const DataError& e) {
      EXPECT_STREQ(e.what(),
                   "placed polygon leaves the 32-bit coordinate grid in cell path "
                   "TOP/MID/LEAF")
          << "angle " << angle;
    }
  }
}

TEST(HierPrep, DisplacementBeyondGridStillPlacesExactly) {
  // The composed displacement (4e9) is off the grid but the placed leaf is
  // not: the instance must land exactly where flatten puts it.
  const Library lib = far_placements(-2'000'000'005);
  const CellId top = *lib.find_cell("TOP");
  const HierPrepResult hier = run_hier_prep(lib, top, LayerKey{1, 0});
  ASSERT_EQ(hier.shots.size(), 1u);
  EXPECT_EQ(hier.shots[0].shape.bbox(), lib.flatten(top, LayerKey{1, 0}).bbox());
  EXPECT_EQ(hier.shots[0].shape.bbox(), (Box{1'999'999'995, 0, 2'000'000'005, 10}));
}

}  // namespace
}  // namespace ebl
