// Hierarchy contracts shared by the in-RAM and the streamed readers.
//
// read_layout and stream_layer build their Library with the same
// build_library and walk it with the same Library::each_instance, so on
// every malformed or edge hierarchy they must agree: the same DataError
// text, or identical shots. The deep-chain and coordinate-wrap cases pin
// the two limits that walker enforces: at most 64 levels, checked without
// unbounded recursion, and placed geometry that stays on the 32-bit grid.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fracture/fracture.h"
#include "layout/gdsii.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "layout_fixtures.h"
#include "util/contracts.h"

namespace ebl {
namespace {

constexpr LayerKey kMetal{1, 0};

std::string encode(const Library& lib, bool oasis) {
  std::ostringstream os(std::ios::binary);
  if (oasis) {
    write_oas(lib, os);
  } else {
    write_gds(lib, os);
  }
  return os.str();
}

/// Renames a cell in encoded bytes: both formats store names as plain
/// length-prefixed strings, so a same-length replacement keeps the file
/// well-formed. Replaces the first occurrence only, or all of them.
std::string rename(std::string bytes, const std::string& from, const std::string& to,
                   bool all) {
  EXPECT_EQ(from.size(), to.size());
  for (auto at = bytes.find(from); at != std::string::npos; at = bytes.find(from, at)) {
    bytes.replace(at, from.size(), to);
    if (!all) break;
  }
  return bytes;
}

struct Outcome {
  std::string error;  ///< DataError text; empty when the job succeeded
  ShotList shots;
};

template <typename Job>
Outcome run(const Job& job) {
  try {
    return {"", job()};
  } catch (const DataError& e) {
    return {e.what(), {}};
  }
}

/// Runs @p bytes through read_layout + flatten and through stream_fracture,
/// asserts that they agree, and returns the common outcome.
Outcome both_paths(const std::string& bytes, bool oasis, const std::string& top = "") {
  const std::string path =
      testing::TempDir() + "layout_hierarchy_test" + (oasis ? ".oas" : ".gds");
  std::ofstream(path, std::ios::binary) << bytes;
  const Outcome in_ram = run([&] {
    const Library lib = read_layout(path);
    return fracture(lib.flatten(find_top(lib, top), kMetal)).shots;
  });
  const Outcome streamed = run([&] {
    IngestOptions iopt;
    iopt.layer = kMetal;
    iopt.top = top;
    iopt.window = 1;
    return stream_fracture(*open_layout_stream(path), iopt, {}).fracture.shots;
  });
  EXPECT_EQ(in_ram.error, streamed.error) << "oasis " << oasis;
  EXPECT_EQ(in_ram.shots, streamed.shots) << "oasis " << oasis;
  return in_ram;
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

Reference ref_to(CellId child, Coord x = 0) {
  Reference r;
  r.child = child;
  r.trans = CTrans{Point{x, 0}, 0.0, 1.0, false};
  return r;
}

// ---------------------------------------------- streamed vs in-RAM parity ---

TEST(HierarchyParity, CycleRejectedAlike) {
  Library lib("CYCLE");
  const CellId top = lib.add_cell("TOP");
  const CellId a = lib.add_cell("A");
  const CellId b = lib.add_cell("B");
  lib.cell(a).add_shape(kMetal, Box{0, 0, 10, 10});
  lib.cell(top).add_reference(ref_to(a));
  lib.cell(a).add_reference(ref_to(b));
  lib.cell(b).add_reference(ref_to(a));
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis);
    EXPECT_TRUE(contains(o.error, "reference cycle through cell")) << o.error;
  }
}

TEST(HierarchyParity, UndefinedChildRejectedAlike) {
  // LEAF is written first, so its definition is the first occurrence of the
  // name; renaming only that leaves TOP referring to a cell that never
  // appears.
  const Library lib = test_fixtures::sample_library();
  for (const bool oasis : {false, true}) {
    const Outcome o =
        both_paths(rename(encode(lib, oasis), "LEAF", "LEAX", /*all=*/false), oasis);
    EXPECT_EQ(o.error, "reference to undefined cell LEAF");
  }
}

TEST(HierarchyParity, DuplicateCellNamesMergeAlike) {
  // Two file cells named LEAF merge into one cell, shapes in file order.
  Library lib("DUP");
  const CellId leaf = lib.add_cell("LEAF");
  lib.cell(leaf).add_shape(kMetal, Box{0, 0, 100, 50});
  const CellId dup = lib.add_cell("DUPX");
  lib.cell(dup).add_shape(kMetal, SimplePolygon{{{200, 0}, {300, 0}, {200, 80}}});
  const CellId top = lib.add_cell("TOP");
  lib.cell(top).add_reference(ref_to(leaf));
  lib.cell(top).add_reference(ref_to(leaf, 1000));

  Library merged("MERGED");
  const CellId mleaf = merged.add_cell("LEAF");
  merged.cell(mleaf).add_shape(kMetal, Box{0, 0, 100, 50});
  merged.cell(mleaf).add_shape(kMetal, SimplePolygon{{{200, 0}, {300, 0}, {200, 80}}});
  const CellId mtop = merged.add_cell("TOP");
  merged.cell(mtop).add_reference(ref_to(mleaf));
  merged.cell(mtop).add_reference(ref_to(mleaf, 1000));
  const ShotList expected = fracture(merged.flatten(mtop, kMetal)).shots;

  for (const bool oasis : {false, true}) {
    const Outcome o =
        both_paths(rename(encode(lib, oasis), "DUPX", "LEAF", /*all=*/true), oasis);
    EXPECT_EQ(o.error, "");
    EXPECT_EQ(o.shots, expected) << "oasis " << oasis;
  }
}

TEST(HierarchyParity, ExplicitTopAlike) {
  const Library lib = test_fixtures::deep_library();
  const ShotList expected = fracture(lib.flatten(*lib.find_cell("MID_A"), kMetal)).shots;
  ASSERT_FALSE(expected.empty());
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis, "MID_A");
    EXPECT_EQ(o.error, "");
    EXPECT_EQ(o.shots, expected) << "oasis " << oasis;
  }
}

TEST(HierarchyParity, MissingTopRejectedAlike) {
  const Library lib = test_fixtures::deep_library();
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis, "NO_SUCH_CELL");
    EXPECT_EQ(o.error, "top cell not found: NO_SUCH_CELL");
  }
}

TEST(HierarchyParity, AmbiguousTopRejectedAlike) {
  Library lib("TWO_TOPS");
  lib.cell(lib.add_cell("A")).add_shape(kMetal, Box{0, 0, 10, 10});
  lib.cell(lib.add_cell("B")).add_shape(kMetal, Box{20, 0, 30, 10});
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis);
    EXPECT_EQ(o.error, "several unreferenced cells; pass an explicit top");
  }
}

// ------------------------------------------------------------ deep chains ---

/// C0 places C1 places ... C(n-1), which holds one rectangle.
Library chain(std::size_t n) {
  Library lib("CHAIN");
  std::vector<CellId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(lib.add_cell("C" + std::to_string(i)));
  for (std::size_t i = 0; i + 1 < n; ++i) lib.cell(ids[i]).add_reference(ref_to(ids[i + 1], 1));
  lib.cell(ids.back()).add_shape(kMetal, Box{0, 0, 10, 10});
  return lib;
}

TEST(HierarchyDepth, SixtyFiveLevelsAccepted) {
  // 65 cells are 64 levels below C0: the deepest hierarchy allowed.
  const Library lib = chain(65);
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis);
    EXPECT_EQ(o.error, "");
    EXPECT_EQ(o.shots.size(), 1u);
  }
}

TEST(HierarchyDepth, DeepChainsRejectedByEveryReader) {
  for (const std::size_t n : {std::size_t{66}, std::size_t{100000}}) {
    const Library lib = chain(n);
    EXPECT_THROW(lib.flatten(CellId{0}, kMetal), DataError) << n;
    for (const bool oasis : {false, true}) {
      const std::string bytes = encode(lib, oasis);
      std::istringstream is(bytes);
      EXPECT_THROW(oasis ? read_oas(is) : read_gds(is), DataError) << n;
      const Outcome o = both_paths(bytes, oasis);
      EXPECT_EQ(o.error, "hierarchy deeper than 64 levels under cell C0") << n;
    }
  }
}

// -------------------------------------------------------- coordinate wrap ---

/// TOP places MID at x = 2e9 and MID places LEAF at x = 2e9: every record
/// is on the grid, but LEAF lands at 4e9 + leaf_x.
Library far_placements(Coord leaf_x) {
  Library lib("FAR");
  const CellId leaf = lib.add_cell("LEAF");
  lib.cell(leaf).add_shape(kMetal, Box{leaf_x, 0, leaf_x + 10, 10});
  const CellId mid = lib.add_cell("MID");
  lib.cell(mid).add_reference(ref_to(leaf, 2'000'000'000));
  const CellId top = lib.add_cell("TOP");
  lib.cell(top).add_reference(ref_to(mid, 2'000'000'000));
  return lib;
}

constexpr const char* kWrapped =
    "placed polygon leaves the 32-bit coordinate grid in cell path TOP/MID/LEAF";

TEST(HierarchyWrap, ComposedPlacementsRejectedNotWrapped) {
  const Library lib = far_placements(0);
  try {
    lib.flatten(*lib.find_cell("TOP"), kMetal);
    ADD_FAILURE() << "flatten wrapped instead of throwing";
  } catch (const DataError& e) {
    EXPECT_STREQ(e.what(), kWrapped);
  }
  EXPECT_THROW(lib.bbox(*lib.find_cell("TOP")), DataError);
  for (const bool oasis : {false, true}) {
    EXPECT_EQ(both_paths(encode(lib, oasis), oasis).error, kWrapped) << "oasis " << oasis;
  }
}

TEST(HierarchyWrap, ComposedDisplacementBeyondGridStillPlacesExactly) {
  // The composed displacement (4e9) is off the grid but the placed leaf is
  // not: composition must carry it in 64 bits rather than wrap.
  const Library lib = far_placements(-2'000'000'005);
  const Box expected{1'999'999'995, 0, 2'000'000'005, 10};
  EXPECT_EQ(lib.flatten(*lib.find_cell("TOP"), kMetal).bbox(), expected);
  EXPECT_EQ(lib.bbox(*lib.find_cell("TOP")), expected);
  for (const bool oasis : {false, true}) {
    const Outcome o = both_paths(encode(lib, oasis), oasis);
    EXPECT_EQ(o.error, "");
    ASSERT_EQ(o.shots.size(), 1u);
    EXPECT_EQ(o.shots[0].shape.bbox(), expected);
  }
}

TEST(HierarchyWrap, FarArrayElementRejected) {
  // Array elements step by 1e9: three fit on the grid, a fourth at 3e9 not.
  const auto far_array = [](std::uint32_t cols) {
    Library lib("FAR_ARRAY");
    const CellId leaf = lib.add_cell("LEAF");
    lib.cell(leaf).add_shape(kMetal, Box{0, 0, 10, 10});
    Reference r = ref_to(leaf);
    r.cols = cols;
    r.col_step = {1'000'000'000, 0};
    lib.cell(lib.add_cell("TOP")).add_reference(r);
    return lib;
  };
  const Library fits = far_array(3);
  EXPECT_EQ(fits.flatten(CellId{1}, kMetal).bbox(), (Box{0, 0, 2'000'000'010, 10}));
  try {
    far_array(4).flatten(CellId{1}, kMetal);
    ADD_FAILURE() << "flatten wrapped instead of throwing";
  } catch (const DataError& e) {
    EXPECT_STREQ(e.what(),
                 "placed polygon leaves the 32-bit coordinate grid in cell path TOP/LEAF");
  }
}

}  // namespace
}  // namespace ebl
