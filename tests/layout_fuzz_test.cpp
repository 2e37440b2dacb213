// Deterministic mutation fuzz of the layout readers (src/layout/): seeded
// bit flips, splices, truncations and garbage applied to small multi-layer
// OASIS and GDSII files. Every input must end, within a time bound, either
// in a DataError or in geometry; and the two front doors must agree on it:
//
//   - the streaming skim (build_library without geometry) fails exactly
//     when read_oas / read_gds fails, with the same message, because the
//     skim runs every check the geometry parse runs;
//   - for an input that parses, stream_layer (filtered re-reads, window 1)
//     emits exactly Library::flatten of the in-RAM read, polygon for
//     polygon, for every cell as top and every layer, or both throw.
//
// A mutation can turn a small file into a large one (a repetition or array
// dimension flipped high). Such inputs still have to parse or fail in time,
// but their flatten is not compared: expansion bombs are a known open item.
// Seeded mt19937, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "layout/gdsii.h"
#include "layout/oasis.h"
#include "layout/stream.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using clock_t_ = std::chrono::steady_clock;

/// Per-input wall-time bound (generous: the sanitizer job runs this too).
constexpr double kTimeBoundS = 5.0;
/// Inputs beyond these sizes parse but skip the flatten comparison.
constexpr std::uint64_t kMaxShapes = 20000;
constexpr std::uint64_t kMaxInstances = 20000;

Library fuzz_library() {
  Library lib("FUZZ");
  const LayerKey metal{1, 0}, via{2, 0}, poly{1, 5};
  const CellId leaf = lib.add_cell("LEAF");
  Cell& l = lib.cell(leaf);
  l.add_shape(via, Box{0, 0, 40, 40});
  l.add_shape(metal, Box{0, 0, 100, 50});
  l.add_shape(poly, SimplePolygon{{{0, 0}, {40, 0}, {0, 30}}});
  l.add_shape(metal, SimplePolygon{{{200, 0}, {260, 0}, {290, 40}, {230, 40}}});
  l.add_shape(via, Polygon{SimplePolygon::rect(0, 100, 60, 160),
                           {SimplePolygon::rect(20, 120, 40, 140)}});
  const CellId off = lib.add_cell("OFF");
  lib.cell(off).add_shape(via, Box{0, 0, 10, 10});
  const CellId mid = lib.add_cell("MID");
  lib.cell(mid).add_shape(metal, Box{-50, -50, 0, 0});
  Reference r;
  r.child = leaf;
  r.cols = 3;
  r.rows = 2;
  r.col_step = {400, 0};
  r.row_step = {0, 300};
  lib.cell(mid).add_reference(r);
  const CellId top = lib.add_cell("TOP");
  Reference m;
  m.child = mid;
  m.trans = CTrans{Point{1000, -500}, 90.0, 1.0, true};
  lib.cell(top).add_reference(m);
  m.child = off;
  m.trans = CTrans{Point{-300, 0}, 0.0, 1.0, false};
  lib.cell(top).add_reference(m);
  m.child = leaf;
  m.trans = CTrans{Point{0, 2000}, 180.0, 1.0, false};
  lib.cell(top).add_reference(m);
  return lib;
}

std::string bytes_of(const Library& lib, bool oasis) {
  std::ostringstream os(std::ios::binary);
  if (oasis) write_oas(lib, os);
  else write_gds(lib, os);
  return os.str();
}

std::string mutate(const std::string& base, std::mt19937& rng) {
  std::string m = base;
  const auto at = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  switch (rng() % 4) {
    case 0: {  // one to three bit flips
      for (unsigned k = 1 + rng() % 3; k > 0; --k) {
        const std::size_t i = at(m.size());
        m[i] = static_cast<char>(m[i] ^ (1u << (rng() % 8)));
      }
      break;
    }
    case 1: {  // splice: a chunk of the file copied over another place
      const std::size_t len = 1 + at(32);
      const std::size_t from = at(m.size() - len);
      const std::size_t to = at(m.size());
      const std::string chunk = m.substr(from, len);
      if (rng() % 2) m.insert(to, chunk);
      else m.replace(to, len, chunk);
      break;
    }
    case 2:  // truncation
      m.resize(at(m.size()));
      break;
    default: {  // garbage over a random range
      const std::size_t len = 1 + at(16);
      const std::size_t to = at(m.size());
      for (std::size_t i = to; i < std::min(m.size(), to + len); ++i)
        m[i] = static_cast<char>(rng() & 0xFF);
      break;
    }
  }
  return m;
}

std::unique_ptr<LayoutStream> open_bytes(const std::string& bytes, bool oasis) {
  auto in = std::make_unique<std::stringstream>(bytes, std::ios::in | std::ios::binary);
  return oasis ? open_oas_stream(std::move(in)) : open_gds_stream(std::move(in));
}

/// Expanded instances under every cell (saturating), from the hierarchy.
std::vector<std::uint64_t> instance_counts(const Library& lib) {
  std::vector<std::uint64_t> memo(lib.cell_count(), 0);
  std::vector<bool> done(lib.cell_count(), false);
  const std::function<std::uint64_t(CellId)> count = [&](CellId id) -> std::uint64_t {
    if (done[id.value]) return memo[id.value];
    std::uint64_t n = 1;
    for (const Reference& r : lib.cell(id).references()) {
      const std::uint64_t each = std::uint64_t(r.cols) * r.rows;
      n += std::min(kMaxInstances + 1, each * count(r.child));
      n = std::min(n, kMaxInstances + 1);
    }
    done[id.value] = true;
    return memo[id.value] = n;
  };
  for (std::uint32_t i = 0; i < lib.cell_count(); ++i) count(CellId{i});
  return memo;
}

struct Tally {
  int rejected = 0;  ///< DataError from both front doors
  int compared = 0;  ///< parsed; every top and layer compared
  int large = 0;     ///< parsed; too large to flatten in a test
};

/// One mutated input through both front doors; see the file comment.
void check_input(const std::string& bytes, bool oasis, const std::string& where, Tally& tally) {
  std::string read_error = "none";
  std::optional<Library> lib;
  try {
    std::istringstream in(bytes, std::ios::binary);
    lib = oasis ? read_oas(in) : read_gds(in);
  } catch (const DataError& e) {
    read_error = e.what();
  }
  std::string skim_error = "none";
  CellPieces pieces;
  try {
    const auto stream = open_bytes(bytes, oasis);
    build_library(*stream, /*with_geometry=*/false, &pieces);
  } catch (const DataError& e) {
    skim_error = e.what();
  }
  ASSERT_EQ(skim_error, read_error) << where;
  if (!lib) {
    ++tally.rejected;
    return;
  }
  std::uint64_t shapes = 0;
  for (const auto& cell_pieces : pieces)
    for (const CellPiece& p : cell_pieces)
      for (const auto& [layer, n] : p.shape_counts) shapes += n;
  const std::vector<std::uint64_t> instances = instance_counts(*lib);
  bool large = shapes > kMaxShapes;
  for (const std::uint64_t n : instances) large = large || n > kMaxInstances;
  if (large) {
    ++tally.large;
    return;
  }
  ++tally.compared;
  for (std::uint32_t t = 0; t < lib->cell_count(); ++t) {
    const CellId top{t};
    for (const LayerKey layer : lib->layers_under(top)) {
      std::string flat_error = "none";
      PolygonSet flat;
      try {
        flat = lib->flatten(top, layer);
      } catch (const DataError& e) {
        flat_error = e.what();
      }
      std::string stream_error = "none";
      std::vector<Polygon> streamed;
      try {
        const auto stream = open_bytes(bytes, oasis);
        IngestOptions opt;
        opt.top = lib->cell(top).name();
        opt.layer = layer;
        opt.window = 1;
        stream_layer(*stream, opt, [&](const Polygon& p) { streamed.push_back(p); });
      } catch (const DataError& e) {
        stream_error = e.what();
      }
      const std::string what = where + " top " + lib->cell(top).name() + " layer " +
                               std::to_string(layer.layer) + "/" + std::to_string(layer.datatype);
      ASSERT_EQ(stream_error, flat_error) << what;
      if (flat_error == "none") {
        ASSERT_EQ(streamed.size(), flat.size()) << what;
        for (std::size_t i = 0; i < flat.size(); ++i)
          ASSERT_EQ(streamed[i], flat.polygons()[i]) << what << " polygon " << i;
      }
    }
  }
}

void run_fuzz(bool oasis, std::uint32_t seed, int rounds) {
  const std::string base = bytes_of(fuzz_library(), oasis);
  std::mt19937 rng(seed);
  Tally tally;
  for (int i = 0; i < rounds; ++i) {
    const std::string bytes = mutate(base, rng);
    const auto t0 = clock_t_::now();
    check_input(bytes, oasis, (oasis ? "oasis" : "gdsii") + std::string(" input ") +
                                  std::to_string(i), tally);
    const double s = std::chrono::duration<double>(clock_t_::now() - t0).count();
    EXPECT_LT(s, kTimeBoundS) << "input " << i;
    if (testing::Test::HasFatalFailure()) return;
  }
  // Both outcomes must actually be exercised, or the fuzz tests nothing.
  EXPECT_GT(tally.rejected, rounds / 10);
  EXPECT_GT(tally.compared, rounds / 10);
  std::cout << (oasis ? "oasis" : "gdsii") << ": " << tally.rejected << " rejected, "
            << tally.compared << " compared, " << tally.large << " too large to flatten\n";
}

TEST(LayoutFuzz, MutatedOasisParsesOrFailsAndStreamsLikeFlatten) {
  run_fuzz(/*oasis=*/true, 0x0A5F00D, 2000);
}

TEST(LayoutFuzz, MutatedGdsiiParsesOrFailsAndStreamsLikeFlatten) {
  run_fuzz(/*oasis=*/false, 0x6D5F00D, 2000);
}

// The unmutated bases: every top and layer streams exactly like flatten.
TEST(LayoutFuzz, BaseFilesStreamLikeFlatten) {
  for (const bool oasis : {false, true}) {
    Tally tally;
    check_input(bytes_of(fuzz_library(), oasis), oasis, "base", tally);
    EXPECT_EQ(tally.compared, 1);
  }
}

}  // namespace
}  // namespace ebl
