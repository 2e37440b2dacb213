// I1 — Streaming ingestion throughput and window behavior.
//
// Measures the new front door (layout/stream.h): an OASIS file streamed
// cell-at-a-time through a bounded window straight into fracture, against
// the classic path (read whole library, flatten, fracture). Three scenario
// shapes stress different window dynamics:
//
//   macro_array — one macro placed NxN: the window holds 1 cell, zero
//                 reloads, the streamed path should track the in-RAM one.
//   deep_reuse  — interleaved leaves under two mid cells arrayed at the
//                 top: a tight window must evict and re-parse (reload cost).
//   flat_cells  — many sibling cells each placed once: a pure sweep, the
//                 worst case for directory overhead per cell.
//   layered     — deep_reuse with off-layer geometry on both sides of the
//                 target layer in file order: every leaf carries layer-0
//                 shapes before kMetal, and LEAF_A layer-2 shapes after it.
//                 A re-read decodes and drops the off-layer records before
//                 its first target shape, stops after its last one in
//                 LEAF_A, and reads LEAF_B to the end (no early stop).
//
// Every case asserts the streamed shots are bitwise-identical to the in-RAM
// reference (the whole point of the emission-order contract); the bench
// exits nonzero on any mismatch, so the CI smoke run doubles as an
// end-to-end equivalence check. BENCH_ingest.json records the trajectory;
// streamed_vs_inram_speedup is the same-host ratio the regression guard
// watches.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/ebl.h"
#include "util/artifacts.h"
#include "util/rng.h"
#include "util/table.h"

using namespace ebl;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

constexpr LayerKey kMetal{1, 0};
constexpr LayerKey kBelow{0, 0};  // written before kMetal
constexpr LayerKey kAbove{2, 0};  // written after kMetal

void fill_macro(Cell& c, Rng& rng, int rects, int triangles, LayerKey layer = kMetal) {
  for (int i = 0; i < rects; ++i) {
    const Coord x = static_cast<Coord>(rng.uniform(0, 18000));
    const Coord y = static_cast<Coord>(rng.uniform(0, 18000));
    const Coord w = static_cast<Coord>(rng.uniform(100, 1500));
    const Coord h = static_cast<Coord>(rng.uniform(100, 1500));
    c.add_shape(layer, Box{x, y, static_cast<Coord>(x + w), static_cast<Coord>(y + h)});
  }
  for (int i = 0; i < triangles; ++i) {
    const Coord x = static_cast<Coord>(rng.uniform(0, 18000));
    const Coord y = static_cast<Coord>(rng.uniform(0, 18000));
    const Coord s = static_cast<Coord>(rng.uniform(300, 1200));
    c.add_shape(layer, SimplePolygon{{{x, y},
                                       {static_cast<Coord>(x + s), y},
                                       {x, static_cast<Coord>(y + s)}}});
  }
}

Library macro_array(std::uint32_t n) {
  Library lib("I1A");
  Rng rng(41);
  const CellId macro = lib.add_cell("MACRO");
  fill_macro(lib.cell(macro), rng, 120, 20);
  const CellId top = lib.add_cell("TOP");
  Reference r;
  r.child = macro;
  r.cols = n;
  r.rows = n;
  r.col_step = {20000, 0};
  r.row_step = {0, 20000};
  lib.cell(top).add_reference(r);
  return lib;
}

Library deep_reuse(std::uint32_t n) {
  Library lib("I1B");
  Rng rng(43);
  const CellId leaf_a = lib.add_cell("LEAF_A");
  fill_macro(lib.cell(leaf_a), rng, 60, 10);
  const CellId leaf_b = lib.add_cell("LEAF_B");
  fill_macro(lib.cell(leaf_b), rng, 60, 10);
  // Two mids that interleave the leaves in opposite order: any window
  // smaller than 2 re-parses a leaf on every visit.
  const CellId mid_a = lib.add_cell("MID_A");
  const CellId mid_b = lib.add_cell("MID_B");
  for (int i = 0; i < 2; ++i) {
    Reference r;
    r.child = i == 0 ? leaf_a : leaf_b;
    r.trans = CTrans{Point{static_cast<Coord>(i * 20000), 0}, 0.0, 1.0, false};
    lib.cell(mid_a).add_reference(r);
    r.child = i == 0 ? leaf_b : leaf_a;
    lib.cell(mid_b).add_reference(r);
  }
  const CellId top = lib.add_cell("TOP");
  Reference r;
  r.child = mid_a;
  r.cols = n;
  r.rows = n;
  r.col_step = {40000, 0};
  r.row_step = {0, 40000};
  lib.cell(top).add_reference(r);
  r.child = mid_b;
  r.trans = CTrans{Point{0, static_cast<Coord>(40000u * n)}, 0.0, 1.0, false};
  lib.cell(top).add_reference(r);
  return lib;
}

Library flat_cells(std::uint32_t count) {
  Library lib("I1C");
  Rng rng(47);
  const CellId top = lib.add_cell("TOP");
  for (std::uint32_t i = 0; i < count; ++i) {
    const CellId c = lib.add_cell("C" + std::to_string(i));
    fill_macro(lib.cell(c), rng, 24, 4);
    Reference r;
    r.child = c;
    r.trans = CTrans{Point{static_cast<Coord>((i % 16) * 20000),
                           static_cast<Coord>((i / 16) * 20000)},
                     0.0, 1.0, false};
    lib.cell(top).add_reference(r);
  }
  return lib;
}

Library layered(std::uint32_t n) {
  Library lib = deep_reuse(n);
  Rng rng(53);
  Cell& leaf_a = lib.cell(*lib.find_cell("LEAF_A"));
  Cell& leaf_b = lib.cell(*lib.find_cell("LEAF_B"));
  fill_macro(leaf_a, rng, 300, 100, kBelow);
  fill_macro(leaf_b, rng, 300, 100, kBelow);
  fill_macro(leaf_a, rng, 300, 100, kAbove);
  return lib;
}

struct IngestCase {
  std::string scenario;
  std::size_t cells = 0;
  std::size_t shots = 0;
  std::size_t window = 0;
  std::size_t peak_resident = 0;
  std::size_t cell_parses = 0;
  std::size_t reloads = 0;
  double streamed_ms = 0.0;
  double inram_ms = 0.0;
  double shots_per_sec = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

IngestCase run_case(const std::string& scenario, const Library& lib,
                    std::size_t window) {
  const std::string path = artifact_path("bench_ingest.oas");
  write_oas(lib, path);

  FractureOptions fopt;
  fopt.max_shot_size = 2000;

  // In-RAM reference: whole-file read + flatten + fracture.
  auto t0 = std::chrono::steady_clock::now();
  const Library loaded = read_layout(path);
  const FractureResult reference =
      fracture(loaded.flatten(*loaded.find_cell("TOP"), kMetal), fopt);
  const double inram_ms = ms_since(t0);

  // Streamed: bounded window, geometry never materialized.
  IngestOptions iopt;
  iopt.layer = kMetal;
  iopt.window = window;
  t0 = std::chrono::steady_clock::now();
  const auto stream = open_layout_stream(path);
  const StreamFractureResult streamed = stream_fracture(*stream, iopt, fopt);
  const double streamed_ms = ms_since(t0);

  IngestCase c;
  c.scenario = scenario;
  c.cells = streamed.ingest.cells;
  c.shots = streamed.fracture.shots.size();
  c.window = window;
  c.peak_resident = streamed.ingest.peak_resident;
  c.cell_parses = streamed.ingest.cell_parses;
  c.reloads = streamed.ingest.reloads;
  c.streamed_ms = streamed_ms;
  c.inram_ms = inram_ms;
  c.shots_per_sec = streamed_ms > 0 ? 1000.0 * double(c.shots) / streamed_ms : 0.0;
  c.speedup = streamed_ms > 0 ? inram_ms / streamed_ms : 0.0;
  c.identical = streamed.fracture.shots == reference.shots;
  return c;
}

void write_bench_json(const std::vector<IngestCase>& cases) {
  std::ofstream out("BENCH_ingest.json");
  out << "{\n  \"bench\": \"ingest\",\n";
  out << "  \"workload\": \"streamed OASIS -> fracture with a bounded "
         "resident-cell window vs whole-library in-RAM prep "
         "(layout/stream.h)\",\n";
  out << "  \"cases\": [";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const IngestCase& c = cases[i];
    out << (i ? "," : "") << "\n    {\"scenario\": \"" << c.scenario << "\""
        << ", \"shots\": " << c.shots << ", \"cells\": " << c.cells
        << ", \"window\": " << c.window
        << ",\n     \"peak_resident_cells\": " << c.peak_resident
        << ", \"cell_parses\": " << c.cell_parses << ", \"reloads\": " << c.reloads
        << ",\n     \"streamed_ms\": " << c.streamed_ms
        << ", \"inram_ms\": " << c.inram_ms
        << ", \"ingest_shots_per_sec\": " << c.shots_per_sec
        << ",\n     \"streamed_vs_inram_speedup\": " << c.speedup
        << ", \"bitwise_identical\": " << (c.identical ? 1 : 0) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: bench_ingest [--quick]\n";
      return 2;
    }
  }

  std::vector<IngestCase> cases;
  cases.push_back(run_case("macro_array", macro_array(quick ? 6 : 16), 4));
  cases.push_back(run_case("deep_reuse", deep_reuse(quick ? 3 : 8), 1));
  cases.push_back(run_case("flat_cells", flat_cells(quick ? 24 : 128), 1));
  cases.push_back(run_case("layered", layered(quick ? 3 : 8), 1));

  Table t("I1: streamed OASIS ingestion vs in-RAM prep");
  t.columns({"scenario", "cells", "shots", "window", "peak", "reloads",
             "streamed ms", "in-RAM ms", "identical"});
  bool all_identical = true;
  for (const IngestCase& c : cases) {
    t.row(c.scenario, c.cells, c.shots, c.window, c.peak_resident, c.reloads,
          fixed(c.streamed_ms, 1), fixed(c.inram_ms, 1), c.identical ? "yes" : "NO");
    all_identical = all_identical && c.identical;
  }
  t.print();

  write_bench_json(cases);
  std::cout << "wrote BENCH_ingest.json\n";
  if (!all_identical) {
    std::cerr << "bench_ingest: streamed shots diverged from the in-RAM path\n";
    return 1;
  }
  return 0;
}
