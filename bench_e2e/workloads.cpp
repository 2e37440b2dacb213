#include "workloads.h"

#include "layout/library.h"
#include "layout/stream.h"
#include "pec/psf.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace e2e {

using namespace ebl;

namespace {

constexpr LayerKey kWrite{1, 0};  // the layer every job preps
constexpr LayerKey kOther{2, 0};  // parsed and dropped (ingest_hier only)

Coord jitter(Rng& rng, Coord amplitude) {
  return static_cast<Coord>(rng.uniform(-amplitude, amplitude));
}

Reference place(CellId child, Coord x, Coord y, double angle = 0.0) {
  Reference r;
  r.child = child;
  r.trans = CTrans{Point{x, y}, angle, 1.0, false};
  return r;
}

Reference array(CellId child, std::uint32_t cols, std::uint32_t rows, Coord step_x,
                Coord step_y, Coord x = 0, Coord y = 0) {
  Reference r = place(child, x, y);
  r.cols = cols;
  r.rows = rows;
  r.col_step = {step_x, 0};
  r.row_step = {0, step_y};
  return r;
}

// ingest_hier: 32 leaves of 20x10 um, each with 6 layer-1 rectangles on a
// 3x2 grid and many layer-2 parallelograms; 8 mid cells place 8 leaves each
// (together covering all 32); one block stacks the 8 mids; the top arrays
// the block. A window of 2 cells re-parses a leaf on almost every visit, and
// the layer-2 shapes make each parse expensive while adding no shots.
Library ingest_hier(Rng& rng, bool quick) {
  constexpr int kLeaves = 32;
  constexpr int kQuads = 1500;
  Library lib("E2E_INGEST_HIER");
  std::vector<CellId> leaves;
  for (int i = 0; i < kLeaves; ++i) {
    const CellId id = lib.add_cell("LEAF" + std::to_string(i));
    Cell& c = lib.cell(id);
    for (int k = 0; k < 6; ++k) {
      const Coord x = 6600 * (k % 3) + 300 + jitter(rng, 200);
      const Coord y = 5000 * (k / 3) + 300 + jitter(rng, 200);
      const Coord w = 2400 + jitter(rng, 400);
      const Coord h = 3600 + jitter(rng, 400);
      c.add_shape(kWrite, Box{x, y, x + w, y + h});
    }
    for (int q = 0; q < kQuads; ++q) {
      const Coord x = static_cast<Coord>(rng.uniform(0, 18000));
      const Coord y = static_cast<Coord>(rng.uniform(0, 8000));
      const Coord w = static_cast<Coord>(rng.uniform(200, 1500));
      const Coord h = static_cast<Coord>(rng.uniform(200, 1500));
      const Coord s = static_cast<Coord>(rng.uniform(50, 500));
      c.add_shape(kOther, SimplePolygon{{{x, y}, {x + w, y}, {x + w + s, y + h}, {x + s, y + h}}});
    }
    leaves.push_back(id);
  }
  std::vector<CellId> mids;
  for (int m = 0; m < 8; ++m) {
    const CellId id = lib.add_cell("MID" + std::to_string(m));
    for (int k = 0; k < 8; ++k)
      lib.cell(id).add_reference(place(leaves[(4 * m + k) % kLeaves], 20000 * k, 0));
    mids.push_back(id);
  }
  const CellId block = lib.add_cell("BLOCK");
  for (int m = 0; m < 8; ++m) lib.cell(block).add_reference(place(mids[m], 0, 10000 * m));
  const CellId top = lib.add_cell("TOP");
  lib.cell(top).add_reference(quick ? array(block, 2, 1, 160000, 80000)
                                    : array(block, 4, 4, 160000, 80000));
  return lib;
}

// front_end: two 20x20 um leaves of overlapping rectangles and right
// triangles; mid A overlaps them, mid B is mid A's pair rotated 90 degrees;
// both are arrayed at the top. The merge sees heavy overlap, all-angle
// edges and many crossings, so the scanline boolean dominates the job. The
// shapes come from a fixed stream and the seed only nudges them, so every
// seed asks for about the same number of crossings.
Library front_end(Rng& rng, bool quick) {
  Rng shape(0xf407);
  Library lib("E2E_FRONT_END");
  CellId leaf[2];
  for (int i = 0; i < 2; ++i) {
    leaf[i] = lib.add_cell("LEAF" + std::to_string(i));
    Cell& c = lib.cell(leaf[i]);
    for (int k = 0; k < 400; ++k) {
      const Coord x = 1000 * (k % 20) + jitter(shape, 400) + jitter(rng, 40);
      const Coord y = 1000 * (k / 20) + jitter(shape, 400) + jitter(rng, 40);
      const Coord w = static_cast<Coord>(shape.uniform(600, 1600));
      const Coord h = static_cast<Coord>(shape.uniform(600, 1600));
      c.add_shape(kWrite, Box{x, y, x + w, y + h});
    }
    for (int k = 0; k < 80; ++k) {
      const Coord x = 2500 * (k % 8) + jitter(shape, 600) + jitter(rng, 40);
      const Coord y = 2000 * (k / 8) + jitter(shape, 600) + jitter(rng, 40);
      const Coord s = static_cast<Coord>(shape.uniform(800, 1600));
      c.add_shape(kWrite, SimplePolygon{{{x, y}, {x + s, y}, {x, y + s}}});
    }
  }
  const CellId mid_a = lib.add_cell("MID_A");
  lib.cell(mid_a).add_reference(place(leaf[0], 0, 0));
  lib.cell(mid_a).add_reference(place(leaf[1], 10000, 5000));
  const CellId mid_b = lib.add_cell("MID_B");
  lib.cell(mid_b).add_reference(place(leaf[1], 0, 0));
  lib.cell(mid_b).add_reference(place(leaf[0], 10000, 5000, 90.0));
  const CellId top = lib.add_cell("TOP");
  const std::uint32_t n = quick ? 1 : 3;
  lib.cell(top).add_reference(array(mid_a, n, n, 40000, 40000));
  lib.cell(top).add_reference(array(mid_b, n, n, 40000, 40000, 20000, 20000));
  return lib;
}

// pec_global / pec_distributed: a 24 um tile (a 20 um pad and a 1 um
// island in the gap) arrayed at the top. The classic iso-dense proximity
// motif, so the corrector must iterate.
Library pad_island(Rng& rng, bool quick) {
  Library lib("E2E_PAD_ISLAND");
  const CellId tile = lib.add_cell("TILE");
  lib.cell(tile).add_shape(kWrite, Box{0, 0, 20000, 20000});
  const Coord ix = 21500 + jitter(rng, 300);
  const Coord iy = 9500 + jitter(rng, 4000);
  lib.cell(tile).add_shape(kWrite, Box{ix, iy, ix + 1000, iy + 1000});
  const CellId top = lib.add_cell("TOP");
  const std::uint32_t n = quick ? 4 : 10;
  lib.cell(top).add_reference(array(tile, n, n, 24000, 24000));
  return lib;
}

// epe_verify: a 14x9 um motif (eight 200 nm lines on a 400 nm pitch, a
// 6 um pad and an isolated 200 nm line) arrayed at the top.
Library epe_motif(Rng& rng, bool quick) {
  Library lib("E2E_EPE_VERIFY");
  const CellId motif = lib.add_cell("MOTIF");
  Cell& c = lib.cell(motif);
  const Coord len = 3700 + jitter(rng, 200);  // 4 shots per line for any seed
  for (int k = 0; k < 8; ++k) c.add_shape(kWrite, Box{400 * k, 1000, 400 * k + 200, 1000 + len});
  const Coord px = 4500 + jitter(rng, 200);
  c.add_shape(kWrite, Box{px, 1000, px + 6000, 7000});
  const Coord lx = 12500 + jitter(rng, 200);
  c.add_shape(kWrite, Box{lx, 1000, lx + 200, 1000 + len});
  const CellId top = lib.add_cell("TOP");
  const std::uint32_t n = quick ? 1 : 3;
  lib.cell(top).add_reference(array(motif, n, n, 14000, 9000));
  return lib;
}

Psf triple_gaussian() { return Psf::triple_gaussian(50, 3000, 600, 0.7, 0.3); }

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ingest_hier", "front_end", "pec_global",
                                                 "pec_distributed", "epe_verify"};
  return names;
}

void check_workload(const std::string& workload) {
  for (const std::string& n : workload_names())
    if (n == workload) return;
  std::string valid;
  for (const std::string& n : workload_names()) valid += " " + n;
  throw ContractViolation("unknown workload '" + workload + "'; valid:" + valid);
}

std::string layout_extension(const std::string& workload) {
  check_workload(workload);
  // The PEC workloads read the other parser.
  return workload.rfind("pec_", 0) == 0 ? ".gds" : ".oas";
}

void write_workload_layout(const std::string& workload, std::uint64_t seed, bool quick,
                           const std::string& path) {
  check_workload(workload);
  Rng rng(seed);
  if (workload == "ingest_hier") {
    write_layout(ingest_hier(rng, quick), path);
  } else if (workload == "front_end") {
    write_layout(front_end(rng, quick), path);
  } else if (workload == "epe_verify") {
    write_layout(epe_motif(rng, quick), path);
  } else {
    write_layout(pad_island(rng, quick), path);
  }
}

PrepOptions workload_prep(const std::string& workload, const std::string& path) {
  check_workload(workload);
  PrepOptions o;
  o.input_path = path;
  o.ingest.layer = kWrite;
  // Pinned below nproc on the 4-core reference host; results do not depend
  // on it, only the timings do.
  o.threads = 2;
  o.fracture.sliver_threshold = 100;
  if (workload == "ingest_hier") {
    o.ingest.window = 2;
    o.fracture.max_shot_size = 2000;
    o.field_size = 100000;
  } else if (workload == "front_end") {
    o.ingest.window = 1;
    o.fracture.max_shot_size = 2000;
    o.field_size = 100000;
  } else if (workload == "epe_verify") {
    o.fracture.max_shot_size = 1000;
    o.field_size = 200000;
    o.pec_psf = triple_gaussian();
    o.epe = PrepEpeOptions{};
    o.epe->print_level = 0.5;
  } else {
    o.fracture.max_shot_size = 2000;
    o.field_size = 200000;
    o.pec_psf = triple_gaussian();
    if (workload == "pec_distributed") {
      // Pinned, not left at 0: with worker_count > 0 and shard_size 0 the
      // pipeline also runs the O(pattern) pec_baseline stage (README.md,
      // findings). 80 um gives 3x3 shards on the 240 um pattern.
      o.pec.shard_size = 80000;
      o.pec.worker_count = 2;
    }
  }
  return o;
}

}  // namespace e2e
