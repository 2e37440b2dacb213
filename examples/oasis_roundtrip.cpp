// OASIS round trip + streamed data prep, end to end.
//
// The walkthrough docs/examples.md narrates:
//   1. build a hierarchical pattern (a macro arrayed under a top cell),
//   2. write it to OASIS,
//   3. re-read it through the streaming LayoutStream with a small
//      resident-cell window,
//   4. run a full streamed PEC job straight off the file
//      (run_data_prep(PrepOptions) with input_path set),
//   5. prove the streamed shots are bitwise-identical to flattening the
//      whole library in RAM first.
//
// Run from anywhere; files are written to the current directory (or
// $EBL_ARTIFACT_DIR when set).
#include <iostream>

#include "core/ebl.h"
#include "util/artifacts.h"
#include "util/table.h"

using namespace ebl;

int main() {
  // --- 1. A hierarchical test pattern. ---
  Library lib("OASDEMO");
  const LayerKey metal{1, 0};
  const CellId macro = lib.add_cell("MACRO");
  {
    Cell& c = lib.cell(macro);
    c.add_shape(metal, Box{0, 0, dbu(3.0), dbu(0.8)});
    c.add_shape(metal, Box{0, 0, dbu(0.8), dbu(3.0)});
    c.add_shape(metal, SimplePolygon{{{dbu(1.5), dbu(1.5)},
                                      {dbu(3.0), dbu(1.5)},
                                      {dbu(1.5), dbu(3.0)}}});
  }
  const CellId top = lib.add_cell("TOP");
  Reference array;
  array.child = macro;
  array.cols = 5;
  array.rows = 5;
  array.col_step = {dbu(5.0), 0};
  array.row_step = {0, dbu(5.0)};
  lib.cell(top).add_reference(array);

  // --- 2. Write OASIS (and GDSII, for the conversion demo). ---
  const std::string oas_path = artifact_path("oasis_roundtrip.oas");
  const std::string gds_path = artifact_path("oasis_roundtrip.gds");
  write_oas(lib, oas_path);
  write_gds(lib, gds_path);
  std::cout << "wrote " << oas_path << " and " << gds_path << "\n";

  // --- 3. Stream the OASIS file cell by cell. ---
  const auto stream = open_layout_stream(oas_path);
  StreamCell cell;
  std::cout << "streaming " << oas_path << " (dbu = "
            << stream->dbu_in_microns() << " um):\n";
  while (stream->next(cell)) {
    std::cout << "  cell " << cell.name << ": " << cell.shape_count()
              << " shapes, " << cell.refs.size() << " refs\n";
  }

  // --- 4. A full streamed PEC job straight off the file. ---
  PrepOptions opt;
  opt.input_path = oas_path;
  opt.ingest.layer = metal;
  opt.ingest.window = 2;  // at most 2 parsed cells resident at any moment
  opt.fracture.max_shot_size = dbu(2.0);
  opt.pec_psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  opt.pec.max_iterations = 6;
  const PrepResult streamed = run_data_prep(opt);

  // --- 5. The in-RAM reference path: same file, whole library. ---
  const Library loaded = read_layout(oas_path);
  PrepOptions ram_opt = opt;
  ram_opt.input_path.clear();
  const PrepResult in_ram =
      run_data_prep(loaded, *loaded.find_cell("TOP"), metal, ram_opt);

  const bool identical = streamed.shots == in_ram.shots;

  Table t("streamed OASIS prep vs in-RAM reference");
  t.columns({"metric", "value"});
  t.row("cells in file", streamed.ingest->cells);
  t.row("instances visited", streamed.ingest->placements);
  t.row("polygons streamed", streamed.ingest->polygons);
  t.row("peak resident cells", streamed.ingest->peak_resident);
  t.row("cell reloads", streamed.ingest->reloads);
  t.row("shots", streamed.shots.size());
  t.row("PEC error after", fixed(*streamed.pec_final_error, 3));
  t.row("bitwise identical", identical ? "yes" : "NO");
  t.print();

  return identical ? 0 : 1;
}
