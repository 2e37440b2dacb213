// The end-to-end data-preparation pipeline:
//   layout geometry -> merge/booleans -> fracture -> (PEC) -> field
//   partition -> shot records + write-time estimates.
// This is the top-level API a downstream user drives; each stage is also
// available individually through the per-module headers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fracture/fracture.h"
#include "layout/library.h"
#include "layout/stream.h"
#include "machine/field.h"
#include "machine/writer.h"
#include "pec/correction.h"
#include "sim/epe.h"

namespace ebl {

/// Optional printed-result verification: simulate the final shot list with
/// the PEC PSF and score edge-placement error against the input geometry
/// (see sim/epe.h). This is the closed-loop quality stat — what the doses
/// actually print — as opposed to the dose-space pec_final_error.
struct PrepEpeOptions {
  /// Exposure level treated as the print threshold (use
  /// ResistModel::print_threshold() for a calibrated resist).
  double print_level = 0.5;

  /// Probe/simulation knobs. score.sim.threads == 0 inherits
  /// PrepOptions::threads.
  EpeOptions score;
};

struct PrepOptions {
  FractureOptions fracture;

  /// Worker threads for every parallel stage the pipeline runs: the boolean
  /// merge in front of fracture, the PEC exposure evaluator, the field
  /// partition and the EPE simulation. Follows the codebase-wide
  /// precedence: a per-stage knob set explicitly (pec.exposure.threads or
  /// epe->score.sim.threads != 0) wins over this value; 0 here defers to
  /// the EBL_THREADS environment variable and then to hardware
  /// concurrency. Results are identical for any value.
  int threads = 0;

  /// Proximity correction: when set, the iterative corrector runs with this
  /// PSF after fracturing.
  std::optional<Psf> pec_psf;
  PecOptions pec;

  /// When > 0, shots are partitioned into exposure fields of this size.
  Coord field_size = 0;

  /// When set (and pec_psf is set), the pipeline ends with an "epe" stage
  /// scoring the final shots' printed edges against the input geometry;
  /// the result lands in PrepResult::epe.
  std::optional<PrepEpeOptions> epe;

  /// Machine models to estimate write time for (all three by default).
  RasterScanParams raster;
  VectorScanParams vector_scan;
  VsbParams vsb;

  /// Streamed file input, used by run_data_prep(const PrepOptions&): the
  /// layout at this path (.gds / .gdsii / .oas / .oasis, dispatched by
  /// extension) is ingested cell by cell and fractured without ever
  /// materializing the library in RAM. `ingest` picks the top cell, the
  /// layer, and the resident-cell window (see layout/stream.h).
  std::string input_path;
  IngestOptions ingest;
};

struct MachineEstimate {
  std::string machine;
  WriteTime time;
};

/// Wall-clock of one executed pipeline stage (see PrepResult::stage_times).
struct StageTime {
  std::string name;
  double ms = 0.0;
};

struct PrepResult {
  ShotList shots;                   ///< final dosed shots (all fields)
  FractureStats fracture;
  std::vector<FieldJob> fields;     ///< empty when field_size == 0
  std::size_t boundary_straddlers = 0;

  /// PEC summary (present when pec_psf was set). pec_uncorrected_error is
  /// a one-shard solve's first-sweep error (PecResult::max_error_history
  /// front, measured at the input doses on the whole-pattern evaluator).
  /// Multi-shard jobs leave it unset: their first sweep already runs on
  /// density-warmed doses, and a whole-pattern evaluator is exactly what
  /// sharding avoids.
  std::optional<double> pec_final_error;
  std::optional<double> pec_uncorrected_error;
  int pec_iterations = 0;
  int pec_shards = 0;   ///< shard count of the solve (1 = whole pattern)
  int pec_workers = 0;  ///< worker slots of the distributed solve
                        ///< (pec.worker_count > 0); 0 = in-process

  /// Distributed-solve fault accounting (all zero/false on a fault-free or
  /// in-process run): workers respawned, shard jobs re-enqueued after a
  /// worker failure, and whether restart exhaustion forced part of the solve
  /// back in-process. Recovery replays identical jobs, so nonzero values
  /// flag operational trouble — never a difference in the doses.
  int pec_worker_restarts = 0;
  int pec_reassigned_jobs = 0;
  bool pec_degraded_to_inprocess = false;

  std::vector<MachineEstimate> estimates;

  /// Printed edge-placement error of the final shot list (present when
  /// PrepOptions::epe and pec_psf were both set).
  std::optional<EpeStats> epe;

  /// Streaming-ingestion counters (present for file-input jobs run through
  /// run_data_prep(const PrepOptions&)).
  std::optional<IngestStats> ingest;

  /// Wall-clock per executed stage, in execution order. Stage names:
  /// "fracture", "pec", "field_partition", "write_time", "epe" (when
  /// PrepOptions::epe is set); disabled stages are absent. File-input jobs
  /// replace "fracture" with "ingest", which covers the fused
  /// stream-and-fracture front end. Sharded PEC jobs additionally
  /// record one "pec_round_N" entry per halo-exchange round plus
  /// "pec_measure" when a final measurement pass ran — sub-stages of "pec",
  /// listed just before it — so the exchange cost is visible in profiles.
  std::vector<StageTime> stage_times;

  const WriteTime& time_for(const std::string& machine) const;
};

/// Runs the pipeline on explicit geometry.
PrepResult run_data_prep(const PolygonSet& geometry, const PrepOptions& options = {});

/// Runs the pipeline on one layer of a hierarchical layout (flattens first).
PrepResult run_data_prep(const Library& lib, CellId top, LayerKey layer,
                         const PrepOptions& options = {});

/// Runs the pipeline on a layout file (options.input_path must be set):
/// cells stream through the bounded window straight into fracture, so peak
/// memory is O(window) cells plus the shot list — never the flat geometry.
/// The shots are bitwise-identical to flattening the same file in RAM.
PrepResult run_data_prep(const PrepOptions& options);

}  // namespace ebl
