// Machine-realistic write-flow scenarios scored as printed edge placement.
//
// Each scenario runs an end-to-end data-prep flow (fracture -> PEC ->
// machine stage) under one realistic variation — dose-class quantization,
// multi-pass grayscale, shot ordering, field distortion, sharded PEC — and
// scores the *printed result* twice through the exposure simulator and the
// EPE scorer (sim/epe.h): once for the uncorrected write and once for the
// fully corrected one. The contract every scenario must uphold, pinned by
// tests/scenario_matrix_test.cpp and tracked by bench/bench_scenarios.cpp:
// EPE after correction < EPE before, and the corrected shot list is
// bitwise identical for any thread count.
#pragma once

#include <string>
#include <vector>

#include "fracture/shot.h"
#include "sim/epe.h"

namespace ebl {

struct ScenarioOptions {
  /// Worker threads for the PEC solve and the simulations (0 = auto:
  /// EBL_THREADS, then hardware concurrency). Results are bit-identical
  /// for any value.
  int threads = 0;
};

struct ScenarioResult {
  std::string name;
  std::string description;

  std::size_t shots = 0;       ///< corrected flow's final shot count
  EpeStats epe_before;         ///< uncorrected write (unit/nominal doses)
  EpeStats epe_after;          ///< corrected write (PEC + machine stages)

  double prep_ms = 0.0;        ///< data-prep wall clock (corrected flow)
  double score_ms = 0.0;       ///< simulation + EPE scoring wall clock

  int pec_iterations = 0;
  int pec_shards = 0;          ///< PEC shard count; 1 = whole-pattern solve
  int dose_classes_used = 0;   ///< quantized scenarios; 0 = continuous

  /// Ordering scenario: deflection travel (dbu) and settle time (s) of the
  /// pipeline order vs the machine order. Negative = not applicable.
  double travel_unordered = -1.0;
  double travel_ordered = -1.0;
  double settle_unordered_s = -1.0;
  double settle_ordered_s = -1.0;

  /// Distortion scenario: field-stitching error (dbu) before and after
  /// affine calibration. Negative = not applicable.
  double stitch_uncalibrated = -1.0;
  double stitch_calibrated = -1.0;

  /// The corrected, machine-ordered shot list the scenario would hand to
  /// the writer — kept so callers can assert bitwise determinism.
  ShotList corrected;
};

/// Names of all scenarios in the matrix, in run order.
std::vector<std::string> scenario_names();

/// Runs one scenario by name. Throws ContractViolation for unknown names.
ScenarioResult run_scenario(const std::string& name,
                            const ScenarioOptions& options = {});

/// Runs the whole matrix.
std::vector<ScenarioResult> run_scenario_matrix(const ScenarioOptions& options = {});

}  // namespace ebl
