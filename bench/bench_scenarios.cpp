// Scenario-matrix tracker: machine-realistic end-to-end write flows scored
// as printed edge-placement error (sim/scenarios.h).
//
// Every scenario runs the full data-prep pipeline under one realistic
// variation (dose classes, multi-pass grayscale, write ordering, field
// distortion, sharded PEC) and records EPE p50/p99/max of the uncorrected
// vs the corrected write, plus the machine-stage metrics the scenario
// exercises. BENCH_scenarios.json is the breadth ledger the CI trajectory
// guard watches: the epe_after_* columns are quality (lower is better,
// compared absolutely), the *_improvement columns are ratios (higher is
// better).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/scenarios.h"
#include "util/parallel.h"
#include "util/table.h"

using namespace ebl;

namespace {

double improvement(double before, double after) {
  return before / std::max(after, 1e-6);
}

void write_bench_json(const std::vector<ScenarioResult>& results) {
  std::ofstream out("BENCH_scenarios.json");
  out << "{\n  \"bench\": \"scenario_matrix\",\n";
  out << "  \"workload\": \"machine-realistic end-to-end write flows, "
         "EPE-scored before vs after correction (sim/scenarios.h)\",\n";
  out << "  \"threads\": " << resolve_threads(0) << ",\n";
  out << "  \"cases\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out << (i ? "," : "") << "\n    {\"scenario\": \"" << r.name << "\""
        << ", \"shots\": " << r.shots
        << ", \"pec_iterations\": " << r.pec_iterations
        << ",\n     \"epe_before_p50\": " << r.epe_before.p50
        << ", \"epe_before_p99\": " << r.epe_before.p99
        << ", \"epe_before_max\": " << r.epe_before.max
        << ",\n     \"epe_after_p50\": " << r.epe_after.p50
        << ", \"epe_after_p99\": " << r.epe_after.p99
        << ", \"epe_after_max\": " << r.epe_after.max
        << ",\n     \"epe_p50_improvement\": "
        << improvement(r.epe_before.p50, r.epe_after.p50)
        << ", \"epe_p99_improvement\": "
        << improvement(r.epe_before.p99, r.epe_after.p99)
        << ",\n     \"epe_samples\": " << r.epe_after.samples
        << ", \"epe_missing_before\": " << r.epe_before.missing
        << ", \"epe_missing_after\": " << r.epe_after.missing
        << ", \"prep_ms\": " << r.prep_ms << ", \"score_ms\": " << r.score_ms;
    if (r.pec_shards > 1) out << ",\n     \"pec_shards\": " << r.pec_shards;
    if (r.dose_classes_used > 0)
      out << ",\n     \"dose_classes_used\": " << r.dose_classes_used;
    if (r.travel_ordered >= 0.0) {
      out << ",\n     \"travel_unordered_dbu\": " << r.travel_unordered
          << ", \"travel_ordered_dbu\": " << r.travel_ordered
          << ", \"travel_improvement\": "
          << improvement(r.travel_unordered, r.travel_ordered)
          << ", \"settle_unordered_s\": " << r.settle_unordered_s
          << ", \"settle_ordered_s\": " << r.settle_ordered_s;
    }
    if (r.stitch_calibrated >= 0.0) {
      out << ",\n     \"stitch_uncalibrated_dbu\": " << r.stitch_uncalibrated
          << ", \"stitch_calibrated_dbu\": " << r.stitch_calibrated;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --quick is accepted for CLI symmetry with the other benches; the matrix
  // is already sized to finish in seconds, so both modes run everything —
  // which also keeps the guard's case identities matched to the committed
  // baseline.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::cerr << "usage: bench_scenarios [--quick]\n";
      return 2;
    }
  }

  const std::vector<ScenarioResult> results = run_scenario_matrix({});

  Table t("scenario matrix: printed |EPE| before vs after correction (dbu)");
  t.columns({"scenario", "shots", "p50 pre", "p50 post", "p99 pre", "p99 post",
             "max post", "prep ms", "score ms"});
  for (const ScenarioResult& r : results) {
    t.row(r.name, r.shots, fixed(r.epe_before.p50, 1), fixed(r.epe_after.p50, 1),
          fixed(r.epe_before.p99, 1), fixed(r.epe_after.p99, 1),
          fixed(r.epe_after.max, 1), fixed(r.prep_ms, 0), fixed(r.score_ms, 0));
  }
  t.print();

  for (const ScenarioResult& r : results) {
    if (r.travel_ordered >= 0.0) {
      std::cout << r.name << ": serpentine travel "
                << fixed(r.travel_unordered / 1000.0, 0) << " -> "
                << fixed(r.travel_ordered / 1000.0, 0) << " um, settle "
                << fixed(r.settle_unordered_s, 4) << " -> "
                << fixed(r.settle_ordered_s, 4) << " s\n";
    }
    if (r.stitch_calibrated >= 0.0) {
      std::cout << r.name << ": stitching error "
                << fixed(r.stitch_uncalibrated, 1) << " -> "
                << fixed(r.stitch_calibrated, 1) << " dbu after calibration\n";
    }
    if (r.dose_classes_used > 0) {
      std::cout << r.name << ": " << r.dose_classes_used
                << " machine dose classes in use\n";
    }
  }

  write_bench_json(results);
  std::cout << "wrote BENCH_scenarios.json\n";
  return 0;
}
