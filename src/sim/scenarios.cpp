#include "sim/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>

#include "core/job.h"
#include "core/patterns.h"
#include "fracture/fracture.h"
#include "machine/distortion.h"
#include "machine/field.h"
#include "machine/ordering.h"
#include "pec/correction.h"
#include "sim/resist.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace ebl {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Psf standard_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

int distinct_doses(const ShotList& shots) {
  std::set<double> doses;
  for (const Shot& s : shots) doses.insert(s.dose);
  return static_cast<int>(doses.size());
}

EpeStats score_shots(const ShotList& shots, const Psf& psf,
                     const PolygonSet& target, double level, EpeOptions epe,
                     int threads) {
  epe.sim.threads = threads;
  return measure_epe(shots, psf, target, level, epe);
}

/// The standard scenario skeleton: run the full run_data_prep pipeline on
/// @p target, then score the printed result of the nominal (unit-dose
/// fractured) write against the corrected write. A straight edge of a
/// locally uniform unit-dose region prints at exactly half the interior
/// exposure — i.e. correctly — so targets here mix large pads with the
/// isolated/small features whose uncorrected print is genuinely wrong;
/// those are the features PEC exists for, and they dominate the probes.
ScenarioResult pipeline_scenario(const char* name, const char* description,
                                 const PolygonSet& target, PrepOptions prep,
                                 const EpeOptions& epe,
                                 const ScenarioOptions& options) {
  ScenarioResult r;
  r.name = name;
  r.description = description;
  prep.threads = options.threads;
  const Psf psf = *prep.pec_psf;

  const ShotList nominal = fracture(target, prep.fracture).shots;

  auto t0 = Clock::now();
  PrepResult res = run_data_prep(target, prep);
  r.prep_ms = ms_since(t0);
  r.pec_iterations = res.pec_iterations;
  r.pec_shards = res.pec_shards;
  if (prep.pec.dose_classes > 0) r.dose_classes_used = distinct_doses(res.shots);

  t0 = Clock::now();
  r.epe_before = score_shots(nominal, psf, target, 0.5, epe, options.threads);
  r.epe_after = score_shots(res.shots, psf, target, 0.5, epe, options.threads);
  r.score_ms = ms_since(t0);

  r.shots = res.shots.size();
  r.corrected = std::move(res.shots);
  return r;
}

/// 12 µm pad next to a 5x5 grid of isolated 1 µm islands.
PolygonSet pad_and_island_grid() {
  PolygonSet s;
  s.insert(Box{0, 0, 12000, 12000});
  for (int iy = 0; iy < 5; ++iy) {
    for (int ix = 0; ix < 5; ++ix) {
      const Coord x = 16000 + 3000 * ix;
      const Coord y = 3000 * iy;
      s.insert(Box{x, y, x + 1000, y + 1000});
    }
  }
  return s;
}

PrepOptions global_pec_prep() {
  PrepOptions prep;
  prep.fracture.max_shot_size = 2000;
  prep.pec_psf = standard_psf();
  prep.pec.max_iterations = 12;
  prep.pec.tolerance = 0.005;
  return prep;
}

ScenarioResult scenario_iso_dense(const ScenarioOptions& options) {
  EpeOptions epe;
  epe.sim.pixel = 25;
  epe.search_window = 400;
  return pipeline_scenario(
      "iso_dense", "12um pad + 5x5 isolated 1um islands, global PEC",
      pad_and_island_grid(), global_pec_prep(), epe, options);
}

ScenarioResult scenario_grating_isoline(const ScenarioOptions& options) {
  // 25%-density grating (undersizes uncorrected) plus an isolated line.
  PolygonSet target = line_space_array({0, 0}, 300, 1200, 12000, 13);
  target.insert(Box{22000, 0, 22300, 12000});
  EpeOptions epe;
  epe.sim.pixel = 25;
  epe.search_window = 400;
  return pipeline_scenario(
      "grating_isoline", "300nm/1200nm grating + isolated 300nm line, global PEC",
      target, global_pec_prep(), epe, options);
}

ScenarioResult scenario_dose_classes(const ScenarioOptions& options) {
  PrepOptions prep = global_pec_prep();
  prep.pec.dose_classes = 16;
  EpeOptions epe;
  epe.sim.pixel = 25;
  epe.search_window = 400;
  return pipeline_scenario(
      "dose_classes_16",
      "iso_dense flow snapped to a 16-entry machine dose table",
      pad_and_island_grid(), prep, epe, options);
}

ScenarioResult scenario_multipass_grayscale(const ScenarioOptions& options) {
  ScenarioResult r;
  r.name = "multipass_grayscale";
  r.description =
      "8-level staircase, 2-pass write, per-level graded PEC, contrast resist";

  const int levels = 8;
  const int passes = 2;
  const Coord step_w = 2000;
  const Coord height = 16000;
  const Coord tile = 2000;
  const ContrastResist resist(1.0, 0.4);
  const Psf psf = standard_psf();

  // One exposure target per shot from the inverse contrast curve; the
  // designed dose is split evenly over the passes (a second pass averages
  // beam-current drift on real machines; here it exercises dose additivity).
  ShotList shots;
  std::vector<double> targets;
  for (int pass = 0; pass < passes; ++pass) {
    for (int i = 0; i < levels; ++i) {
      const double target = resist.exposure_for_thickness((i + 1.0) / levels);
      for (Coord y = 0; y < height; y += tile) {
        shots.push_back({Trapezoid::rect(Box{i * step_w, y, (i + 1) * step_w,
                                             y + tile}),
                         target / passes});
        targets.push_back(target);
      }
    }
  }
  const ShotList nominal = shots;

  // Graded Jacobi PEC: same update rule as correct_proximity, but with a
  // per-shot exposure target instead of the single global one.
  const auto t0 = Clock::now();
  ExposureOptions eopt;
  eopt.threads = options.threads;
  ExposureEvaluator eval(shots, psf, eopt);
  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;
  int iters = 0;
  for (; iters < 15; ++iters) {
    const std::vector<double> exposures = eval.exposures_at_centroids();
    double err = 0.0;
    for (std::size_t i = 0; i < doses.size(); ++i)
      err = std::max(err, std::abs(exposures[i] / targets[i] - 1.0));
    if (err < 0.01) break;
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = std::clamp(doses[i] * targets[i] / exposures[i], 0.05, 8.0);
    eval.set_active_doses(doses);
  }
  r.pec_iterations = iters;
  ShotList corrected = shots;
  for (std::size_t i = 0; i < corrected.size(); ++i) corrected[i].dose = doses[i];
  r.prep_ms = ms_since(t0);

  // Grayscale EPE: each inter-step boundary is a printed edge of the level
  // halfway between the two step thicknesses — score the lateral placement
  // of that exposure contour, one print level per boundary.
  const auto score = [&](const ShotList& list) {
    SimOptions sim;
    sim.pixel = 50;
    sim.threads = options.threads;
    const ExposureField exposure(list, psf, sim);
    EpeOptions epe;
    epe.sample_step = 250;
    epe.search_window = 2500;
    epe.corner_exclusion = 2000;
    EpeAccumulator acc;
    for (int i = 0; i + 1 < levels; ++i) {
      const double level = resist.exposure_for_thickness((i + 1.5) / levels);
      const Coord xb = (i + 1) * step_w;
      // Material-left convention: the thicker (higher-exposure) side is +x.
      const std::vector<EpeEdge> edge{{Point{xb, height}, Point{xb, 0}}};
      score_epe(exposure, level, edge, epe, acc);
    }
    return acc.finalize();
  };
  const auto t1 = Clock::now();
  r.epe_before = score(nominal);
  r.epe_after = score(corrected);
  r.score_ms = ms_since(t1);

  r.shots = corrected.size();
  r.corrected = std::move(corrected);
  return r;
}

ScenarioResult scenario_serpentine_order(const ScenarioOptions& options) {
  Rng rng(11);
  const PolygonSet target =
      random_manhattan(rng, Box{0, 0, 40000, 40000}, 0.08, 600, 3000);
  EpeOptions epe;
  epe.sim.pixel = 50;
  epe.search_window = 400;
  ScenarioResult r = pipeline_scenario(
      "serpentine_order",
      "scattered features, global PEC, serpentine write order + settle model",
      target, global_pec_prep(), epe, options);
  // EPE is order-independent; the machine stage reorders the corrected list
  // and the settle model prices the deflection travel it saves.
  const double settle_per_um = 1e-6;
  const double floor_per_figure = 1e-5;
  r.travel_unordered = total_travel(r.corrected);
  r.settle_unordered_s =
      deflection_settle_time(r.corrected, settle_per_um, floor_per_figure);
  order_serpentine(r.corrected, 4000);
  r.travel_ordered = total_travel(r.corrected);
  r.settle_ordered_s =
      deflection_settle_time(r.corrected, settle_per_um, floor_per_figure);
  return r;
}

ScenarioResult scenario_field_distortion(const ScenarioOptions& options) {
  ScenarioResult r;
  r.name = "field_distortion";
  r.description =
      "2x2 exposure fields, deflection distortion + calibrated affine "
      "correction composed with global PEC";

  PolygonSet target;
  for (int fy = 0; fy < 2; ++fy) {
    for (int fx = 0; fx < 2; ++fx) {
      const Coord ox = 10000 * fx;
      const Coord oy = 10000 * fy;
      target.insert(Box{ox + 500, oy + 500, ox + 4500, oy + 4500});
      for (int iy = 0; iy < 2; ++iy) {
        for (int ix = 0; ix < 2; ++ix) {
          const Coord x = ox + 6000 + 3000 * ix;
          const Coord y = oy + 6000 + 3000 * iy;
          target.insert(Box{x, y, x + 1000, y + 1000});
        }
      }
    }
  }

  const DeflectionDistortion dist{.scale_x = 60.0,
                                  .scale_y = -45.0,
                                  .rotation = 40.0,
                                  .pincushion = 15.0,
                                  .offset_x = 6.0,
                                  .offset_y = -9.0};
  // The machine calibrates the affine part against registration marks (with
  // measurement noise) and pre-compensates it; the pincushion residual and
  // the noise floor are what still lands on the resist.
  const DeflectionDistortion residual = calibrate_affine(dist, 7, 0.25, 99);
  DeflectionDistortion fitted;
  fitted.scale_x = dist.scale_x - residual.scale_x;
  fitted.scale_y = dist.scale_y - residual.scale_y;
  fitted.rotation = dist.rotation - residual.rotation;
  fitted.pincushion = dist.pincushion - residual.pincushion;
  fitted.offset_x = dist.offset_x - residual.offset_x;
  fitted.offset_y = dist.offset_y - residual.offset_y;
  r.stitch_uncalibrated = max_stitching_error(dist);
  r.stitch_calibrated = max_stitching_error(residual);

  const Psf psf = standard_psf();
  PrepOptions prep = global_pec_prep();
  prep.threads = options.threads;
  prep.field_size = 10000;

  const auto write_fields = [&](std::vector<FieldJob> fields, bool correct) {
    ShotList written;
    for (FieldJob& f : fields) {
      if (correct) apply_distortion(f.shots, f.field, fitted, -1.0);
      apply_distortion(f.shots, f.field, dist, 1.0);
      written.insert(written.end(), f.shots.begin(), f.shots.end());
    }
    return written;
  };

  // Uncorrected write: nominal doses, raw column distortion.
  const ShotList nominal = fracture(target, prep.fracture).shots;
  const ShotList nominal_written =
      write_fields(partition_fields(nominal, prep.field_size), false);

  auto t0 = Clock::now();
  PrepResult res = run_data_prep(target, prep);
  ShotList corrected_written = write_fields(std::move(res.fields), true);
  r.prep_ms = ms_since(t0);
  r.pec_iterations = res.pec_iterations;

  EpeOptions epe;
  epe.sim.pixel = 25;
  epe.search_window = 400;
  t0 = Clock::now();
  r.epe_before = score_shots(nominal_written, psf, target, 0.5, epe, options.threads);
  r.epe_after =
      score_shots(corrected_written, psf, target, 0.5, epe, options.threads);
  r.score_ms = ms_since(t0);

  r.shots = corrected_written.size();
  r.corrected = std::move(corrected_written);
  return r;
}

ScenarioResult scenario_sharded_pads(const ScenarioOptions& options) {
  PolygonSet target;
  for (int ty = 0; ty < 3; ++ty) {
    for (int tx = 0; tx < 3; ++tx) {
      const Coord ox = 16000 * tx;
      const Coord oy = 16000 * ty;
      target.insert(Box{ox, oy, ox + 4000, oy + 4000});
      for (int iy = 0; iy < 3; ++iy) {
        for (int ix = 0; ix < 3; ++ix) {
          const Coord x = ox + 6000 + 4000 * ix;
          const Coord y = oy + 6000 + 4000 * iy;
          target.insert(Box{x, y, x + 1000, y + 1000});
        }
      }
    }
  }
  PrepOptions prep = global_pec_prep();
  prep.pec.tolerance = 0.01;
  prep.pec.max_iterations = 10;
  prep.pec.shard_size = 16000;  // 3x3 shards over the 47um extent
  EpeOptions epe;
  epe.sim.pixel = 50;
  epe.search_window = 400;
  return pipeline_scenario(
      "sharded_pads", "3x3 pad+island tiles corrected by the sharded PEC pipeline",
      target, prep, epe, options);
}

using ScenarioFn = ScenarioResult (*)(const ScenarioOptions&);

struct ScenarioEntry {
  const char* name;
  ScenarioFn run;
};

constexpr ScenarioEntry kScenarios[] = {
    {"iso_dense", scenario_iso_dense},
    {"grating_isoline", scenario_grating_isoline},
    {"dose_classes_16", scenario_dose_classes},
    {"multipass_grayscale", scenario_multipass_grayscale},
    {"serpentine_order", scenario_serpentine_order},
    {"field_distortion", scenario_field_distortion},
    {"sharded_pads", scenario_sharded_pads},
};

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioEntry& e : kScenarios) names.emplace_back(e.name);
  return names;
}

ScenarioResult run_scenario(const std::string& name,
                            const ScenarioOptions& options) {
  for (const ScenarioEntry& e : kScenarios) {
    if (name == e.name) return e.run(options);
  }
  throw ContractViolation("run_scenario: unknown scenario " + name);
}

std::vector<ScenarioResult> run_scenario_matrix(const ScenarioOptions& options) {
  std::vector<ScenarioResult> results;
  for (const ScenarioEntry& e : kScenarios) results.push_back(e.run(options));
  return results;
}

}  // namespace ebl
