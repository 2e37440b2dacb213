// Edge-placement error (EPE) scoring of a simulated write.
//
// The quality metric a real tool cares about is not the dose vector but
// where the printed edges land. The scorer simulates the dosed shot list
// (sim/exposure_sim's ExposureField, which forms only the pixels the probes
// read), and probes the exposure along the outward normal of every target
// edge: the signed distance from the design edge to the nearest
// print-threshold crossing is that probe's EPE (positive = prints
// oversize, negative = undersize). Per-pattern statistics (p50/p99/max of
// |EPE|) summarize the scenario. A rendered Raster and the field it renders
// from score to the same bits.
#pragma once

#include <vector>

#include "fracture/shot.h"
#include "geom/polygon_set.h"
#include "geom/raster.h"
#include "pec/psf.h"
#include "sim/exposure_sim.h"
#include "sim/resist.h"

namespace ebl {

/// One target edge to probe. Convention: printed material lies to the LEFT
/// of a -> b, so the outward normal is to the right of the travel
/// direction. CCW outer contours and CW hole contours both satisfy this,
/// which is exactly how Polygon normalizes its contours.
struct EpeEdge {
  Point a;
  Point b;
};

struct EpeOptions {
  /// Probe spacing along each edge, dbu. 0 = auto (2 x raster pixel).
  Coord sample_step = 0;

  /// Half-width of the search window along the normal, dbu: a probe scans
  /// [-window, +window] for the nearest threshold crossing. Probes with no
  /// crossing in the window count as `missing` and score the full window
  /// (a bounded worst-case penalty instead of an unbounded outlier).
  Coord search_window = 800;

  /// Probes closer than this to an edge endpoint are skipped (printed
  /// corners round over ~the forward range, which is contour physics, not
  /// edge displacement). 0 = auto (max(4 x raster pixel, 100 dbu)). Edges
  /// too short for any interior probe get a single midpoint probe.
  Coord corner_exclusion = 0;

  /// Simulation knobs for the measure_epe() convenience entry point.
  SimOptions sim;
};

/// EPE statistics over all probes of a scoring pass. Percentiles and max
/// are of |EPE| (nearest-rank); mean_signed keeps the sign and exposes
/// systematic bias (positive = prints oversize).
struct EpeStats {
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean_abs = 0.0;
  double mean_signed = 0.0;
  std::size_t samples = 0;  ///< probes scored (including missing)
  std::size_t missing = 0;  ///< probes with no crossing inside the window
};

/// Accumulates signed EPE probes across scoring calls (e.g. per-level
/// grayscale edges scored at different exposure thresholds) and reduces
/// them to one EpeStats.
class EpeAccumulator {
 public:
  void add(double signed_epe, bool missing);
  /// Adds every probe of @p other after this one's, in its order.
  void append(const EpeAccumulator& other);
  EpeStats finalize() const;
  std::size_t samples() const { return values_.size(); }
  /// The signed EPE of every probe, in the order they were added.
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  std::size_t missing_ = 0;
};

/// Extracts probe edges from target geometry: every contour edge of the
/// merged region, outer and holes, oriented material-left.
std::vector<EpeEdge> epe_edges(const PolygonSet& target);

/// Scores an already-simulated exposure map against explicit target edges
/// at the given print level, on one thread. A probe
/// samples the exposure on the grid s_i = -window + ds * i (ds ~ pixel/2,
/// 16..512 steps) and reports the first crossing in ascending s within ds
/// of the probe point, else the nearest one (the lower s on a tie). It
/// finds that crossing center-out: intervals are visited in order of the
/// least |s| they can hold, starting at the probe point, until none can beat
/// the best found, so a probe whose edge prints near its target takes a
/// handful of samples rather than the whole window.
EpeStats score_epe(const Raster& exposure, double print_level,
                   const std::vector<EpeEdge>& edges,
                   const EpeOptions& options = {});

/// score_epe into an external accumulator (for multi-level scoring).
void score_epe(const Raster& exposure, double print_level,
               const std::vector<EpeEdge>& edges, const EpeOptions& options,
               EpeAccumulator& acc);

/// The same scores read from a lazy exposure field: bit for bit those of
/// its rendered raster, without the raster. Contiguous edge ranges are
/// scored on the field's threads and appended in edge order, so the
/// statistics are identical for any thread count.
EpeStats score_epe(const ExposureField& exposure, double print_level,
                   const std::vector<EpeEdge>& edges,
                   const EpeOptions& options = {});

/// score_epe of the field into an external accumulator.
void score_epe(const ExposureField& exposure, double print_level,
               const std::vector<EpeEdge>& edges, const EpeOptions& options,
               EpeAccumulator& acc);

/// Convenience: build the ExposureField of @p shots with @p psf (on
/// options.sim), then score it against @p target at @p print_level (use
/// ResistModel::print_threshold() or the overload below). Equal bit for bit
/// to score_epe(simulate_exposure(shots, psf, options.sim), ...).
EpeStats measure_epe(const ShotList& shots, const Psf& psf,
                     const PolygonSet& target, double print_level,
                     const EpeOptions& options = {});

/// Same, with the print level taken from the resist model.
EpeStats measure_epe(const ShotList& shots, const Psf& psf,
                     const PolygonSet& target, const ResistModel& resist,
                     const EpeOptions& options = {});

}  // namespace ebl
