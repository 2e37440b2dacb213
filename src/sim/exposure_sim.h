// Full-field exposure simulation: shots -> energy map -> resist profile.
#pragma once

#include <optional>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/psf.h"
#include "sim/resist.h"

namespace ebl {

struct SimOptions {
  /// Simulation pixel in dbu; must resolve the forward range (<= alpha/2
  /// recommended). 0 = auto (psf.min_sigma() / 2, at least 1).
  Coord pixel = 0;

  /// Extra frame margin in dbu beyond the pattern bbox; 0 = auto
  /// (4 * max sigma).
  Coord margin = 0;

  /// Worker threads for the per-term Gaussian blurs (0 = auto: EBL_THREADS
  /// env var, else hardware concurrency). Output is identical for any value.
  int threads = 0;
};

/// Energy deposition map of a dosed shot list: coverage rasterization of the
/// dose followed by one separable Gaussian convolution per PSF term.
/// Normalization: infinite unit-dose pattern -> exposure 1.0.
///
/// Each term is blurred at the coarsening factor k = term_k(sigma, pixel) —
/// the PEC evaluator's per-term map rule. A term with k == 1 (sigma under 8
/// pixels) is blurred directly at the simulation pixel, on the window the
/// shots cover plus the kernel radius (the rest of the frame stays 0). A
/// wider term's dose map is box-averaged onto a map k times coarser (one
/// coarse pixel wider than the frame on every side), blurred there, and read
/// back bilinearly at every pixel centre through per-row and per-column
/// tables, so a backscatter kernel costs a few dozen taps per pass instead of
/// hundreds. The result is built in the dose raster itself: one pass sums
/// the terms per pixel as 0.0 + w_0 v_0 + w_1 v_1 + ... in PSF term order.
/// Throws DataError when the frame spans more than INT_MAX pixels on an axis.
Raster simulate_exposure(const ShotList& shots, const Psf& psf,
                         const SimOptions& options = {});

/// Applies a resist curve pixel-wise: exposure map -> thickness map [0,1].
Raster develop(const Raster& exposure, const ResistModel& resist);

/// Samples the raster along segment a->b (bilinear), returning n values.
std::vector<double> profile_along(const Raster& raster, Point a, Point b, int n);

/// All level-crossing positions (in dbu from a) of the bilinear profile
/// along a->b.
std::vector<double> crossings_along(const Raster& raster, double level, Point a,
                                    Point b, int samples = 512);

/// Critical dimension: distance between the first rising and last falling
/// crossing of @p level along a->b; nullopt when the feature does not print
/// or does not clear.
std::optional<double> measure_cd(const Raster& exposure, double level, Point a,
                                 Point b, int samples = 512);

/// One closed or open develop-contour polyline in dbu coordinates.
using ContourLine = std::vector<std::pair<double, double>>;

/// Marching-squares iso-contours of the raster at @p level, with linear
/// interpolation along cell edges and segment stitching into polylines.
std::vector<ContourLine> extract_contours(const Raster& raster, double level);

}  // namespace ebl
