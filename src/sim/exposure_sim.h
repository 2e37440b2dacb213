// Exposure simulation: shots -> energy map (lazy or rendered) -> resist
// profile.
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

/// The energy deposition of a dosed shot list on simulate_exposure's grid,
/// with each pixel formed only when it is read. Normalization: an infinite
/// unit-dose pattern gives exposure 1.0.
///
/// The grid is the shots' bbox widened by the margin, in pixels of the
/// simulation pixel. Each PSF term is blurred at the coarsening factor
/// k = term_k(sigma, pixel), the PEC evaluator's per-term map rule:
///  - A narrow term (k == 1, sigma under 8 pixels) is blurred directly at the
///    simulation pixel. Only the dose window is held: the shots' pixel bbox
///    plus the widest narrow kernel radius, clipped to the frame, its low
///    corner aligned down to a multiple of every wide term's k. Past it the
///    blur of a narrow term is 0.0.
///  - A wide term's dose map is box-averaged from that window onto a map
///    k times coarser (one coarse pixel wider than the frame on every side)
///    and blurred there. It is read back bilinearly at fine pixel centres
///    through per-row and per-column tables, so a backscatter kernel costs a
///    few dozen taps per pass instead of hundreds.
/// A pixel is 0.0 + w_0 v_0 + w_1 v_1 + ... in PSF term order, a pure
/// function of its indices, so a probe reads the same bits from the field as
/// from the rendered raster. Building the field costs the coverage of the
/// window and the blurs; the frame itself (mostly backscatter margin) is
/// never stored.
///
/// Throws DataError when the frame spans more than INT_MAX pixels on an
/// axis, when the automatic margin (ceil(4 max sigma)) or pixel (min sigma
/// / 2) does not fit a Coord, or when a term's map factor does not fit an
/// int.
class ExposureField {
 public:
  ExposureField(const ShotList& shots, const Psf& psf, const SimOptions& options = {});

  Point origin() const { return extent_.lo; }
  Coord pixel_size() const { return pix_; }
  int width() const { return nx_; }
  int height() const { return ny_; }

  /// The thread count the field was built with (SimOptions::threads).
  int threads() const { return threads_; }

  /// Raster::sample of render() at a dbu point, bit for bit, computing only
  /// the four pixels it reads.
  double sample(double x, double y) const;

  /// Every pixel of the frame: simulate_exposure's raster. Rows run on the
  /// field's threads; the result is identical for any thread count.
  Raster render() const;

 private:
  // Bilinear read-back weights of one fine pixel centre on a coarse map: the
  // lower map index and the weights 1 - t and t of it and of the next one.
  struct Lerp {
    int i;
    double lo, hi;
  };
  struct Term {
    double weight;
    bool wide;
    // A wide term's blurred coarse map, or a narrow term's blurred window.
    Raster values;
    std::vector<Lerp> cols, rows;  // a wide term's read-back tables
  };

  // Writes pixels [x0, x1) of row y (0 <= y < height(), 0 <= x0 <= x1 <=
  // width()) to out: the one place the per-pixel sum is formed.
  void row(int y, int x0, int x1, double* out) const;

  Box extent_;  // the frame: the shots' bbox widened by the margin
  Coord pix_;
  int nx_, ny_;
  int threads_;
  int wx0_ = 0, wy0_ = 0, ww_ = 0, wh_ = 0;  // the dose window, in frame pixels
  std::vector<Term> terms_;
};

/// Energy deposition map of a dosed shot list: ExposureField rendered at
/// every pixel of its frame.
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
