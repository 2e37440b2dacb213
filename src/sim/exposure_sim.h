// Full-field exposure simulation: shots -> energy map -> resist profile.
#pragma once

#include <optional>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/exposure.h"  // blur primitives
#include "pec/psf.h"
#include "sim/resist.h"

namespace ebl {

/// How the simulator convolves its raster with each PSF term.
enum class BlurBackend {
  kAuto,    ///< flop-model choice: FFT when the kernel width makes it a win
  kDirect,  ///< separable sliding-window passes (fast for narrow kernels)
  kFft,     ///< padded real FFT + kernel spectra (width-independent cost)
};

/// The flop-model decision behind BlurBackend::kAuto: true when spectral
/// convolution of an nx-by-ny raster with one kernel per entry of radii
/// (sharing a single forward transform) beats running the separable passes
/// for each, including the measured direct-vs-FFT throughput gap.
bool fft_blur_wins(int nx, int ny, const std::vector<std::size_t>& radii);

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

  /// Convolution backend for the per-term blurs. The simulator rasters at
  /// the forward-scattering resolution, so backscatter kernels span hundreds
  /// of pixels — exactly where the FFT engine wins: kAuto transforms the
  /// dose map once and applies every wide term's spectrum to it, keeping the
  /// separable passes only for narrow terms. Backend choice moves results by
  /// no more than floating-point rounding.
  BlurBackend blur_backend = BlurBackend::kAuto;
};

/// Energy deposition map of a dosed shot list: coverage rasterization of the
/// dose followed by one separable Gaussian convolution per PSF term.
/// Normalization: infinite unit-dose pattern -> exposure 1.0.
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
