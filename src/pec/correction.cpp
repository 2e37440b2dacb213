#include "pec/correction.h"

#include <algorithm>
#include <cmath>

#include "geom/raster.h"
#include "util/contracts.h"

namespace ebl {

std::vector<double> density_doses(const ShotList& shots, std::size_t active,
                                  const Psf& psf, const PecOptions& options) {
  // eta = backscattered fraction / forward fraction, taking the
  // longest-range term as "backscatter" (see backscatter_eta).
  const double eta = backscatter_eta(psf);
  const double max_sigma = psf.max_sigma();

  // Blurred pattern density at the backscatter range.
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Coord margin = static_cast<Coord>(std::ceil(4.0 * max_sigma));
  const Coord pixel = std::max<Coord>(1, static_cast<Coord>(max_sigma / 4.0));
  Raster density(frame.bloated(margin), pixel);
  for (const Shot& s : shots) density.add_coverage(s.shape, 1.0);
  // One blur at sigma/4 pixels: a 16-pixel kernel radius.
  gaussian_blur(density, max_sigma, options.exposure.threads);

  std::vector<double> doses(active);
  for (std::size_t i = 0; i < active; ++i) {
    const Trapezoid& t = shots[i].shape;
    const double cx = 0.25 * (double(t.xl0) + t.xr0 + t.xl1 + t.xr1);
    const double cy = 0.5 * (double(t.y0) + t.y1);
    // Bilinear sample with out-of-grid pixels contributing 0: centroids of
    // edge shots can land a pixel outside the padded frame, where nearest-
    // pixel indexing would read a clamped (wrong) border value.
    const double u = std::clamp(density.sample(cx, cy), 0.0, 1.0);
    const double dose = (1.0 + 2.0 * eta) / (1.0 + 2.0 * eta * u);
    doses[i] = std::clamp(dose * options.target, options.min_dose, options.max_dose);
  }
  return doses;
}

PecResult density_pec(const ShotList& shots, const Psf& psf, const PecOptions& options) {
  expects(!shots.empty(), "density_pec: empty shot list");
  const std::vector<double> doses = density_doses(shots, shots.size(), psf, options);
  PecResult result;
  result.shots = shots;
  for (std::size_t i = 0; i < shots.size(); ++i) result.shots[i].dose = doses[i];
  if (options.dose_classes > 0) quantize_doses(result.shots, options.dose_classes);

  ExposureEvaluator eval(result.shots, psf, options.exposure);
  double max_err = 0.0;
  for (double ei : eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
  result.final_max_error = max_err;
  result.iterations = 1;
  result.max_error_history.push_back(max_err);
  return result;
}

int quantize_doses(ShotList& shots, int classes) {
  expects(classes >= 1, "quantize_doses: classes must be >= 1");
  if (shots.empty()) return 0;
  double lo = shots.front().dose;
  double hi = lo;
  for (const Shot& s : shots) {
    lo = std::min(lo, s.dose);
    hi = std::max(hi, s.dose);
  }
  if (hi <= lo) return 1;
  if (classes == 1) {
    // One machine class: the range midpoint minimizes the worst-case snap
    // error (collapsing to the minimum would halve every hot dose).
    const double mid = lo + 0.5 * (hi - lo);
    for (Shot& s : shots) s.dose = mid;
    return 1;
  }
  std::vector<bool> used(static_cast<std::size_t>(classes), false);
  for (Shot& s : shots) {
    const double f = (s.dose - lo) / (hi - lo);
    // Class edges sit halfway between levels; a dose exactly on an edge
    // ties to the HIGHER class (lround rounds half away from zero and
    // f >= 0 here), so boundary doses never lose exposure to the snap.
    int k = static_cast<int>(std::lround(f * (classes - 1)));
    k = std::clamp(k, 0, classes - 1);
    s.dose = lo + (hi - lo) * k / (classes - 1);
    used[static_cast<std::size_t>(k)] = true;
  }
  return static_cast<int>(std::count(used.begin(), used.end(), true));
}

}  // namespace ebl
