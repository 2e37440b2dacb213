// Point-spread functions for electron scattering in resist.
//
// The classic proximity model (Chang 1975, used by every PEC tool since) is
// a sum of Gaussians:
//
//   f(r) = 1/(pi (1+eta)) [ 1/a^2 exp(-r^2/a^2) + eta/b^2 exp(-r^2/b^2) ]
//
// with a (alpha) the forward-scattering range, b (beta) the backscattering
// range and eta the backscattered-to-forward energy ratio. f integrates to 1
// over the plane, so a uniform unit-dose pattern of infinite extent produces
// exposure exactly 1. All lengths are in dbu (1 nm by default).
#pragma once

#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/trapezoid.h"

namespace ebl {

/// One Gaussian term: weight * (1 / (pi sigma^2)) exp(-r^2 / sigma^2).
struct PsfTerm {
  double weight;  ///< fraction of deposited energy in this term
  double sigma;   ///< range in dbu
};

/// Sum-of-Gaussians point spread function; weights sum to 1.
class Psf {
 public:
  /// Single Gaussian (useful for tests and beam-blur-only studies).
  static Psf single_gaussian(double sigma);

  /// The standard double Gaussian with forward range @p alpha, backscatter
  /// range @p beta, and ratio @p eta.
  static Psf double_gaussian(double alpha, double beta, double eta);

  /// Triple Gaussian: adds a mid-range term @p gamma with ratio @p nu
  /// (fast-secondary-electron tail; used for high-accuracy PEC).
  static Psf triple_gaussian(double alpha, double beta, double gamma, double eta,
                             double nu);

  /// Reconstructs a PSF from explicit, already-normalized terms WITHOUT
  /// renormalizing them — the deserialization entry point of the shard-job
  /// wire format (src/pec/wire.h), where re-dividing by a weight sum that is
  /// not exactly 1.0 would perturb the weights by an ulp and break the
  /// bitwise identity between a remote and an in-process shard solve.
  /// Weights and sigmas must be finite and positive; weights should sum to
  /// ~1 (as terms() of any constructed Psf do).
  static Psf from_terms(std::vector<PsfTerm> terms);

  std::span<const PsfTerm> terms() const { return terms_; }

  /// Density value at radius r (energy per unit area for unit dose).
  double value(double r) const;

  double min_sigma() const;
  double max_sigma() const;

 private:
  explicit Psf(std::vector<PsfTerm> terms);
  std::vector<PsfTerm> terms_;
};

/// Exposure contribution at point (px, py) of a unit-dose axis-aligned
/// rectangle [x0,x1]x[y0,y1] under one Gaussian term — exact (erf product).
double term_exposure_rect(const PsfTerm& term, double x0, double x1, double y0,
                          double y1, double px, double py);

/// Exposure contribution of a unit-dose trapezoid under one term. Slanted
/// sides are handled by slicing into horizontal strips no taller than
/// sigma/2 (error << 1% of the contribution); rectangles are exact.
double term_exposure_trapezoid(const PsfTerm& term, const Trapezoid& t, double px,
                               double py);

/// Full-PSF exposure at @p p of a unit-dose trapezoid.
double exposure_trapezoid(const Psf& psf, const Trapezoid& t, double px, double py);

/// Backscattered-to-forward energy ratio implied by the PSF, taking the
/// longest-range term as "backscatter" — the eta of the closed-form density
/// correction d(u) = (1 + 2 eta) / (1 + 2 eta u). Shared by density_pec and
/// the sharded corrector's warm start.
double backscatter_eta(const Psf& psf);

}  // namespace ebl
