#include "pec/psf.h"

#include <cmath>
#include <numbers>

#include "util/contracts.h"

namespace ebl {
namespace {

// inf passes a plain > 0 check, and an infinite sigma or weight has no
// grid or normalization downstream.
void expect_finite_positive(const PsfTerm& t) {
  expects(std::isfinite(t.sigma) && t.sigma > 0,
          "Psf: sigma must be finite and positive");
  expects(std::isfinite(t.weight) && t.weight > 0,
          "Psf: weight must be finite and positive");
}

}  // namespace

Psf::Psf(std::vector<PsfTerm> terms) : terms_(std::move(terms)) {
  double sum = 0.0;
  for (const PsfTerm& t : terms_) {
    expect_finite_positive(t);
    sum += t.weight;
  }
  expects(std::isfinite(sum), "Psf: weights must sum to a finite value");
  // Normalize defensively; factory methods already pass normalized weights.
  for (PsfTerm& t : terms_) t.weight /= sum;
}

Psf Psf::single_gaussian(double sigma) { return Psf{{{1.0, sigma}}}; }

Psf Psf::double_gaussian(double alpha, double beta, double eta) {
  expects(eta >= 0, "Psf: eta must be non-negative");
  const double wf = 1.0 / (1.0 + eta);
  return Psf{{{wf, alpha}, {eta * wf, beta}}};
}

Psf Psf::triple_gaussian(double alpha, double beta, double gamma, double eta,
                         double nu) {
  expects(eta >= 0 && nu >= 0, "Psf: ratios must be non-negative");
  const double w = 1.0 / (1.0 + eta + nu);
  return Psf{{{w, alpha}, {eta * w, beta}, {nu * w, gamma}}};
}

Psf Psf::from_terms(std::vector<PsfTerm> terms) {
  expects(!terms.empty(), "Psf: need at least one term");
  // Bypass the normalizing constructor: the terms are the verbatim output of
  // another Psf's terms() (see the header comment), and renormalizing would
  // move each weight by an ulp when their sum is not exactly representable
  // as 1.0.
  Psf psf{{{1.0, 1.0}}};
  for (const PsfTerm& t : terms) expect_finite_positive(t);
  psf.terms_ = std::move(terms);
  return psf;
}

double Psf::value(double r) const {
  double v = 0.0;
  for (const PsfTerm& t : terms_) {
    const double s2 = t.sigma * t.sigma;
    v += t.weight / (std::numbers::pi * s2) * std::exp(-r * r / s2);
  }
  return v;
}

double Psf::min_sigma() const {
  double m = terms_.front().sigma;
  for (const PsfTerm& t : terms_) m = std::min(m, t.sigma);
  return m;
}

double Psf::max_sigma() const {
  double m = terms_.front().sigma;
  for (const PsfTerm& t : terms_) m = std::max(m, t.sigma);
  return m;
}

double term_exposure_rect(const PsfTerm& term, double x0, double x1, double y0,
                          double y1, double px, double py) {
  // Integral of (1/(pi s^2)) exp(-((x-px)^2+(y-py)^2)/s^2) over the rect:
  // product of 1-D factors 0.5 (erf((hi-p)/s) - erf((lo-p)/s)).
  const double inv_s = 1.0 / term.sigma;
  const double fx = 0.5 * (std::erf((x1 - px) * inv_s) - std::erf((x0 - px) * inv_s));
  const double fy = 0.5 * (std::erf((y1 - py) * inv_s) - std::erf((y0 - py) * inv_s));
  return term.weight * fx * fy;
}

double term_exposure_trapezoid(const PsfTerm& term, const Trapezoid& t, double px,
                               double py) {
  if (t.is_rect()) {
    return term_exposure_rect(term, t.xl0, t.xr0, t.y0, t.y1, px, py);
  }
  const double height = static_cast<double>(t.y1) - t.y0;
  const double max_slice = std::max(term.sigma * 0.5, 1.0);
  const int slices = std::max(1, static_cast<int>(std::ceil(height / max_slice)));
  const double inv_h = 1.0 / height;
  double sum = 0.0;
  for (int i = 0; i < slices; ++i) {
    const double ya = t.y0 + height * i / slices;
    const double yb = t.y0 + height * (i + 1) / slices;
    const double ym = 0.5 * (ya + yb);
    const double fl = (ym - t.y0) * inv_h;
    const double xl = t.xl0 + (t.xl1 - t.xl0) * fl;
    const double xr = t.xr0 + (t.xr1 - t.xr0) * fl;
    if (xr <= xl) continue;
    sum += term_exposure_rect(term, xl, xr, ya, yb, px, py);
  }
  return sum;
}

double exposure_trapezoid(const Psf& psf, const Trapezoid& t, double px, double py) {
  double sum = 0.0;
  for (const PsfTerm& term : psf.terms()) {
    sum += term_exposure_trapezoid(term, t, px, py);
  }
  return sum;
}

double backscatter_eta(const Psf& psf) {
  double max_sigma = 0.0;
  for (const PsfTerm& t : psf.terms()) max_sigma = std::max(max_sigma, t.sigma);
  double wb = 0.0;
  double wf = 0.0;
  for (const PsfTerm& t : psf.terms()) (t.sigma == max_sigma ? wb : wf) += t.weight;
  return wf > 0 ? wb / wf : 0.0;
}

}  // namespace ebl
