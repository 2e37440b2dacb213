// Tests for PSF models and analytic exposure integrals.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "pec/psf.h"
#include "util/contracts.h"

namespace ebl {
namespace {

TEST(Psf, WeightsNormalized) {
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  double sum = 0.0;
  for (const PsfTerm& t : psf.terms()) sum += t.weight;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(psf.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(psf.min_sigma(), 50.0);
  EXPECT_DOUBLE_EQ(psf.max_sigma(), 3000.0);
}

TEST(Psf, DoubleGaussianWeightsMatchEta) {
  const double eta = 0.7;
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, eta);
  EXPECT_NEAR(psf.terms()[0].weight, 1.0 / (1.0 + eta), 1e-12);
  EXPECT_NEAR(psf.terms()[1].weight, eta / (1.0 + eta), 1e-12);
}

TEST(Psf, TripleGaussianThreeTerms) {
  const Psf psf = Psf::triple_gaussian(30.0, 3000.0, 300.0, 0.7, 0.2);
  EXPECT_EQ(psf.terms().size(), 3u);
  double sum = 0.0;
  for (const PsfTerm& t : psf.terms()) sum += t.weight;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Psf, ValueIntegratesToOne) {
  // Radial integral of f(r) 2 pi r dr over [0, inf) must be ~1.
  const Psf psf = Psf::double_gaussian(50.0, 500.0, 0.7);
  double integral = 0.0;
  const double dr = 0.5;
  for (double r = dr / 2; r < 5000.0; r += dr) {
    integral += psf.value(r) * 2.0 * std::numbers::pi * r * dr;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Psf, RejectsBadParameters) {
  EXPECT_THROW(Psf::single_gaussian(-1.0), ContractViolation);
  EXPECT_THROW(Psf::double_gaussian(10.0, 100.0, -0.1), ContractViolation);
}

TEST(Psf, RejectsNonFiniteTerms) {
  // inf passes a plain > 0 check; neither constructor may accept it.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Psf::single_gaussian(inf), ContractViolation);
  EXPECT_THROW(Psf::double_gaussian(50.0, inf, 0.5), ContractViolation);
  EXPECT_THROW(Psf::double_gaussian(50.0, 3000.0, inf), ContractViolation);
  EXPECT_THROW(Psf::from_terms({{1.0, inf}}), ContractViolation);
  EXPECT_THROW(Psf::from_terms({{inf, 50.0}}), ContractViolation);
  EXPECT_THROW(Psf::from_terms({{nan, 50.0}}), ContractViolation);
  EXPECT_THROW(Psf::from_terms({{0.5, 50.0}, {0.5, nan}}), ContractViolation);
  // Finite but enormous is a valid PSF; the simulator decides whether its
  // grid can hold it.
  EXPECT_NO_THROW(Psf::double_gaussian(50.0, 1e10, 0.5));
}

TEST(TermExposure, HugeRectConvergesToWeight) {
  // The pattern covers everything: exposure must equal the term weight.
  const PsfTerm term{0.6, 100.0};
  const double e = term_exposure_rect(term, -1e6, 1e6, -1e6, 1e6, 0.0, 0.0);
  EXPECT_NEAR(e, 0.6, 1e-9);
}

TEST(TermExposure, HalfPlaneGivesHalfWeight) {
  const PsfTerm term{1.0, 100.0};
  // Point on the edge of a half-plane pattern: exactly half the energy.
  const double e = term_exposure_rect(term, 0.0, 1e6, -1e6, 1e6, 0.0, 0.0);
  EXPECT_NEAR(e, 0.5, 1e-9);
}

TEST(TermExposure, QuarterPlaneCorner) {
  const PsfTerm term{1.0, 100.0};
  const double e = term_exposure_rect(term, 0.0, 1e6, 0.0, 1e6, 0.0, 0.0);
  EXPECT_NEAR(e, 0.25, 1e-9);
}

TEST(TermExposure, FarAwayIsZero) {
  const PsfTerm term{1.0, 100.0};
  const double e = term_exposure_rect(term, 0.0, 100.0, 0.0, 100.0, 5000.0, 0.0);
  EXPECT_LT(e, 1e-12);
}

TEST(TermExposure, SymmetricAboutRectCenter) {
  const PsfTerm term{1.0, 80.0};
  const double e1 = term_exposure_rect(term, 0, 200, 0, 100, 60.0, 30.0);
  const double e2 = term_exposure_rect(term, 0, 200, 0, 100, 140.0, 70.0);
  EXPECT_NEAR(e1, e2, 1e-12);
}

TEST(TermExposure, TrapezoidSlicingMatchesRectForRect) {
  const PsfTerm term{1.0, 50.0};
  const Trapezoid rect = Trapezoid::rect(Box{0, 0, 300, 200});
  const double analytic = term_exposure_rect(term, 0, 300, 0, 200, 150.0, 100.0);
  const double sliced = term_exposure_trapezoid(term, rect, 150.0, 100.0);
  EXPECT_DOUBLE_EQ(analytic, sliced);
}

TEST(TermExposure, TriangleApproximatelyHalfOfSquare) {
  // A right triangle is half the square; at a point far from the diagonal
  // relative to sigma, exposure ratio approaches the coverage ratio.
  const PsfTerm term{1.0, 2000.0};
  const Trapezoid square = Trapezoid::rect(Box{0, 0, 400, 400});
  const Trapezoid tri{0, 400, 0, 400, 0, 0};
  const double es = term_exposure_trapezoid(term, square, 200.0, 200.0);
  const double et = term_exposure_trapezoid(term, tri, 200.0, 200.0);
  EXPECT_NEAR(et / es, 0.5, 0.02);
}

TEST(TermExposure, FullPsfSumsTerms) {
  const Psf psf = Psf::double_gaussian(50.0, 500.0, 0.7);
  const Trapezoid t = Trapezoid::rect(Box{-100, -100, 100, 100});
  double manual = 0.0;
  for (const PsfTerm& term : psf.terms())
    manual += term_exposure_trapezoid(term, t, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(exposure_trapezoid(psf, t, 0.0, 0.0), manual);
}

}  // namespace
}  // namespace ebl
