// Tests for exposure evaluation and proximity-effect correction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "util/contracts.h"

namespace ebl {
namespace {

// A dense pad (backscatter-rich) next to an isolated small square: the
// canonical proximity-effect test case.
ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});          // 20 µm pad
  s.insert(Box{40000, 9500, 41000, 10500});   // isolated 1 µm square, 20 µm away
  return fracture(s, {.max_shot_size = 2000}).shots;
}

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

TEST(ExposureEvaluator, UniformLargePadCenterIsOne) {
  PolygonSet s;
  s.insert(Box{0, 0, 40000, 40000});  // 40 µm >> 4 beta
  const ShotList shots = fracture(s, {.max_shot_size = 4000}).shots;
  const ExposureEvaluator eval(shots, test_psf());
  EXPECT_NEAR(eval.exposure_at(20000.0, 20000.0), 1.0, 0.02);
  // Pad edge: half the energy.
  EXPECT_NEAR(eval.exposure_at(0.0, 20000.0), 0.5, 0.02);
  // Far outside: nothing.
  EXPECT_NEAR(eval.exposure_at(-30000.0, 20000.0), 0.0, 0.01);
}

TEST(ExposureEvaluator, IsolatedSmallFeatureGetsForwardShareOnly) {
  PolygonSet s;
  s.insert(Box{0, 0, 1000, 1000});  // 1 µm square, alpha = 50 nm << 1 µm << beta
  const ShotList shots = fracture(s).shots;
  const ExposureEvaluator eval(shots, test_psf());
  // Center sees the full forward term but almost no backscatter:
  // E ~ 1/(1+eta) = 0.588.
  EXPECT_NEAR(eval.exposure_at(500.0, 500.0), 1.0 / 1.7, 0.03);
}

TEST(ExposureEvaluator, MatchesBruteForceAnalytic) {
  // Cross-check the two-scale evaluator against the direct erf sum.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const ExposureEvaluator eval(shots, psf);
  for (const auto& probe : {std::pair{10000.0, 10000.0}, {40500.0, 10000.0},
                            {25000.0, 10000.0}}) {
    double brute = 0.0;
    for (const Shot& s : shots)
      brute += s.dose * exposure_trapezoid(psf, s.shape, probe.first, probe.second);
    EXPECT_NEAR(eval.exposure_at(probe.first, probe.second), brute, 0.03)
        << "at " << probe.first << "," << probe.second;
  }
}

TEST(ExposureEvaluator, TripleGaussianMatchesBruteForceAnalytic) {
  // Two long-range terms on different maps: gamma = 600 on the 150-dbu base,
  // beta = 3000 on a 5x coarser 750-dbu map box-averaged from it. Both sit at
  // pixel h = sigma/4. Per axis, collapsing each pixel's coverage to its
  // center adds h^2/12 of kernel variance (error h^2/24 |E''|), and the
  // bilinear read-out errs by at most h^2/8 |E''|. Coverage lies in [0, 1],
  // so |E''| is at most half the L1 norm of the term's second derivative,
  // 0.968 w / sigma^2. Two axes at h = sigma/4 give
  // 2 * (1/24 + 1/8) * 0.968 / 16 ~= w / 50 per term (a 250-dbu probe grid
  // over this pattern peaks at 3.4e-3 against the bound's 1e-2).
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  const ExposureEvaluator eval(shots, psf);
  double long_weight = 0.0;
  for (const PsfTerm& t : psf.terms())
    if (t.sigma >= kLongRangeThreshold) long_weight += t.weight;
  const double tol = long_weight / 50.0;
  for (const auto& probe : {std::pair{10000.0, 10000.0},  // pad interior
                            {3000.0, 17000.0},            // near a pad corner
                            {20000.0, 10000.0},           // pad edge
                            {20400.0, 600.0},             // just off a corner
                            {40500.0, 10000.0},           // island center
                            {41000.0, 10500.0},           // island corner
                            {25000.0, 10000.0}}) {        // the gap
    double brute = 0.0;
    for (const Shot& s : shots)
      brute += s.dose * exposure_trapezoid(psf, s.shape, probe.first, probe.second);
    EXPECT_NEAR(eval.exposure_at(probe.first, probe.second), brute, tol)
        << "at " << probe.first << "," << probe.second;
  }
}

TEST(ExposureEvaluator, SetActiveDosesScalesExposure) {
  PolygonSet s;
  s.insert(Box{0, 0, 2000, 2000});
  const ShotList shots = fracture(s).shots;
  ExposureEvaluator eval(shots, test_psf());
  const double base = eval.exposure_at(1000.0, 1000.0);
  std::vector<double> doses(shots.size(), 2.0);
  eval.set_active_doses(doses);
  EXPECT_NEAR(eval.exposure_at(1000.0, 1000.0), 2.0 * base, 1e-6);
}

TEST(ExposureEvaluator, QueryFarFromThePatternIsZero) {
  // "Query points may be anywhere": a point 1e14 dbu away lies past every
  // neighbor cell and every map pixel, and must read exactly 0 without an
  // out-of-range cast on the way.
  PolygonSet s;
  s.insert(Box{0, 0, 2000, 2000});
  const ExposureEvaluator eval(fracture(s).shots, test_psf());
  for (const double far : {1e14, -1e14}) {
    EXPECT_EQ(eval.exposure_at(far, 0.0), 0.0) << far;
    EXPECT_EQ(eval.exposure_at(0.0, far), 0.0) << far;
    EXPECT_EQ(eval.exposure_at(far, -far), 0.0) << far;
  }
}

TEST(Pec, UncorrectedPatternHasLargeIsoDenseGap) {
  const ShotList shots = pad_and_island();
  const ExposureEvaluator eval(shots, test_psf());
  const auto exposures = eval.exposures_at_centroids();
  const double lo = *std::min_element(exposures.begin(), exposures.end());
  const double hi = *std::max_element(exposures.begin(), exposures.end());
  // Pad interior ~1.0; isolated island ~0.59.
  EXPECT_GT(hi / lo, 1.4);
}

TEST(Pec, IterativeCorrectionEqualizesExposure) {
  const ShotList shots = pad_and_island();
  PecOptions opt;
  opt.max_iterations = 8;
  opt.tolerance = 0.005;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  EXPECT_LT(r.final_max_error, 0.05);
  // Convergence history is monotone decreasing (geometric decay).
  for (std::size_t i = 1; i < r.max_error_history.size(); ++i)
    EXPECT_LT(r.max_error_history[i], r.max_error_history[i - 1] + 1e-9);
  // The isolated island must have received a higher dose than the pad core.
  double pad_dose = 0.0;
  double island_dose = 0.0;
  for (const Shot& s : r.shots) {
    const Box bb = s.shape.bbox();
    if (bb.lo.x >= 40000) island_dose = std::max(island_dose, s.dose);
    if (bb.hi.x <= 20000 && bb.lo.x >= 8000 && bb.lo.y >= 8000 && bb.hi.y <= 12000)
      pad_dose = std::max(pad_dose, s.dose);
  }
  EXPECT_GT(island_dose, pad_dose * 1.2);
}

TEST(Pec, IterationCountIncludesTheLastUpdateAtTheCap) {
  // A tolerance no sweep meets stops the solve at max_iterations: every
  // allowed update ran, and the history holds one sweep more (the one that
  // measured the delivered doses).
  const ShotList shots = pad_and_island();
  for (const int cap : {1, 3}) {
    PecOptions opt;
    opt.max_iterations = cap;
    opt.tolerance = 1e-9;
    const PecResult r = correct_proximity(shots, test_psf(), opt);
    EXPECT_EQ(r.iterations, cap);
    ASSERT_EQ(r.max_error_history.size(), static_cast<std::size_t>(cap) + 1);
    EXPECT_EQ(r.max_error_history.back(), r.final_max_error);
  }
}

TEST(Pec, CorrectionReducesErrorVsUncorrected) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const ExposureEvaluator eval(shots, psf);
  double uncorrected = 0.0;
  for (double e : eval.exposures_at_centroids())
    uncorrected = std::max(uncorrected, std::abs(e - 1.0));
  const PecResult r = correct_proximity(shots, psf);
  EXPECT_LT(r.final_max_error, uncorrected / 3.0);
}

TEST(Pec, DensityPecAlsoImproves) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const ExposureEvaluator eval(shots, psf);
  double uncorrected = 0.0;
  for (double e : eval.exposures_at_centroids())
    uncorrected = std::max(uncorrected, std::abs(e - 1.0));
  const PecResult r = density_pec(shots, psf);
  EXPECT_LT(r.final_max_error, uncorrected);
}

TEST(Pec, DoseClampRespected) {
  const ShotList shots = pad_and_island();
  PecOptions opt;
  opt.min_dose = 0.8;
  opt.max_dose = 1.5;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  for (const Shot& s : r.shots) {
    EXPECT_GE(s.dose, 0.8);
    EXPECT_LE(s.dose, 1.5);
  }
}

TEST(Pec, QuantizeDoses) {
  ShotList shots;
  for (int i = 0; i <= 10; ++i) {
    shots.push_back({Trapezoid::rect(Box{Coord(i * 100), 0, Coord(i * 100 + 50), 50}),
                     1.0 + 0.1 * i});
  }
  const int used = quantize_doses(shots, 4);
  EXPECT_LE(used, 4);
  std::vector<double> distinct;
  for (const Shot& s : shots) {
    if (std::find(distinct.begin(), distinct.end(), s.dose) == distinct.end())
      distinct.push_back(s.dose);
  }
  EXPECT_LE(distinct.size(), 4u);
  // Extremes preserved.
  EXPECT_DOUBLE_EQ(*std::min_element(distinct.begin(), distinct.end()), 1.0);
  EXPECT_DOUBLE_EQ(*std::max_element(distinct.begin(), distinct.end()), 2.0);
}

TEST(Pec, QuantizeSingleClassSnapsToRangeMidpoint) {
  ShotList shots{{Trapezoid::rect(Box{0, 0, 50, 50}), 1.0},
                 {Trapezoid::rect(Box{100, 0, 150, 50}), 2.0},
                 {Trapezoid::rect(Box{200, 0, 250, 50}), 4.0}};
  EXPECT_EQ(quantize_doses(shots, 1), 1);
  for (const Shot& s : shots) EXPECT_DOUBLE_EQ(s.dose, 2.5);
}

TEST(Pec, QuantizeConstantDosesUnchanged) {
  ShotList shots{{Trapezoid::rect(Box{0, 0, 50, 50}), 1.7},
                 {Trapezoid::rect(Box{100, 0, 150, 50}), 1.7}};
  EXPECT_EQ(quantize_doses(shots, 1), 1);
  EXPECT_EQ(quantize_doses(shots, 8), 1);
  for (const Shot& s : shots) EXPECT_DOUBLE_EQ(s.dose, 1.7);
}

TEST(Pec, QuantizeClassEdgeTiesToHigherClass) {
  // Range [1, 2], 3 classes -> levels 1.0, 1.5, 2.0 with edges at 1.25 and
  // 1.75. Edge doses snap up; just-below doses snap down.
  const auto make = [](double dose) {
    return Shot{Trapezoid::rect(Box{0, 0, 50, 50}), dose};
  };
  ShotList shots{make(1.0), make(2.0), make(1.25), make(1.75),
                 make(1.2499999), make(1.7499999)};
  EXPECT_EQ(quantize_doses(shots, 3), 3);
  EXPECT_DOUBLE_EQ(shots[2].dose, 1.5);  // exactly on edge: up
  EXPECT_DOUBLE_EQ(shots[3].dose, 2.0);  // exactly on edge: up
  EXPECT_DOUBLE_EQ(shots[4].dose, 1.0);  // below edge: down
  EXPECT_DOUBLE_EQ(shots[5].dose, 1.5);  // below edge: down
}

TEST(Pec, QuantizeEmptyAndSingleShot) {
  ShotList empty;
  EXPECT_EQ(quantize_doses(empty, 5), 0);
  ShotList one{{Trapezoid::rect(Box{0, 0, 50, 50}), 3.0}};
  EXPECT_EQ(quantize_doses(one, 5), 1);
  EXPECT_DOUBLE_EQ(one[0].dose, 3.0);
}

TEST(Pec, QuantizeRejectsNonPositiveClasses) {
  ShotList shots{{Trapezoid::rect(Box{0, 0, 50, 50}), 1.0}};
  EXPECT_THROW(quantize_doses(shots, 0), ContractViolation);
}

TEST(Pec, QuantizedCorrectionStillBeatsUncorrected) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const ExposureEvaluator eval(shots, psf);
  double uncorrected = 0.0;
  for (double e : eval.exposures_at_centroids())
    uncorrected = std::max(uncorrected, std::abs(e - 1.0));
  PecOptions opt;
  opt.dose_classes = 8;
  const PecResult r = correct_proximity(shots, psf, opt);
  EXPECT_LT(r.final_max_error, uncorrected);
}

TEST(ExposureEvaluator, OptimizedQueryMatchesBruteForceReference) {
  // Adversarial reference for the CSR-grid + epoch-stamp neighbor path: an
  // all-short-range PSF makes the evaluator purely analytic, so it must
  // agree with the O(shots x queries) direct sum over every shot to within
  // the cutoff truncation (cutoff_sigmas = 6 pushes that below 1e-9 of the
  // term weight).
  ShotList shots = pad_and_island();
  // Slanted shapes and non-uniform doses exercise the trapezoid slicing and
  // dose weighting paths too.
  shots.push_back({Trapezoid{9000, 10000, 42000, 43000, 42500, 42500}, 1.0});
  shots.push_back({Trapezoid{12000, 13500, 44000, 44000, 43000, 45000}, 1.0});
  for (std::size_t i = 0; i < shots.size(); ++i)
    shots[i].dose = 0.5 + 0.01 * static_cast<double>(i % 173);

  const Psf psf = Psf::double_gaussian(40.0, 150.0, 0.5);  // both terms short
  ExposureOptions opt;
  opt.cutoff_sigmas = 6.0;
  const ExposureEvaluator eval(shots, psf, opt);

  std::vector<std::pair<double, double>> probes = {
      {10000.0, 10000.0}, {40500.0, 10000.0}, {42510.0, 9500.0},
      {43800.0, 12750.0}, {19990.0, 19990.0}, {25000.0, 10000.0},
      {-500.0, -500.0}};
  for (std::size_t i = 0; i < shots.size(); i += 7) {
    probes.push_back(eval.centroid(i));
  }
  for (const auto& [px, py] : probes) {
    double brute = 0.0;
    for (const Shot& s : shots)
      brute += s.dose * exposure_trapezoid(psf, s.shape, px, py);
    EXPECT_NEAR(eval.exposure_at(px, py), brute, 1e-6) << "at " << px << "," << py;
  }
}

TEST(ExposureEvaluator, CentroidSweepIsBitIdenticalAcrossThreadCounts) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();  // short + long term: exercises grid, banded
                               // gather, and both blur passes
  std::vector<std::vector<double>> results;
  for (const int threads : {1, 2, 8}) {
    ExposureOptions opt;
    opt.threads = threads;
    ExposureEvaluator eval(shots, psf, opt);
    // Push the evaluator through a dose update so the parallel banded
    // re-gather is covered as well.
    std::vector<double> doses(shots.size());
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
    eval.set_active_doses(doses);
    results.push_back(eval.exposures_at_centroids());
  }
  ASSERT_EQ(results[0].size(), shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]) << "1 vs 2 threads at shot " << i;
    EXPECT_EQ(results[0][i], results[2][i]) << "1 vs 8 threads at shot " << i;
  }
}

TEST(Pec, CorrectionIsBitIdenticalAcrossThreadCounts) {
  const ShotList shots = pad_and_island();
  std::vector<ShotList> corrected;
  for (const int threads : {1, 4}) {
    PecOptions opt;
    opt.max_iterations = 4;
    opt.exposure.threads = threads;
    corrected.push_back(correct_proximity(shots, test_psf(), opt).shots);
  }
  ASSERT_EQ(corrected[0].size(), corrected[1].size());
  for (std::size_t i = 0; i < corrected[0].size(); ++i)
    EXPECT_EQ(corrected[0][i].dose, corrected[1][i].dose) << "shot " << i;
}

TEST(GaussianBlur, PreservesMassInInterior) {
  Raster r(Box{0, 0, 10000, 10000}, 100);
  // Uniform field: blur must be identity in the interior.
  for (double& v : r.data()) v = 1.0;
  gaussian_blur(r, 500.0);
  EXPECT_NEAR(r.at(50, 50), 1.0, 1e-9);
}

TEST(GaussianBlur, SpreadsPointSymmetrically) {
  Raster r(Box{0, 0, 20000, 20000}, 100);
  r.at(100, 100) = 1.0;
  gaussian_blur(r, 800.0);
  EXPECT_NEAR(r.at(92, 100), r.at(108, 100), 1e-12);
  EXPECT_NEAR(r.at(100, 92), r.at(100, 108), 1e-12);
  EXPECT_GT(r.at(100, 100), r.at(104, 100));
  // Total mass preserved away from the borders.
  EXPECT_NEAR(r.sum(), 1.0, 1e-6);
}

}  // namespace
}  // namespace ebl
