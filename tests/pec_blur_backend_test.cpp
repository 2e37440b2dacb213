// Long-range blur tests: the PEC evaluator's per-term maps (each long-range
// term box-averaged onto its own raster and blurred by the separable
// passes), edge cases of that direct blur, and the simulator's direct/FFT
// backend agreement — both backends compute the same truncated normalized
// kernel, so they must agree far below the 1e-6 the accuracy budget asks for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fracture/fracture.h"
#include "pec/exposure.h"
#include "sim/exposure_sim.h"
#include "util/rng.h"

namespace ebl {
namespace {

ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9500, 41000, 10500});
  return fracture(s, {.max_shot_size = 2000}).shots;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

Raster random_raster(Box frame, Coord pixel, std::uint64_t seed) {
  Raster r(frame, pixel);
  Rng rng(seed);
  for (double& v : r.data()) v = rng.uniform_real(0.0, 2.0);
  return r;
}

TEST(GaussianBlur, OnePixelRasterKeepsOnlyTheCenterTap) {
  // Every tap but the center falls off the edge and is skipped, not
  // renormalized.
  Raster r(Box{0, 0, 50, 50}, 100);
  ASSERT_EQ(r.width(), 1);
  ASSERT_EQ(r.height(), 1);
  r.at(0, 0) = 2.0;
  const std::vector<double> taps = gaussian_kernel_taps(300.0 / 100.0);
  gaussian_blur(r, 300.0);
  EXPECT_NEAR(r.at(0, 0), 2.0 * taps[0] * taps[0], 1e-12);
}

TEST(GaussianBlur, SigmaSmallerThanOnePixelIsNearIdentity) {
  // sigma << pixel: the radius clamps to 1 and the center weight dominates.
  Raster r = random_raster(Box{0, 0, 3000, 3000}, 100, 7);
  const Raster before = r;
  gaussian_blur(r, 20.0);  // sigma_px = 0.2
  EXPECT_GT(gaussian_kernel_taps(0.2)[0], 0.99);
  EXPECT_NEAR(r.at(15, 15), before.at(15, 15), 0.02);
}

TEST(GaussianBlur, SigmaLargerThanRasterDrainsMassOffTheEdges) {
  // Kernel support far beyond the raster: zero boundaries, no wraparound,
  // so most of the mass leaves but what stays is positive.
  Raster r = random_raster(Box{0, 0, 1000, 800}, 100, 13);
  const double before = r.sum();
  gaussian_blur(r, 5000.0);  // sigma_px = 50 >> 10 pixels
  EXPECT_GT(r.sum(), 0.0);
  EXPECT_LT(r.sum(), 0.1 * before);
  EXPECT_LT(r.max_value(), 0.5);
}

TEST(ExposureEvaluator, BlurPerfCountsRefreshes) {
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  ExposureEvaluator eval(shots, psf);
  const int before = eval.blur_perf().refreshes;
  EXPECT_GE(before, 1);  // construction accumulates once
  eval.set_doses(std::vector<double>(shots.size(), 1.1));
  EXPECT_EQ(eval.blur_perf().refreshes, before + 1);
  EXPECT_GE(eval.blur_perf().blur_ms, 0.0);
  EXPECT_GE(eval.blur_perf().accumulate_ms, 0.0);
}

TEST(ExposureEvaluator, CoarseTermMapMatchesASingleTermEvaluatorOnItsGrid) {
  // Triple Gaussian: the base pixel is gamma / 4 = 150 dbu, and beta = 3000
  // blurs on a 5x coarser 750-dbu map box-averaged from it. A beta-only
  // evaluator rasterizes straight onto 750-dbu pixels, and an alpha + gamma
  // evaluator keeps the 150-dbu base; with the default 4-sigma margins all
  // three grids share pixel boundaries, so the two parts must sum to the
  // triple evaluator up to the float precision of the cached splat
  // fractions.
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  const auto terms = psf.terms();
  const ExposureEvaluator triple(shots, psf);
  const ExposureEvaluator near(shots, Psf::from_terms({terms[0], terms[2]}));
  const ExposureEvaluator beta(shots, Psf::from_terms({terms[1]}));
  const std::vector<double> a = triple.exposures_at_centroids();
  const std::vector<double> b = near.exposures_at_centroids();
  const std::vector<double> c = beta.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i] + c[i], 1e-6) << "shot " << i;
  for (const auto& [x, y] : {std::pair{-9000.0, 10000.0}, {30000.0, 25000.0},
                             {52000.0, -11000.0}}) {
    EXPECT_NEAR(triple.exposure_at(x, y),
                near.exposure_at(x, y) + beta.exposure_at(x, y), 1e-6)
        << "at " << x << "," << y;
  }
}

TEST(BlurBackendDispatch, AutoPrefersDirectForNarrowAndFftForWide) {
  // The simulator's flop model must keep narrow kernels on the separable
  // path and hand very wide kernels to the FFT.
  EXPECT_FALSE(fft_blur_wins(1000, 1000, {16}));
  EXPECT_TRUE(fft_blur_wins(1000, 1000, {480}));
  // Several wide kernels amortize the shared forward transform.
  EXPECT_TRUE(fft_blur_wins(1000, 1000, {200, 200, 200}));
}

TEST(Sim, SimulateExposureAgreesAcrossBackends) {
  // At simulation resolution (pixel = alpha/2) the backscatter kernel spans
  // hundreds of pixels, so kAuto sends it to the FFT — the result must
  // stay within rounding of the all-direct map.
  PolygonSet pattern;
  pattern.insert(Box{0, 0, 8000, 6000});
  pattern.insert(Box{12000, 0, 13000, 6000});
  const ShotList shots = fracture(pattern, {.max_shot_size = 2000}).shots;
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  SimOptions direct_opt;
  direct_opt.pixel = 50;
  direct_opt.blur_backend = BlurBackend::kDirect;
  SimOptions auto_opt = direct_opt;
  auto_opt.blur_backend = BlurBackend::kAuto;
  SimOptions fft_opt = direct_opt;
  fft_opt.blur_backend = BlurBackend::kFft;
  const Raster d = simulate_exposure(shots, psf, direct_opt);
  const Raster a = simulate_exposure(shots, psf, auto_opt);
  const Raster f = simulate_exposure(shots, psf, fft_opt);
  EXPECT_LT(max_abs_diff(d.data(), a.data()), 1e-6);
  EXPECT_LT(max_abs_diff(d.data(), f.data()), 1e-6);
}

}  // namespace
}  // namespace ebl
