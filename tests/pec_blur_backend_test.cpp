// Long-range blur tests: the PEC evaluator's per-term maps (each long-range
// term box-averaged onto its own raster and blurred by the separable
// passes) and edge cases of that direct blur. The simulator's use of the
// same per-term maps is checked against a full-resolution reference in
// sim_test.
#include <gtest/gtest.h>

#include <vector>

#include "fracture/fracture.h"
#include "pec/exposure.h"
#include "util/rng.h"

namespace ebl {
namespace {

ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9500, 41000, 10500});
  return fracture(s, {.max_shot_size = 2000}).shots;
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

}  // namespace
}  // namespace ebl
