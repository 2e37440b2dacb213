// Long-range blur tests: the fused blur against an in-test copy of the
// two-pass blur it replaced, bit for bit; the PEC evaluator's per-term maps
// (each long-range term box-averaged onto its own raster and blurred by the
// separable passes); and edge cases of that direct blur. The simulator's
// use of the same per-term maps is checked against a full-resolution
// reference in sim_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fracture/fracture.h"
#include "pec/exposure.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace ebl {
namespace {

// The two-pass blur as it stood before the fused sweep: every row into a
// full-raster scratch, then every column out of it, each output read,
// modified and stored once per tap.
void two_pass_row(const double* in, double* out, int nx, const double* taps,
                  int radius) {
  const double k0 = taps[0];
  for (int x = 0; x < nx; ++x) out[x] = k0 * in[x];
  for (int k = 1; k <= radius; ++k) {
    const double wk = taps[k];
    for (int x = k; x < nx; ++x) out[x] += wk * in[x - k];
    const int lim = nx - k;
    for (int x = 0; x < lim; ++x) out[x] += wk * in[x + k];
  }
}

void two_pass_column(const double* rows, double* out, int nx, std::size_t y,
                     std::size_t ny, const double* taps, int radius) {
  const double* c = rows + y * nx;
  const double k0 = taps[0];
  for (int x = 0; x < nx; ++x) out[x] = k0 * c[x];
  for (int k = 1; k <= radius; ++k) {
    const double wk = taps[k];
    if (static_cast<std::int64_t>(y) - k >= 0) {
      const double* a = rows + (y - k) * nx;
      for (int x = 0; x < nx; ++x) out[x] += wk * a[x];
    }
    if (y + k < ny) {
      const double* b = rows + (y + k) * nx;
      for (int x = 0; x < nx; ++x) out[x] += wk * b[x];
    }
  }
}

void two_pass_blur(double* src, int nx, int ny, std::size_t stride,
                   const std::vector<double>& taps) {
  const int radius = static_cast<int>(taps.size()) - 1;
  std::vector<double> tmp(static_cast<std::size_t>(nx) * ny);
  for (std::size_t y = 0; y < static_cast<std::size_t>(ny); ++y)
    two_pass_row(&src[y * stride], &tmp[y * nx], nx, taps.data(), radius);
  for (std::size_t y = 0; y < static_cast<std::size_t>(ny); ++y)
    two_pass_column(tmp.data(), &src[y * stride], nx, y, static_cast<std::size_t>(ny),
                    taps.data(), radius);
}

// Random taps and data: any change of the summation order shows in the bits.
std::vector<double> random_taps(int radius, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> taps(static_cast<std::size_t>(radius) + 1);
  for (double& t : taps) t = rng.uniform_real(0.01, 1.0);
  return taps;
}

std::vector<double> random_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& d : v) d = rng.uniform_real(-1.0, 2.0);
  return v;
}

// The kernel builds the blur can pick on this CPU: the baseline always,
// AVX2 where the CPU has it.
std::vector<bool> kernel_paths() {
  std::vector<bool> paths{false};
  if (has_avx2_fma()) paths.push_back(true);
  return paths;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr int kRadii[] = {1, 2, 3, 8, 16, 24, 40};

TEST(FusedBlur, MatchesTheTwoPassBlurBitForBit) {
  // Sizes below the radius on either axis, 1 x 1, and sizes with a vector
  // block interior plus a scalar remainder. Band counts: one band, a few,
  // and one row per band (every band shorter than the radius past r = 1).
  for (const int radius : kRadii) {
    const std::vector<double> taps = random_taps(radius, 100 + radius);
    const std::pair<int, int> sizes[] = {
        {1, 1}, {std::max(1, radius - 1), 5}, {37, std::max(1, radius - 1)},
        {radius / 2 + 1, radius / 2 + 1}, {53, 41}, {2 * radius + 19, 3 * radius + 7}};
    for (const auto& [nx, ny] : sizes) {
      const std::size_t n = static_cast<std::size_t>(nx) * ny;
      const std::vector<double> input = random_data(n, 7 * nx + ny);
      std::vector<double> want = input;
      two_pass_blur(want.data(), nx, ny, static_cast<std::size_t>(nx), taps);
      for (const int threads : {1, 2, 4}) {
        for (const int bands : {1, 3, ny}) {
          for (const bool avx2 : kernel_paths()) {
            SCOPED_TRACE(testing::Message()
                         << "radius " << radius << ", " << nx << " x " << ny << ", "
                         << threads << " threads, " << bands << " bands, avx2 " << avx2);
            std::vector<double> in_place = input;
            detail::separable_blur_forced(in_place.data(), in_place.data(), nx, ny,
                                          static_cast<std::size_t>(nx), taps, threads,
                                          bands, avx2);
            EXPECT_TRUE(same_bits(in_place, want));
            std::vector<double> out(n, -7.0);
            detail::separable_blur_forced(input.data(), out.data(), nx, ny,
                                          static_cast<std::size_t>(nx), taps, threads,
                                          bands, avx2);
            EXPECT_TRUE(same_bits(out, want));
          }
        }
        // The dispatching entry points pick the same bits.
        Raster r(Box{0, 0, nx, ny}, 1);
        r.data() = input;
        separable_blur(r, taps, threads);
        EXPECT_TRUE(same_bits(r.data(), want)) << "radius " << radius;
      }
    }
  }
}

TEST(FusedBlur, StridedWindowMatchesAndLeavesTheRestUntouched) {
  // A window of a larger raster, blurred in place through the strided
  // overload: the window equals the two-pass blur of that window, and every
  // pixel outside it keeps its bits.
  constexpr int kW = 97, kH = 83;
  constexpr int kX0 = 13, kY0 = 9, kNx = 61, kNy = 47;
  const std::vector<double> input = random_data(std::size_t{kW} * kH, 99);
  const std::size_t offset = std::size_t{kY0} * kW + kX0;
  for (const int radius : kRadii) {
    const std::vector<double> taps = random_taps(radius, 200 + radius);
    std::vector<double> want = input;
    two_pass_blur(want.data() + offset, kNx, kNy, kW, taps);
    for (const int threads : {1, 2, 4}) {
      for (const int bands : {1, 4, kNy}) {
        for (const bool avx2 : kernel_paths()) {
          SCOPED_TRACE(testing::Message() << "radius " << radius << ", " << threads
                                          << " threads, " << bands << " bands, avx2 "
                                          << avx2);
          std::vector<double> got = input;
          detail::separable_blur_forced(got.data() + offset, got.data() + offset, kNx,
                                        kNy, kW, taps, threads, bands, avx2);
          EXPECT_TRUE(same_bits(got, want));
        }
      }
      std::vector<double> got = input;
      separable_blur(got.data() + offset, got.data() + offset, kNx, kNy, kW, taps,
                     threads);
      EXPECT_TRUE(same_bits(got, want)) << "radius " << radius;
    }
  }
}

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
  eval.set_active_doses(std::vector<double>(shots.size(), 1.1));
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
  // triple evaluator up to the float precision of the gathered coverage
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
