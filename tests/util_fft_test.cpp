// Tests for the mixed-radix FFT stack: complex transform against a naive DFT
// (power-of-two and 3/5-factor sizes), real transform against the complex
// one, round trips, and the 2D convolver against a direct sliding-window
// convolution — including the registered-kernel batch path.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "util/contracts.h"
#include "util/fft.h"
#include "util/rng.h"

namespace ebl {
namespace {

using cd = std::complex<double>;

std::vector<cd> naive_dft(const std::vector<cd>& x) {
  const std::size_t n = x.size();
  std::vector<cd> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cd acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2.0 * M_PI * double(j) * double(k) / double(n);
      acc += x[j] * cd{std::cos(a), std::sin(a)};
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(fft_next_pow2(1), 1u);
  EXPECT_EQ(fft_next_pow2(2), 2u);
  EXPECT_EQ(fft_next_pow2(3), 4u);
  EXPECT_EQ(fft_next_pow2(1024), 1024u);
  EXPECT_EQ(fft_next_pow2(1025), 2048u);
}

TEST(Fft, FastSizes) {
  EXPECT_TRUE(fft_is_fast_size(1));
  EXPECT_TRUE(fft_is_fast_size(2));
  EXPECT_TRUE(fft_is_fast_size(15));
  EXPECT_TRUE(fft_is_fast_size(360));
  EXPECT_TRUE(fft_is_fast_size(1500));
  EXPECT_FALSE(fft_is_fast_size(0));
  EXPECT_FALSE(fft_is_fast_size(7));
  EXPECT_FALSE(fft_is_fast_size(14));
  EXPECT_FALSE(fft_is_fast_size(121));
}

TEST(Fft, NextFast) {
  EXPECT_EQ(fft_next_fast(1), 1u);
  EXPECT_EQ(fft_next_fast(6), 6u);
  EXPECT_EQ(fft_next_fast(7), 8u);
  EXPECT_EQ(fft_next_fast(11), 12u);
  EXPECT_EQ(fft_next_fast(13), 15u);
  EXPECT_EQ(fft_next_fast(65), 72u);
  EXPECT_EQ(fft_next_fast(1025), 1080u);
  EXPECT_EQ(fft_next_fast(2049), 2160u);
  // Never worse than the power-of-two pad.
  for (std::size_t n = 1; n < 5000; n += 17) {
    EXPECT_LE(fft_next_fast(n), fft_next_pow2(n)) << n;
    EXPECT_GE(fft_next_fast(n), n) << n;
    EXPECT_TRUE(fft_is_fast_size(fft_next_fast(n))) << n;
  }
}

TEST(Fft, NextFastEven) {
  EXPECT_EQ(fft_next_fast_even(1), 2u);
  EXPECT_EQ(fft_next_fast_even(5), 6u);
  EXPECT_EQ(fft_next_fast_even(15), 16u);
  EXPECT_EQ(fft_next_fast_even(25), 30u);
  EXPECT_EQ(fft_next_fast_even(1025), 1080u);
  for (std::size_t n = 1; n < 5000; n += 17) {
    const std::size_t v = fft_next_fast_even(n);
    EXPECT_LE(v, fft_next_pow2(n) < 2 ? 2 : fft_next_pow2(n)) << n;
    EXPECT_GE(v, n) << n;
    EXPECT_EQ(v % 2, 0u) << n;
    EXPECT_TRUE(fft_is_fast_size(v)) << n;
  }
}

TEST(Fft, RejectsNonSmoothSizes) {
  EXPECT_THROW(Fft(7), ContractViolation);
  EXPECT_THROW(Fft(14), ContractViolation);
  EXPECT_THROW(Fft(0), ContractViolation);
  EXPECT_THROW(RealFft(1), ContractViolation);
  EXPECT_THROW(RealFft(15), ContractViolation);  // odd: cannot pack
  EXPECT_THROW(RealFft(22), ContractViolation);  // 2 * 11: not 5-smooth
}

TEST(Fft, MatchesNaiveDftOnRandomInput) {
  Rng rng(7);
  // Power-of-two, pure radix-3/5, and composite 2^a 3^b 5^c sizes.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 9u, 15u, 16u, 25u, 60u, 64u,
                              256u, 360u, 1500u}) {
    std::vector<cd> x(n);
    for (cd& v : x) v = {rng.uniform_real(-1.0, 1.0), rng.uniform_real(-1.0, 1.0)};
    std::vector<cd> got = x;
    Fft(n).forward(got.data());
    const std::vector<cd> want = naive_dft(x);
    const double tol = 1e-10 * std::max<double>(1.0, std::sqrt(double(n)));
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(got[k].real(), want[k].real(), tol) << "n=" << n << " k=" << k;
      EXPECT_NEAR(got[k].imag(), want[k].imag(), tol) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Fft, InverseRoundTripScalesByN) {
  Rng rng(11);
  for (const std::size_t n : {128u, 90u, 375u}) {
    std::vector<cd> x(n);
    for (cd& v : x) v = {rng.uniform_real(-2.0, 2.0), rng.uniform_real(-2.0, 2.0)};
    std::vector<cd> y = x;
    const Fft fft(n);
    fft.forward(y.data());
    fft.inverse(y.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i].real(), double(n) * x[i].real(), 1e-9) << "n=" << n;
      EXPECT_NEAR(y[i].imag(), double(n) * x[i].imag(), 1e-9) << "n=" << n;
    }
  }
}

TEST(RealFft, MatchesComplexTransform) {
  Rng rng(13);
  // Even 5-smooth sizes, including odd half-sizes (6 -> h=3, 30 -> h=15,
  // 750 -> h=375) which exercise the no-middle-bin untangling.
  for (const std::size_t n : {2u, 4u, 6u, 8u, 10u, 30u, 32u, 60u, 256u, 360u,
                              750u, 1500u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.uniform_real(-1.0, 1.0);
    std::vector<cd> spec(n / 2 + 1);
    RealFft(n).forward(x.data(), spec.data());
    std::vector<cd> full(x.begin(), x.end());
    Fft(n).forward(full.data());
    const double tol = 1e-10 * std::max<double>(1.0, std::sqrt(double(n)));
    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(spec[k].real(), full[k].real(), tol) << "n=" << n << " k=" << k;
      EXPECT_NEAR(spec[k].imag(), full[k].imag(), tol) << "n=" << n << " k=" << k;
    }
  }
}

TEST(RealFft, InverseRoundTripScalesByHalfN) {
  Rng rng(17);
  for (const std::size_t n : {64u, 30u, 450u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.uniform_real(-3.0, 3.0);
    std::vector<cd> spec(n / 2 + 1);
    const RealFft fft(n);
    fft.forward(x.data(), spec.data());
    std::vector<double> back(n);
    fft.inverse(spec.data(), back.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], 0.5 * double(n) * x[i], 1e-9) << "n=" << n;
  }
}

TEST(Fft, PowerOfTwoPlansMatchPreMixedRadixEngine) {
  // The 2s-first factor order reproduces the old radix-2 schedule exactly:
  // a power-of-two transform must still equal the classic bit-reversed
  // radix-2 implementation bit for bit (downstream bitwise contracts — the
  // sharded corrector's pooled-evaluator equivalence — depend on pow2 plans
  // not moving).
  Rng rng(41);
  const std::size_t n = 64;
  std::vector<cd> x(n);
  for (cd& v : x) v = {rng.uniform_real(-1.0, 1.0), rng.uniform_real(-1.0, 1.0)};

  // Reference: textbook iterative radix-2 DIT with bit reversal, the exact
  // loop the pre-mixed-radix engine ran.
  std::vector<cd> ref = x;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(ref[i], ref[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t j = 0; j < half; ++j) {
      const double a = -2.0 * M_PI * double(j) / double(len);
      const cd w{std::cos(a), std::sin(a)};
      for (std::size_t base = 0; base < n; base += len) {
        const cd u = ref[base + j];
        const cd t = ref[base + j + half] * w;
        ref[base + j] = u + t;
        ref[base + j + half] = u - t;
      }
    }
  }

  std::vector<cd> got = x;
  Fft(n).forward(got.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(got[k].real(), ref[k].real()) << "k=" << k;
    EXPECT_EQ(got[k].imag(), ref[k].imag()) << "k=" << k;
  }
}

// Direct same-size linear convolution with a symmetric separable kernel and
// zero boundaries — the oracle for the convolver.
std::vector<double> direct_conv2(const std::vector<double>& img, int nx, int ny,
                                 const std::vector<double>& taps) {
  const int r = static_cast<int>(taps.size()) - 1;
  std::vector<double> mid(img.size(), 0.0);
  std::vector<double> out(img.size(), 0.0);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      double acc = taps[0] * img[std::size_t(y) * nx + x];
      for (int j = 1; j <= r; ++j) {
        if (x - j >= 0) acc += taps[std::size_t(j)] * img[std::size_t(y) * nx + x - j];
        if (x + j < nx) acc += taps[std::size_t(j)] * img[std::size_t(y) * nx + x + j];
      }
      mid[std::size_t(y) * nx + x] = acc;
    }
  }
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      double acc = taps[0] * mid[std::size_t(y) * nx + x];
      for (int j = 1; j <= r; ++j) {
        if (y - j >= 0) acc += taps[std::size_t(j)] * mid[std::size_t(y - j) * nx + x];
        if (y + j < ny) acc += taps[std::size_t(j)] * mid[std::size_t(y + j) * nx + x];
      }
      out[std::size_t(y) * nx + x] = acc;
    }
  }
  return out;
}

TEST(FftConvolver, MatchesDirectConvolutionOnRandomImages) {
  Rng rng(23);
  struct Case {
    int nx, ny, radius;
  };
  for (const Case c : {Case{17, 9, 3}, Case{64, 64, 8}, Case{33, 70, 21},
                       Case{1, 1, 4}, Case{5, 1, 2}, Case{1, 40, 6}}) {
    std::vector<double> img(std::size_t(c.nx) * c.ny);
    for (double& v : img) v = rng.uniform_real(-1.0, 2.0);
    std::vector<double> taps(std::size_t(c.radius) + 1);
    double norm = 0.0;
    for (std::size_t j = 0; j < taps.size(); ++j) {
      taps[j] = rng.uniform_real(0.0, 1.0);
      norm += (j == 0 ? 1.0 : 2.0) * taps[j];
    }
    for (double& t : taps) t /= norm;

    FftConvolver conv(c.nx, c.ny, c.radius);
    conv.load(img.data());
    std::vector<double> got(img.size());
    conv.convolve(taps, got.data());
    const std::vector<double> want = direct_conv2(img, c.nx, c.ny, taps);
    for (std::size_t i = 0; i < img.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-10)
          << c.nx << "x" << c.ny << " r=" << c.radius << " at " << i;
    }
  }
}

TEST(FftConvolver, KernelWiderThanImageStaysLinear) {
  // Kernel support far beyond the image: every out-of-image tap must read
  // zero (never wrap), exactly like the skipped taps of the direct blur.
  Rng rng(29);
  const int nx = 6, ny = 4, radius = 50;
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(0.0, 1.0);
  std::vector<double> taps(std::size_t(radius) + 1);
  double norm = 0.0;
  for (std::size_t j = 0; j < taps.size(); ++j) {
    taps[j] = std::exp(-double(j) * double(j) / 900.0);
    norm += (j == 0 ? 1.0 : 2.0) * taps[j];
  }
  for (double& t : taps) t /= norm;

  FftConvolver conv(nx, ny, radius);
  conv.load(img.data());
  std::vector<double> got(img.size());
  conv.convolve(taps, got.data());
  const std::vector<double> want = direct_conv2(img, nx, ny, taps);
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(FftConvolver, OnePixelImageKeepsOnlyTheCenterTap) {
  // Every tap but the center falls off a 1x1 image: the output is the input
  // times the center tap squared (no renormalization), as in the direct blur.
  const std::vector<double> taps = {0.4, 0.2, 0.08, 0.02};
  FftConvolver conv(1, 1, 3);
  const double img = 2.0;
  conv.load(&img);
  double got = 0.0;
  conv.convolve(taps, &got);
  EXPECT_NEAR(got, 2.0 * taps[0] * taps[0], 1e-12);
}

TEST(FftConvolver, SubPixelGaussianIsNearIdentity) {
  // A Gaussian far narrower than a pixel (sigma_px = 0.2, exp(-x^2/s^2)
  // taps clamped to radius 1): the spectrum is nearly flat, and the
  // convolution must still match the direct passes and stay near the input.
  Rng rng(41);
  const int nx = 30, ny = 30;
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(0.0, 2.0);
  std::vector<double> taps = {1.0, std::exp(-1.0 / 0.04)};
  const double norm = taps[0] + 2.0 * taps[1];
  for (double& t : taps) t /= norm;
  ASSERT_GT(taps[0], 0.99);

  FftConvolver conv(nx, ny, 1);
  conv.load(img.data());
  std::vector<double> got(img.size());
  conv.convolve(taps, got.data());
  const std::vector<double> want = direct_conv2(img, nx, ny, taps);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12);
    EXPECT_NEAR(got[i], img[i], 0.02);
  }
}

TEST(FftConvolver, SharedForwardServesMultipleKernels) {
  Rng rng(31);
  const int nx = 40, ny = 25;
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(-1.0, 1.0);
  FftConvolver conv(nx, ny, 12);
  conv.load(img.data());
  for (const int radius : {2, 7, 12}) {
    std::vector<double> taps(std::size_t(radius) + 1);
    double norm = 0.0;
    for (std::size_t j = 0; j < taps.size(); ++j) {
      taps[j] = std::exp(-double(j) * double(j) / (0.3 * radius * radius + 1.0));
      norm += (j == 0 ? 1.0 : 2.0) * taps[j];
    }
    for (double& t : taps) t /= norm;
    std::vector<double> got(img.size());
    conv.convolve(taps, got.data());
    const std::vector<double> want = direct_conv2(img, nx, ny, taps);
    for (std::size_t i = 0; i < img.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-11) << "radius " << radius;
  }
}

TEST(FftConvolver, BitIdenticalAcrossThreadCounts) {
  Rng rng(37);
  const int nx = 150, ny = 90, radius = 10;
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(0.0, 1.0);
  std::vector<double> taps = {0.5, 0.2, 0.05};
  std::vector<std::vector<double>> results;
  for (const int threads : {1, 3, 8}) {
    FftConvolver conv(nx, ny, radius, threads);
    conv.load(img.data());
    std::vector<double> out(img.size());
    conv.convolve(taps, out.data());
    results.push_back(std::move(out));
  }
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]) << "1 vs 3 threads at " << i;
    EXPECT_EQ(results[0][i], results[2][i]) << "1 vs 8 threads at " << i;
  }
}

TEST(FftConvolver, RejectsKernelBeyondPlan) {
  FftConvolver conv(8, 8, 4);
  std::vector<double> img(64, 1.0);
  conv.load(img.data());
  std::vector<double> out(64);
  EXPECT_THROW(conv.convolve(std::vector<double>(6, 0.1), out.data()),
               ContractViolation);
}

TEST(FftConvolver, MixedRadixPaddedSizesAreSnug) {
  // 1000 + 24 = 1024 stays pow2; 1010 + 30 = 1040 -> 1080 = 2^3 3^3 5 is far
  // snugger than 2048. Both axes must be 5-smooth and the row axis even.
  const FftConvolver a(1000, 1000, 24);
  EXPECT_EQ(a.padded_x(), 1024u);
  EXPECT_EQ(a.padded_y(), 1024u);
  const FftConvolver b(1010, 1010, 30);
  EXPECT_EQ(b.padded_x(), 1080u);
  EXPECT_EQ(b.padded_y(), 1080u);
}

TEST(FftConvolver, RegisteredKernelsMatchAdHocConvolve) {
  Rng rng(43);
  // Sizes that pad to mixed-radix plans (47 + 13 = 60, 83 + 13 = 96).
  const int nx = 47, ny = 83, radius = 13;
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(-1.0, 2.0);

  std::vector<std::vector<double>> taps;
  for (const int r : {4, 9, 13}) {
    std::vector<double> t(std::size_t(r) + 1);
    double norm = 0.0;
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = std::exp(-double(j) * double(j) / (0.4 * r * r + 1.0));
      norm += (j == 0 ? 1.0 : 2.0) * t[j];
    }
    for (double& v : t) v /= norm;
    taps.push_back(std::move(t));
  }

  FftConvolver conv(nx, ny, radius);
  std::vector<int> ids;
  for (const auto& t : taps) ids.push_back(conv.add_kernel(t));
  EXPECT_EQ(conv.kernel_count(), 3);
  // Identical taps re-register to the same slot.
  EXPECT_EQ(conv.add_kernel(taps[1]), ids[1]);
  EXPECT_EQ(conv.kernel_count(), 3);

  conv.load(img.data());
  std::vector<std::vector<double>> got(taps.size(),
                                       std::vector<double>(img.size()));
  std::vector<double*> outs;
  for (auto& g : got) outs.push_back(g.data());
  conv.convolve_registered(ids, outs);

  // The batched registered path must agree with per-kernel convolve() on a
  // separate plan bit for bit (same spectra, same transform order), and with
  // the direct oracle to rounding.
  FftConvolver ref(nx, ny, radius);
  ref.load(img.data());
  for (std::size_t t = 0; t < taps.size(); ++t) {
    std::vector<double> one(img.size());
    ref.convolve(taps[t], one.data());
    const std::vector<double> want = direct_conv2(img, nx, ny, taps[t]);
    for (std::size_t i = 0; i < img.size(); ++i) {
      ASSERT_EQ(got[t][i], one[i]) << "kernel " << t << " at " << i;
      ASSERT_NEAR(got[t][i], want[i], 1e-11) << "kernel " << t << " at " << i;
    }
  }
}

TEST(FftConvolver, RegisteredBatchBitIdenticalAcrossThreadCounts) {
  Rng rng(47);
  const int nx = 90, ny = 75, radius = 9;  // mixed-radix pads on both axes
  std::vector<double> img(std::size_t(nx) * ny);
  for (double& v : img) v = rng.uniform_real(0.0, 1.0);
  const std::vector<std::vector<double>> taps = {
      {0.6, 0.15, 0.05}, {0.4, 0.2, 0.06, 0.04}};
  std::vector<std::vector<std::vector<double>>> results;
  for (const int threads : {1, 3, 8}) {
    FftConvolver conv(nx, ny, radius, threads);
    std::vector<int> ids;
    for (const auto& t : taps) ids.push_back(conv.add_kernel(t));
    conv.load(img.data());
    std::vector<std::vector<double>> out(taps.size(),
                                         std::vector<double>(img.size()));
    std::vector<double*> outs;
    for (auto& o : out) outs.push_back(o.data());
    conv.convolve_registered(ids, outs);
    results.push_back(std::move(out));
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    for (std::size_t i = 0; i < results[0][t].size(); ++i) {
      ASSERT_EQ(results[0][t][i], results[1][t][i]) << "1 vs 3 threads";
      ASSERT_EQ(results[0][t][i], results[2][t][i]) << "1 vs 8 threads";
    }
  }
}

TEST(FftConvolver, RejectsUnknownRegisteredId) {
  FftConvolver conv(8, 8, 2);
  std::vector<double> img(64, 1.0);
  conv.load(img.data());
  std::vector<double> out(64);
  EXPECT_THROW(conv.convolve_registered({0}, {out.data()}), ContractViolation);
}

}  // namespace
}  // namespace ebl
