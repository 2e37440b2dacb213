#include "util/vecmath.h"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace ebl {
namespace {

// Abramowitz & Stegun 7.1.26: erf(x) = 1 - t P(t) exp(-x^2), t = 1/(1+px),
// max absolute error 1.5e-7 on [0, inf).
constexpr double kP = 0.3275911;
constexpr double kA1 = 0.254829592;
constexpr double kA2 = -0.284496736;
constexpr double kA3 = 1.421413741;
constexpr double kA4 = -1.453152027;
constexpr double kA5 = 1.061405429;

// exp(z) for z <= 0 by the standard reduction z = k ln2 + r, |r| <= ln2/2:
// 2^k is assembled from the exponent bits, e^r is a degree-7 Taylor
// polynomial (|error| < 3e-9 relative over the reduced range — far below
// the 1.5e-7 budget of the outer approximation). Branch-free: the argument
// is clamped to the smallest useful value instead of special-cased.
constexpr double kLog2E = 1.4426950408889634074;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpClamp = -700.0;  // exp(-700) ~ 1e-304: effectively 0
// Round-to-nearest via the 2^52 magic constant (exact for |v| < 2^51).
constexpr double kRoundMagic = 6755399441055744.0;

constexpr double kE2 = 1.0 / 2.0;
constexpr double kE3 = 1.0 / 6.0;
constexpr double kE4 = 1.0 / 24.0;
constexpr double kE5 = 1.0 / 120.0;
constexpr double kE6 = 1.0 / 720.0;
constexpr double kE7 = 1.0 / 5040.0;

inline double exp_neg_core(double z) {
  z = z < kExpClamp ? kExpClamp : z;
  const double kf = (z * kLog2E + kRoundMagic) - kRoundMagic;
  const double r = (z - kf * kLn2Hi) - kf * kLn2Lo;
  double p = kE7;
  p = p * r + kE6;
  p = p * r + kE5;
  p = p * r + kE4;
  p = p * r + kE3;
  p = p * r + kE2;
  p = p * r + 1.0;
  p = p * r + 1.0;
  const std::int64_t k = static_cast<std::int64_t>(kf);
  std::uint64_t bits = static_cast<std::uint64_t>(k + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof scale);
  return p * scale;
}

inline double erf_core(double x) {
  const double ax = std::fabs(x);
  const double t = 1.0 / (1.0 + kP * ax);
  double q = kA5;
  q = q * t + kA4;
  q = q * t + kA3;
  q = q * t + kA2;
  q = q * t + kA1;
  const double e = 1.0 - q * t * exp_neg_core(-ax * ax);
  return x < 0 ? -e : e;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define EBL_ERF_AVX2 1

typedef double v4d __attribute__((vector_size(32)));
typedef std::int64_t v4i __attribute__((vector_size(32)));

// The same formula, four lanes at a time. target attribute + runtime
// dispatch keep the baseline build portable: this function is only called
// after has_avx2_fma confirms AVX2 and FMA.
__attribute__((target("avx2,fma"))) void erf4(const double* x, double* y) {
  v4d v;
  std::memcpy(&v, x, sizeof v);
  const v4d ax = v < 0.0 ? -v : v;
  const v4d t = 1.0 / (1.0 + kP * ax);
  v4d q = kA5 + t * 0.0;  // broadcast
  q = q * t + kA4;
  q = q * t + kA3;
  q = q * t + kA2;
  q = q * t + kA1;

  v4d z = -ax * ax;
  z = z < kExpClamp ? v4d{kExpClamp, kExpClamp, kExpClamp, kExpClamp} : z;
  const v4d kf = (z * kLog2E + kRoundMagic) - kRoundMagic;
  const v4d r = (z - kf * kLn2Hi) - kf * kLn2Lo;
  v4d p = kE7 + r * 0.0;
  p = p * r + kE6;
  p = p * r + kE5;
  p = p * r + kE4;
  p = p * r + kE3;
  p = p * r + kE2;
  p = p * r + 1.0;
  p = p * r + 1.0;
  const v4i k = __builtin_convertvector(kf, v4i);
  const v4i bits = (k + 1023) << 52;
  v4d scale;
  std::memcpy(&scale, &bits, sizeof scale);

  const v4d e = 1.0 - q * t * (p * scale);
  const v4d out = v < 0.0 ? -e : e;
  std::memcpy(y, &out, sizeof out);
}

#endif

}  // namespace

bool has_avx2_fma() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return yes;
#else
  return false;
#endif
}

double fast_erf(double x) { return erf_core(x); }

void erf_batch(const double* x, double* y, std::size_t n) {
#ifdef EBL_ERF_AVX2
  if (has_avx2_fma()) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) erf4(x + i, y + i);
    if (i < n) {
      // Pad the tail and run it through the same vector kernel so a value's
      // result never depends on its position in the batch.
      double xin[4] = {0.0, 0.0, 0.0, 0.0};
      double yout[4];
      for (std::size_t j = i; j < n; ++j) xin[j - i] = x[j];
      erf4(xin, yout);
      for (std::size_t j = i; j < n; ++j) y[j] = yout[j - i];
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = erf_core(x[i]);
}

}  // namespace ebl
