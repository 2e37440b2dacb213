// Dependency-free iterative mixed-radix FFT and a 2D real convolution engine.
//
// Built for the exposure simulator's blur: a raster is convolved with several
// wide separable kernels per iteration, which is the textbook case for a
// padded real-to-complex FFT — transform the map once, multiply by each
// kernel's spectrum, inverse-transform. Cost is independent of kernel width,
// and the forward transform amortizes over kernels.
//
// Layers (bottom up):
//   - Fft: in-place iterative complex transform for one 5-smooth size
//     (2^a * 3^b * 5^c); the digit-reversal permutation and per-stage
//     twiddles are precomputed at plan time so the hot loop is radix-2/3/5
//     butterflies only. Mixed-radix plans pad far less than power-of-two
//     ones (worst-case zero-padding drops from ~2x to ~1.2x per axis).
//   - RealFft: real-input/real-output transform of even 5-smooth size n via
//     the packed half-size complex FFT (two real samples per complex slot),
//     producing the n/2+1 non-redundant bins.
//   - FftConvolver: a 2D plan for images of one fixed size. Rows are
//     transformed with RealFft and columns with Fft; both passes run on the
//     util/parallel.h thread pool through cache-tiled transposes. Kernels
//     are given as symmetric separable taps (t[0] center, t[j] at offset
//     +-j); their spectra are evaluated as exact cosine sums, so the result
//     equals the direct sliding-window convolution of the *same truncated
//     kernel* to floating-point rounding — not an analytic approximation.
//     Zero padding to the next fast size past the kernel support makes the
//     convolution linear (zero boundaries), never circular. Kernels that
//     recur (the PSF terms, fixed for a simulation) register once
//     via add_kernel(), which caches their axis spectra in the plan;
//     convolve_registered() then applies any set of registered kernels in
//     one pass over the cached forward transform (N fused multiplies and N
//     inverse column transforms per column walk) instead of re-deriving
//     spectra and re-walking the spectrum per kernel.
//
// Determinism: every output element is computed in a fixed sequential order
// by exactly one chunk, so results are bit-identical for any thread count
// (same contract as the rest of the codebase).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ebl {

/// Smallest power of two >= n (n >= 1).
std::size_t fft_next_pow2(std::size_t n);

/// True when n factors completely over {2, 3, 5} (an Fft-supported size).
bool fft_is_fast_size(std::size_t n);

/// Smallest 5-smooth number (2^a * 3^b * 5^c) >= n — the snuggest padded
/// size the mixed-radix engine transforms. Never exceeds fft_next_pow2(n).
std::size_t fft_next_fast(std::size_t n);

/// Smallest *even* 5-smooth number >= n (RealFft packs two samples per
/// complex slot, so row transforms need an even padded size).
std::size_t fft_next_fast_even(std::size_t n);

/// In-place iterative mixed-radix complex FFT plan for one 5-smooth size.
class Fft {
 public:
  explicit Fft(std::size_t n);  ///< n must be 2^a * 3^b * 5^c (>= 1)

  std::size_t size() const { return n_; }

  /// In-place forward DFT: a[k] <- sum_j a[j] exp(-2 pi i j k / n).
  void forward(std::complex<double>* a) const { transform(a, false); }

  /// In-place unscaled inverse: inverse(forward(x)) == n * x. Callers fold
  /// the 1/n into a spectral weight instead of paying an extra pass.
  void inverse(std::complex<double>* a) const { transform(a, true); }

 private:
  void transform(std::complex<double>* a, bool inverse) const;

  // One decimation-in-time stage: h butterflies of the given radix per block
  // of m = radix * h elements, twiddles exp(-2 pi i q j / m) for
  // q = 1..radix-1 packed contiguously at tw_[off + (q-1) * h + j].
  struct Stage {
    std::uint32_t radix;
    std::size_t h;
    std::size_t off;
  };

  std::size_t n_;
  std::vector<std::uint32_t> perm_;       // digit-reversal permutation
  bool perm_is_swap_ = true;              // involution: permute by pair swaps
  std::vector<Stage> stages_;
  std::vector<std::complex<double>> tw_;  // stage-packed forward twiddles
};

/// Real-input FFT of even 5-smooth size n, packed into the half-size complex
/// transform. Spectra hold the n/2+1 non-redundant bins (DC through
/// Nyquist); the upper half is implied by conjugate symmetry.
class RealFft {
 public:
  explicit RealFft(std::size_t n);  ///< n must be even, 5-smooth, >= 2

  std::size_t size() const { return n_; }

  /// spec (n/2+1 bins) <- DFT of in (n reals). spec may not alias in.
  void forward(const double* in, std::complex<double>* spec) const;

  /// out (n reals) <- unscaled inverse of spec; the spec buffer is clobbered.
  /// inverse(forward(x)) == (n/2) * x — see Fft::inverse for the rationale.
  void inverse(std::complex<double>* spec, double* out) const;

 private:
  std::size_t n_;
  Fft half_;
  std::vector<std::complex<double>> w_;  // untangle twiddles exp(-2 pi i k/n)
};

/// 2D linear-convolution engine for repeatedly blurring same-sized real
/// images with symmetric separable kernels. Plan once, then per image:
/// load() computes the padded forward transform; each convolve() multiplies
/// that cached spectrum by a kernel's (exact, separable) spectrum and
/// inverse-transforms. Boundaries are zero-padded (linear convolution with
/// out-of-image taps contributing zero), matching the truncated-kernel
/// semantics of the direct separable blur.
class FftConvolver {
 public:
  /// Plans for nx-by-ny images and kernels of half-width up to max_radius
  /// taps. Padded sizes are the next fast (5-smooth) sizes past
  /// nx + max_radius and ny + max_radius, which is exactly enough to keep
  /// wraparound out of the cropped output.
  FftConvolver(int nx, int ny, int max_radius, int threads = 0);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t padded_x() const { return px_; }
  std::size_t padded_y() const { return py_; }

  /// Caches the forward transform of img (row-major, nx*ny).
  void load(const double* img);

  /// out (row-major, nx*ny) <- loaded image convolved with the separable
  /// symmetric kernel taps[0..r] (applied along both axes). Requires
  /// taps.size() - 1 <= max_radius and a prior load(). out may alias the
  /// loaded image (the spectrum is cached, not the pixels). Not reentrant:
  /// convolve calls on one plan must not run concurrently.
  void convolve(const std::vector<double>& taps, double* out) const;

  /// Registers a kernel with the plan and returns its slot id; the kernel's
  /// exact axis spectra are computed once here and reused by every
  /// convolve_registered() for the plan's lifetime (per-term kernels never
  /// change across PEC iterations, so this hoists the per-call cosine sums
  /// out of the hot loop). Identical taps re-register to the same slot.
  int add_kernel(const std::vector<double>& taps);

  /// Number of registered kernels (slot ids are 0..kernel_count()-1).
  int kernel_count() const { return static_cast<int>(kernels_.size()); }

  /// outs[i] (row-major, nx*ny) <- loaded image convolved with registered
  /// kernel ids[i]. All kernels' spectral multiplies run in one pass over
  /// the cached forward transform: per column walk the transformed map is
  /// loaded once, each kernel contributes one fused multiply and one inverse
  /// column transform, then each kernel gets its row inverse pass. Same
  /// aliasing and reentrancy rules as convolve().
  void convolve_registered(const std::vector<int>& ids,
                           const std::vector<double*>& outs) const;

  /// Flop estimate of one padded forward or inverse transform, for
  /// direct-vs-FFT backend decisions (see fft_blur_wins in sim/exposure_sim.h,
  /// whose throughput calibration lives beside it in sim/exposure_sim.cpp).
  static double transform_cost(int nx, int ny, int max_radius);

 private:
  // Exact truncated-kernel axis spectra (see convolve() in fft.cpp): kx has
  // the w_ row bins with the inverse scaling folded in, ky the py_ column
  // bins.
  struct KernelSpec {
    std::vector<double> taps;
    std::vector<double> kx;
    std::vector<double> ky;
  };

  void make_spectra(const std::vector<double>& taps, KernelSpec& ks) const;
  void apply(const std::vector<const KernelSpec*>& ks,
             const std::vector<double*>& outs) const;

  int nx_, ny_;
  int max_radius_;
  int threads_;
  std::size_t px_, py_;  // padded sizes (5-smooth)
  std::size_t w_;        // px_/2 + 1 non-redundant row bins
  RealFft row_;
  Fft col_;
  std::vector<KernelSpec> kernels_;                 // registered spectra
  std::vector<std::complex<double>> spec_;          // cached spectrum, column-major
  // Scratch spectra (lazy), one per kernel of the largest batch applied.
  mutable std::vector<std::vector<std::complex<double>>> work_;
};

}  // namespace ebl
