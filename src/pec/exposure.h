// Exposure evaluation: deposited energy at arbitrary points for a dosed
// shot list under a sum-of-Gaussians PSF.
//
// Two-scale strategy (the same split commercial PEC engines use):
//   - short-range terms (forward scattering, sigma comparable to feature
//     size) are summed analytically over neighbor shots within a cutoff,
//     found through a flat CSR spatial grid;
//   - long-range terms (backscattering, sigma >> feature size) are evaluated
//     on a coarse raster: dose-weighted coverage, Gaussian convolution,
//     bilinear interpolation at the query point.
// The split keeps evaluation O(neighbors) per point instead of O(shots),
// with error bounded by the raster pixel (<= sigma/4) and the cutoff_sigmas
// truncation (< 1e-6 of the term weight at the default 4 sigma).
//
// Throughput design (the PEC inner loop calls this millions of times):
//   - Neighbor queries are zero-allocation: the grid is a flat CSR layout
//     (offsets + packed shot indices) and duplicate candidates (a shot's bbox
//     spans several cells) are rejected with epoch-stamped visited marks in a
//     thread-local scratch — no per-query vector, sort, or unique.
//   - All long-range terms share ONE base raster (pixel from the finest long
//     term, frame padded for the widest). Each shot's sparse footprint on it
//     (pixel, coverage-fraction) is computed once at construction and cached
//     in a pixel-major CSR ("splat cache"); set_doses re-accumulates the base
//     map as a dose-weighted sum of cached splats, then derives every term's
//     blurred map from that single accumulation.
//   - The per-term blur runs on one of two backends (BlurBackend): the
//     separable sliding-window kernel, or spectral multiplication through a
//     util/fft.h FftConvolver planned once at construction — the base map is
//     forward-transformed once per iteration and every term's truncated
//     kernel spectrum is applied to that single spectrum. Both backends
//     compute the *same* truncated normalized kernel, so they agree to
//     floating-point rounding; kAuto picks per construction by a flop model.
//   - Dose updates are incremental (ExposureOptions::delta_threshold): the
//     evaluator tracks per-shot dose deltas, and when only a minority of
//     doses moved it re-weights just those shots' cached splats into the
//     base map and patches the cached per-centroid short-range sums —
//     O(moved) instead of O(everything) — with sub-threshold updates
//     deferred entirely. Only the long-range blur still runs at full cost.
//   - The centroid sweep's erf evaluations are batched through the
//     vectorized polynomial in util/vecmath.h (4-wide AVX2 + FMA, ~4x libm;
//     see ExposureOptions::fast_erf).
//   - exposures_at_centroids, splat re-accumulation, and both blur backends
//     run on the util/parallel.h thread pool. Results are bit-identical for
//     any thread count: work is only ever split over disjoint output
//     elements, each of which is computed in a fixed sequential order, and
//     delta scatters run serially in shot order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/psf.h"
#include "util/fft.h"

namespace ebl {

/// How rasters get convolved with the long-range Gaussians.
enum class BlurBackend {
  kAuto,    ///< flop-model choice: FFT when the kernel width makes it a win
  kDirect,  ///< separable sliding-window passes (fast for narrow kernels)
  kFft,     ///< padded real FFT + kernel spectra (width-independent cost)
};

struct ExposureOptions {
  /// Terms with sigma >= this many dbu go to the raster path; others are
  /// analytic. The default sends everything below 400 dbu to the analytic
  /// path. Lowering it trades accuracy (raster error ~ pixel/sigma) for
  /// speed on mid-range terms.
  double long_range_threshold = 400.0;

  /// Raster pixel = (finest long-range sigma) / this factor (accuracy/speed
  /// knob). Larger means finer long-range maps: cost scales quadratically,
  /// error falls roughly quadratically. Wide kernels on fine maps are where
  /// the FFT backend pays off.
  double pixels_per_sigma = 4.0;

  /// Analytic neighbor cutoff in sigmas. 4 keeps the truncation error below
  /// ~1e-6 of each short term's weight; raise it when validating against
  /// brute-force references at tighter tolerances.
  double cutoff_sigmas = 4.0;

  /// How far the long-range maps extend past the shot bbox, in units of the
  /// widest long sigma (clamped to >= 2 pixels). The blur itself is exact
  /// anywhere on the map — every source is on it — so the margin only buys
  /// correct *sampling* beyond the pattern (the backscatter tail a simulator
  /// probes). Queries at shot centroids never leave the bbox: the correctors
  /// set this to 0 and shed the dead border pixels, which is a big deal for
  /// sharded solves where the border would otherwise rival the shard.
  double map_margin_sigmas = 4.0;

  /// Worker threads for centroid sweeps, splat re-accumulation, and the blur
  /// passes. 0 = auto: the EBL_THREADS environment variable if set, else
  /// std::thread::hardware_concurrency(). Results are identical for any
  /// value (see the header comment).
  int threads = 0;

  /// Long-range blur backend. kAuto compares the flop model of the separable
  /// kernel against the padded-FFT plan and keeps the cheaper one; results
  /// are backend-independent to floating-point rounding either way.
  BlurBackend blur_backend = BlurBackend::kAuto;

  /// Incremental dose-delta updates. After a few Jacobi sweeps most doses
  /// move by far less than the correction tolerance; re-gathering every splat
  /// (and re-summing every analytic neighbor term) for updates that moved
  /// almost nothing is where the iterative corrector used to spend its tail.
  /// When > 0, set_active_doses (and set_doses on an evaluator without
  /// background shots) compares each requested dose with the one currently
  /// applied:
  ///   - a shot whose relative change is at most delta_threshold is
  ///     *deferred*: its applied dose keeps its old value until the
  ///     accumulated request drifts past the threshold (or the next full
  ///     refresh applies everything), so the evaluator's state deviates from
  ///     the requested doses by at most delta_threshold relative — far below
  ///     the correction tolerance at the default;
  ///   - when the moved shots are a minority (at most half of the updated
  ///     range), only *their* contributions are re-applied: cached splats are
  ///     re-weighted by the dose delta directly into the shared base map
  ///     (O(moved x footprint) instead of the full O(pixels + splats)
  ///     gather), and the cached per-centroid short-range sums are updated
  ///     the same way. The long-range blur still reruns on the updated map.
  /// Every kDeltaReanchor-th delta refresh re-gathers in full to keep the
  /// ~1e-16-per-update rounding drift bounded (well under 1e-12 in
  /// practice). 0 disables the path entirely: every update re-applies every
  /// dose through the full gather, bit-identical to the pre-delta engine —
  /// that is the oracle the equivalence tests compare against.
  double delta_threshold = 1e-4;

  /// Evaluate the centroid sweep's error functions with the vectorized
  /// polynomial in util/vecmath.h (|error| <= 2e-7, ~4x libm throughput on
  /// AVX2) instead of libm's erf. The analytic path already truncates at
  /// cutoff_sigmas (~1e-6 of a term weight), so the approximation does not
  /// change the documented accuracy; exposure_at (the arbitrary-point API)
  /// always uses libm. Disable for erf-exact sweeps.
  bool fast_erf = true;
};

/// Wall-clock accounting of the long-range refresh, for benchmarks and the
/// auto-backend calibration. Times accumulate across set_doses calls.
struct BlurPerf {
  double accumulate_ms = 0.0;  ///< full splat gathers / re-rasterizations
  double blur_ms = 0.0;        ///< per-term convolutions (either backend)
  int refreshes = 0;           ///< completed *full* long-range refreshes

  // Delta-path accounting (see ExposureOptions::delta_threshold).
  double delta_accumulate_ms = 0.0;  ///< delta scatters (splats + short sums)
  int delta_refreshes = 0;           ///< refreshes served by the delta path
  int skipped_refreshes = 0;  ///< set_* calls where no dose moved at all
  long long shots_updated = 0;  ///< shots re-weighted across delta refreshes

  // Windowed delta-blur accounting: delta refreshes whose long-range blur
  // ran on a sub-window around the touched region instead of the full map
  // (see ExposureOptions::delta_threshold and docs/architecture.md). The
  // time is a subset of blur_ms.
  int windowed_blurs = 0;         ///< blurs served by the windowed path
  double windowed_blur_ms = 0.0;  ///< time inside those windowed blurs

  /// Fold another evaluator's counters into this one (sharded solves
  /// aggregate their per-shard evaluators; summation order is the caller's).
  void merge(const BlurPerf& o) {
    accumulate_ms += o.accumulate_ms;
    blur_ms += o.blur_ms;
    refreshes += o.refreshes;
    delta_accumulate_ms += o.delta_accumulate_ms;
    delta_refreshes += o.delta_refreshes;
    skipped_refreshes += o.skipped_refreshes;
    shots_updated += o.shots_updated;
    windowed_blurs += o.windowed_blurs;
    windowed_blur_ms += o.windowed_blur_ms;
  }
};

/// Evaluates exposure for a fixed shot geometry; per-shot doses can be
/// updated cheaply (cached splats are re-weighted, the neighbor structure is
/// reused, only the long-range blur is recomputed). Query points may be
/// anywhere. Queries are thread-safe and allocation-free after construction.
///
/// Active/background split: the shot list may carry a trailing block of
/// *background* shots (ghosts from neighboring PEC shards). Background shots
/// contribute exposure like active ones — they live in the neighbor grid and
/// their dose-weighted coverage lands on the long-range maps — but they take
/// no dose updates and exposures_at_centroids skips them. Because their
/// doses are frozen, they stay out of the splat cache: a frozen background
/// map holds their coverage (at double precision — agreement with an
/// all-active evaluator is to float-cache precision) and both cache memory
/// and the per-iteration gather are O(active). This is how the sharded
/// corrector freezes halo doses without a second evaluator or copied
/// geometry.
class ExposureEvaluator {
 public:
  ExposureEvaluator(ShotList shots, const Psf& psf, ExposureOptions options = {});

  /// Split construction: the first @p active_count shots are active, the
  /// rest are frozen-dose background (see the class comment). An
  /// @p active_count of 0 means "all shots active" (same as the plain
  /// constructor).
  ExposureEvaluator(ShotList shots, std::size_t active_count, const Psf& psf,
                    ExposureOptions options = {});

  const ShotList& shots() const { return shots_; }

  /// Number of active (dose-updatable) shots; equals shots().size() unless
  /// the split constructor was used.
  std::size_t active_count() const { return active_; }

  /// Replaces all doses — active and background (size must match
  /// shots().size()) — and refreshes cached maps. On a split evaluator the
  /// background may move, so the refresh is always the full gather.
  void set_doses(const std::vector<double>& doses);

  /// Replaces the active doses only (size must match active_count());
  /// background doses stay frozen. Refreshes cached maps.
  void set_active_doses(const std::vector<double>& doses);

  /// Replaces every dose (active and background) exactly, regardless of
  /// delta_threshold: all requested doses are applied through the full
  /// gather, so the evaluator afterwards is bit-identical to one freshly
  /// constructed at these doses, while the expensive geometry caches
  /// (neighbor grid, splat clipping, kernel taps, FFT plan) are reused. When
  /// every requested dose already equals the applied one and no delta scatter
  /// has run since the last full gather, nothing can be stale and the refresh
  /// is skipped. This is the re-entry of a resident shard evaluator, and the
  /// equivalence is what lets the sharded corrector evict and rebuild pool
  /// entries without changing a single bit of the result.
  void reset_doses(const std::vector<double>& doses);

  /// Switches the long-range blur backend and re-derives the blurred maps
  /// from the current doses (the accumulated base map is reused). Lets
  /// benchmarks compare backends on one evaluator instead of paying the
  /// splat cache twice.
  void set_blur_backend(BlurBackend backend);

  /// Backend in effect after resolution (never kAuto). kDirect when there
  /// are no long-range terms.
  BlurBackend blur_backend() const;

  /// Exposure at a point (energy density relative to unit-dose infinite
  /// pattern = 1).
  double exposure_at(double px, double py) const;
  double exposure_at(Point p) const { return exposure_at(p.x, p.y); }

  /// Exposures at every *active* shot's representative point (centroid).
  /// Runs on the thread pool; output is identical for any thread count.
  /// The short-range (analytic) part of the sweep is cached per centroid and
  /// kept current by the delta path, so sweeps after a small dose update
  /// cost the long-map samples plus the moved shots' neighborhoods only.
  /// The cache refresh mutates internal state: concurrent sweep calls on one
  /// evaluator are not supported (point queries via exposure_at remain
  /// thread-safe).
  std::vector<double> exposures_at_centroids() const;

  /// Representative (centroid) point of shot i.
  std::pair<double, double> centroid(std::size_t i) const;

  /// Cumulative long-range refresh timings (see BlurPerf).
  const BlurPerf& blur_perf() const { return perf_; }

 private:
  void build_grid();
  void build_long_range();
  void rebuild_ghost_base();
  void accumulate_long_range();
  void blur_long_range();
  // Windowed blur: merges the marked blur tiles (see mark_blur_tiles) into
  // patch rectangles and re-derives every term map only on those, each from
  // its own support window W = dilate(P, r), when the summed flop model says
  // the windows beat one full-map blur. Patching per rectangle instead of
  // one union bbox lets spatially scattered movers (a ring of boundary
  // shots, a handful of islands) window — their union bbox would cover the
  // whole map. A window blurs through the separable passes or a snug FFT
  // sub-plan, whichever the flop model prefers; either agrees with the
  // full-map blur to rounding, which the delta path's 1e-12 contract
  // absorbs. Returns false (and blurs nothing) when the windows would not
  // win; the caller then runs blur_long_range(), which also clears the tile
  // marks.
  bool blur_long_range_windowed();

  // Delta-path internals (see ExposureOptions::delta_threshold).
  // Both take the doses of shots_[0..end).
  void update_doses(const double* doses, std::size_t end);
  void apply_full(const double* doses, std::size_t end);
  void apply_delta(const double* doses);
  void scatter_short_delta(std::uint32_t shot, double delta);
  void refresh_short_cache() const;
  // Shared neighbor walk of the analytic path: epoch-deduped grid scan
  // around (px, py) with the cutoff bbox-distance reject, invoking
  // fn(shot_index) for every accepted shot in deterministic cell-scan
  // order. Both the scalar point query and the batched sweep go through it,
  // so their inclusion semantics cannot drift apart.
  template <typename Fn>
  void visit_short_neighbors(double px, double py, Fn&& fn) const;
  double short_exposure_batched(double px, double py) const;
  double short_kernel_batched(const Trapezoid& shape, double px, double py) const;
  void eval_erf(const double* x, double* y, std::size_t n) const;

  ShotList shots_;
  std::size_t active_ = 0;  ///< shots_[0..active_) take dose updates
  std::vector<PsfTerm> short_terms_;
  std::vector<PsfTerm> long_terms_;
  ExposureOptions opt_;

  // Flat CSR spatial grid over shot bboxes for the analytic path: shots of
  // cell (x, y) are grid_items_[grid_start_[y * gx_ + x] ..
  // grid_start_[y * gx_ + x + 1]). Empty when there are no short terms.
  Coord cell_ = 1;
  Point grid_origin_{0, 0};
  int gx_ = 0, gy_ = 0;
  std::vector<std::uint32_t> grid_start_;
  std::vector<std::uint32_t> grid_items_;
  double cutoff_ = 0.0;

  // Long-range state: one shared accumulated (pre-blur) base map plus the
  // pixel-major splat cache that rebuilds it — pixel p's value is
  // sum over k in [px_start[p], px_start[p]+1) of px_frac[k] *
  // dose[px_shot[k]], always summed in ascending-k order for determinism —
  // and one blurred raster per long-range term, derived from the base.
  struct TermMap {
    PsfTerm term;
    std::vector<double> taps;  ///< truncated normalized kernel, both backends
    std::unique_ptr<Raster> map;
  };
  // Background (frozen-dose) shots are not in the splat cache: their
  // dose-weighted coverage is rasterized once into ghost_base_ and added on
  // top of the active gather, so cache memory and the per-iteration gather
  // are O(active shots). Rebuilt only by the dose setters that may move
  // background doses; null when every shot is active.
  std::unique_ptr<Raster> long_base_;
  std::unique_ptr<Raster> ghost_base_;
  std::vector<std::uint32_t> px_start_;
  std::vector<std::uint32_t> px_shot_;
  std::vector<float> px_frac_;
  // Shot-major view of the same splats (shot j's footprint is
  // shot_px_/shot_frac_[shot_start_[j] .. shot_start_[j+1])): the delta path
  // scatters a moved shot's dose change straight into the base map through
  // it. Built from the same emission stream as the pixel-major CSR, so the
  // fractions are bit-identical between the two views.
  std::vector<std::uint32_t> shot_start_;
  std::vector<std::uint32_t> shot_px_;
  std::vector<float> shot_frac_;
  std::vector<TermMap> term_maps_;
  bool use_fft_ = false;
  int max_radius_ = 0;
  std::unique_ptr<FftConvolver> convolver_;  // created lazily on first FFT use
  std::vector<int> term_kernel_ids_;  // registered kernel slot per term map
  BlurPerf perf_;

  // Windowed-blur scratch (see blur_long_range_windowed): extracted window,
  // per-term outputs, and a lazily planned snug FFT sub-plan with the term
  // kernels registered (rebuilt when the window size changes).
  std::vector<double> win_src_;
  std::vector<std::vector<double>> win_out_;
  std::unique_ptr<FftConvolver> win_conv_;
  std::vector<int> win_ids_;

  // Tile-granular touch mask feeding the windowed blur: the map is carved
  // into fixed-size tiles, and the delta path marks every tile intersecting
  // a moved footprint's patch region (the footprint dilated by the widest
  // kernel support). blur_long_range_windowed consumes and the next full
  // blur resets the marks.
  int tile_nx_ = 0, tile_ny_ = 0;
  std::vector<std::uint8_t> blur_tiles_;
  int tiles_marked_ = 0;
  void mark_blur_tiles(const Box& bb);
  void clear_blur_tiles();

  // Active-centroid cache (query points of the sweep) and the cached
  // short-range analytic sums at them. The cache is rebuilt on the next
  // sweep after any full refresh and kept current by delta scatters
  // otherwise; mutable because the sweep (const) owns the lazy rebuild.
  std::vector<double> cx_, cy_;
  mutable std::vector<double> short_cache_;
  mutable bool short_cache_valid_ = false;
  int delta_streak_ = 0;  ///< delta refreshes since the last full gather
  std::vector<std::uint32_t> moved_scratch_;
};

/// Separable Gaussian blur of a raster (kernel truncated at 4 sigma), with
/// sigma given in dbu. The raster is interpreted as coverage-per-pixel; the
/// result is the normalized convolution such that an all-ones raster stays
/// all-ones in the interior. Row/column passes run on the thread pool
/// (threads: 0 = auto, see ExposureOptions::threads); output is identical
/// for any thread count.
void gaussian_blur(Raster& raster, double sigma_dbu, int threads = 0);

/// The same blur computed by spectral multiplication: a padded real FFT of
/// the raster times the exact spectrum of the same truncated kernel. Agrees
/// with gaussian_blur to floating-point rounding (well below 1e-6) for any
/// sigma and raster size; cost is independent of sigma. Plans ad hoc — hold
/// an FftConvolver instead when blurring the same-sized raster repeatedly.
void fft_gaussian_blur(Raster& raster, double sigma_dbu, int threads = 0);

/// Backend-dispatched blur: kDirect and kFft call the functions above;
/// kAuto picks by the same flop model the evaluator uses.
void gaussian_blur(Raster& raster, double sigma_dbu, BlurBackend backend,
                   int threads = 0);

/// The discrete blur kernel both backends share: taps[j] is the normalized
/// weight at +-j pixels, truncated at radius max(1, ceil(4 sigma_px)),
/// following the PSF convention exp(-x^2 / sigma^2).
std::vector<double> gaussian_kernel_taps(double sigma_px);

/// The flop-model decision behind BlurBackend::kAuto: true when spectral
/// convolution of an nx-by-ny raster with one kernel per entry of radii
/// (sharing a single forward transform) beats running the separable passes
/// for each, including the measured direct-vs-FFT throughput gap.
bool fft_blur_wins(int nx, int ny, const std::vector<std::size_t>& radii);

/// Separable symmetric convolution of the raster with explicit taps
/// (taps[0] center), zero boundaries, in place. The primitive behind
/// gaussian_blur, exposed for tests and custom kernels.
void separable_blur(Raster& raster, const std::vector<double>& taps,
                    int threads = 0);

}  // namespace ebl
