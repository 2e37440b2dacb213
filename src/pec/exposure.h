// Exposure evaluation: deposited energy at arbitrary points for a dosed
// shot list under a sum-of-Gaussians PSF.
//
// Two-scale strategy (the same split commercial PEC engines use):
//   - short-range terms (forward scattering, sigma below
//     kLongRangeThreshold) are summed analytically over neighbor shots
//     within a cutoff, found through a flat CSR spatial grid;
//   - long-range terms (backscattering, sigma >> feature size) are evaluated
//     on coarse rasters, one per term: dose-weighted coverage, Gaussian
//     convolution, bilinear interpolation at the query point.
// The split keeps evaluation O(neighbors) per point instead of O(shots),
// with error bounded by the raster pixel (<= sigma / kPixelsPerSigma) and
// the cutoff_sigmas truncation (< 1e-6 of the term weight at the default 4
// sigma).
//
// Throughput design (the PEC inner loop calls this millions of times):
//   - Neighbor queries are zero-allocation: the grid is a flat CSR layout
//     (offsets + packed shot indices) and duplicate candidates (a shot's bbox
//     spans several cells) are rejected with epoch-stamped visited marks in a
//     thread-local scratch — no per-query vector, sort, or unique.
//   - Every long-range term gets its own map, all sharing one origin: the
//     base pixel p resolves the finest long term (sigma_min /
//     kPixelsPerSigma), and term t samples at k_t * p, the largest integer
//     multiple of p within its own sigma_t / kPixelsPerSigma. Each shot's
//     sparse footprint on the fine base (pixel, coverage-fraction) is
//     computed once at construction and cached in a pixel-major CSR ("splat
//     cache"); set_doses re-accumulates the fine base as a dose-weighted sum
//     of cached splats, then box-averages it onto each term's map (coverage
//     is additive, so this step is exact) and blurs there. Every kernel is
//     then about 4 * kPixelsPerSigma pixels wide, so one blur suffices: the
//     separable sliding-window passes.
//   - Dose updates are incremental (ExposureOptions::delta_threshold): the
//     evaluator tracks per-shot dose deltas, and when only a minority of
//     doses moved it re-weights just those shots' cached splats into the
//     base map and patches the cached per-centroid short-range sums —
//     O(moved) instead of O(everything) — with sub-threshold updates
//     deferred entirely. The long-range blur then re-derives only windows
//     around the moved shots when they are small against a term's map.
//   - The centroid sweep's erf evaluations are batched through the
//     vectorized polynomial in util/vecmath.h (4-wide AVX2 + FMA, ~4x libm;
//     see ExposureOptions::fast_erf).
//   - exposures_at_centroids, splat re-accumulation, the box averages and
//     the blur passes run on the util/parallel.h thread pool. Results are
//     bit-identical for any thread count: work is only ever split over
//     disjoint output elements, each of which is computed in a fixed
//     sequential order, and delta scatters run serially in shot order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/psf.h"

namespace ebl {

/// PSF terms with sigma >= this many dbu go to the raster path; narrower
/// ones are summed analytically over neighbors.
inline constexpr double kLongRangeThreshold = 400.0;

/// Long-range map resolution: each term's map pixel is the largest multiple
/// of the base pixel (finest long-range sigma / this factor) within the
/// term's own sigma / this factor, so every kernel spans about 4x this many
/// pixels (radius 16).
inline constexpr double kPixelsPerSigma = 4.0;

struct ExposureOptions {
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
  ///     re-weighted by the dose delta directly into the fine base map
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

/// Wall-clock accounting of the long-range refresh, for benchmarks and
/// traces. Times accumulate across set_doses calls.
struct BlurPerf {
  double accumulate_ms = 0.0;  ///< full splat gathers / re-rasterizations
  double blur_ms = 0.0;        ///< per-term box averages and convolutions
  int refreshes = 0;           ///< completed *full* long-range refreshes

  // Delta-path accounting (see ExposureOptions::delta_threshold).
  double delta_accumulate_ms = 0.0;  ///< delta scatters (splats + short sums)
  int delta_refreshes = 0;           ///< refreshes served by the delta path
  int skipped_refreshes = 0;  ///< set_* calls where no dose moved at all
  long long shots_updated = 0;  ///< shots re-weighted across delta refreshes

  // Windowed delta-blur accounting: delta refreshes where at least one
  // term's blur ran on sub-windows around the touched region instead of its
  // full map (see ExposureOptions::delta_threshold and
  // docs/architecture.md). The time is a subset of blur_ms.
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
  /// (neighbor grid, splat clipping, term maps and kernel taps) are reused.
  /// When every requested dose already equals the applied one and no delta
  /// scatter has run since the last full gather, nothing can be stale and
  /// the refresh is skipped. This is the re-entry of a resident shard evaluator, and the
  /// equivalence is what lets the sharded corrector evict and rebuild pool
  /// entries without changing a single bit of the result.
  void reset_doses(const std::vector<double>& doses);

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
  // Re-derives every term map from the fine base: box-average onto the
  // term's raster, then the separable blur. When the delta path has marked
  // blur tiles (see mark_blur_tiles), each term instead re-derives only its
  // patch rectangles if their windows hold fewer pixels than its map (see
  // blur_term_windowed). Clears the tile marks.
  void blur_long_range();

  // Windowed blur. The marked tiles merge into rectangles (merged_blur_tiles);
  // patching per rectangle instead of one union bbox lets spatially
  // scattered movers (a ring of boundary shots, a handful of islands)
  // window — their union bbox would cover the whole map. Term t's patch P is
  // a rectangle's fine pixels divided by k_t, padded by one coarse pixel;
  // its window is W = dilate(P, r_t), box-averaged from the fine base and
  // blurred by the same separable passes, so P comes out bit-identical to
  // the full-map blur. Returns false (and blurs nothing) when the windows
  // hold at least as many pixels as the term's map.
  struct TileRect {
    int tx0, tx1, ty0, ty1;  // tile coords, inclusive
  };
  std::vector<TileRect> merged_blur_tiles() const;
  struct TermMap;
  void blur_term(TermMap& tm);
  bool blur_term_windowed(TermMap& tm, const std::vector<TileRect>& rects);

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

  // Long-range state: one fine accumulated (pre-blur) base map plus the
  // pixel-major splat cache that rebuilds it — pixel p's value is
  // sum over k in [px_start[p], px_start[p]+1) of px_frac[k] *
  // dose[px_shot[k]], always summed in ascending-k order for determinism —
  // and one blurred raster per long-range term, box-averaged from the base.
  struct TermMap {
    PsfTerm term;
    int k = 1;                 ///< map pixel in base pixels (same origin)
    std::vector<double> taps;  ///< truncated normalized kernel at k * pixel
    std::unique_ptr<Raster> map;
  };
  // Background (frozen-dose) shots are not in the splat cache: their
  // dose-weighted coverage is rasterized once into ghost_base_ and added on
  // top of the active gather, so cache memory and the per-iteration gather
  // are O(active shots). Rebuilt only by the dose setters that may move
  // background doses; null when every shot is active. Both bases are at the
  // fine pixel only.
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
  int support_px_ = 0;  ///< widest kernel support in base pixels (k * radius)
  BlurPerf perf_;
  std::vector<double> win_src_;  ///< windowed-blur scratch

  // Tile-granular touch mask feeding the windowed blur: the base map is
  // carved into fixed-size tiles, and the delta path marks every tile
  // intersecting a moved footprint's patch region (the footprint dilated by
  // support_px_). blur_long_range consumes and resets the marks.
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

/// The discrete Gaussian blur kernel: taps[j] is the normalized
/// weight at +-j pixels, truncated at radius max(1, ceil(4 sigma_px)),
/// following the PSF convention exp(-x^2 / sigma^2).
std::vector<double> gaussian_kernel_taps(double sigma_px);

/// Separable symmetric convolution of the raster with explicit taps
/// (taps[0] center), zero boundaries, in place. The primitive behind
/// gaussian_blur, exposed for tests and custom kernels.
void separable_blur(Raster& raster, const std::vector<double>& taps,
                    int threads = 0);

/// The same passes on an nx x ny window of a row-major buffer whose rows lie
/// @p stride doubles apart, in place, so a caller can blur part of a larger
/// raster. Taps that fall off the window are skipped; where the raster is
/// zero past the window's edge they would only have added zeros.
void separable_blur(double* data, int nx, int ny, std::size_t stride,
                    const std::vector<double>& taps, int threads = 0);

/// Box average onto a k-times-coarser grid sharing the fine raster's origin
/// (nx x ny fine pixels, row-major): coarse pixels [cx0, cx0 + cw) x
/// [cy0, cy0 + ch) are written to dst (row stride cw) as the mean of their
/// k x k fine blocks, fine pixels outside the fine raster counting as zero
/// (so the region may start at negative coarse indices or run past the
/// far edge). Each coarse pixel sums its block rows then columns in
/// ascending order, whatever region it is computed in, so a windowed
/// extract equals the full map's bit for bit. Rows run on the thread pool;
/// output is identical for any thread count. k == 1 inside the fine raster
/// is a plain copy.
void box_average(const double* fine, int nx, int ny, int k, int cx0, int cy0,
                 int cw, int ch, double* dst, int threads = 0);

/// Coarsening factor of a PSF term's blur map over a @p pixel grid: the
/// largest k >= 1 with k * pixel within sigma / kPixelsPerSigma (1 when
/// sigma is narrower), so a kernel on k * pixel pixels spans about
/// 4 * kPixelsPerSigma of them each way. The PEC evaluator's term maps and
/// simulate_exposure both size their maps with it.
int term_k(double sigma, Coord pixel);

}  // namespace ebl
