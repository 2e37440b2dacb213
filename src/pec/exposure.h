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
//     multiple of p within its own sigma_t / kPixelsPerSigma. The active
//     shots are binned once, at construction, by 16-row band of the fine
//     base, and each slanted active shot's footprint is clipped once; a
//     dose refresh re-gathers the base band by band straight from the shots
//     (a rectangle re-clipped to the band's rows, a slanted shot's cached
//     footprint read back for those rows, each weighted by its dose), then
//     box-averages it onto each coarser term's map (coverage is additive,
//     so this step is exact) and blurs there; a term at the base pixel
//     blurs straight out of the base. Every kernel is then about
//     4 * kPixelsPerSigma pixels wide, so one blur suffices: separable_blur's
//     fused, register-blocked row and column passes.
//   - The blur forms only the pixels the centroid sweep reads. Each term
//     keeps a read set, built once from the geometry: the in-grid pixels of
//     every active centroid's bilinear stencil, as column runs per row
//     rounded out to whole vectors. A refresh row-blurs only the rows
//     within the kernel radius of a read pixel, at the union of the read
//     columns, and column-combines only the read pixels into a compact
//     value array; each centroid holds its four slots in it. Every value
//     keeps separable_blur's tap order, so it equals that pixel of the
//     dense blurred map bit for bit, and a read set that covers the map
//     does the dense blur's work. No blurred map is held: exposure_at
//     forms its four pixels on demand.
//   - Dose updates are incremental (see kDeltaThreshold): the evaluator
//     tracks per-shot dose deltas, and when only a minority of doses moved
//     it adds just those shots' coverage to the base map, weighted by their
//     dose change, and patches the cached per-centroid short-range sums —
//     O(moved) instead of O(everything) — with sub-threshold updates
//     deferred entirely.
//   - The centroid sweep's erf evaluations are batched through the
//     vectorized polynomial in util/vecmath.h (4-wide AVX2 + FMA, ~4x libm;
//     see ExposureOptions::fast_erf).
//   - exposures_at_centroids, the banded gather, the box averages and the
//     blur passes run on the util/parallel.h thread pool. Results are
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

/// Incremental dose-delta updates. After a few Jacobi sweeps most doses move
/// by far less than the correction tolerance; re-gathering every shot (and
/// re-summing every analytic neighbor term) for updates that moved almost
/// nothing is where the iterative corrector used to spend its tail.
/// set_active_doses compares each requested dose with the one currently
/// applied:
///   - a shot whose relative change is at most kDeltaThreshold is
///     *deferred*: its applied dose keeps its old value until the
///     accumulated request drifts past the threshold (or the next full
///     refresh applies everything), so the evaluator's state deviates from
///     the requested doses by at most kDeltaThreshold relative — far below
///     any correction tolerance in use;
///   - when the moved shots are a minority (at most half of the active
///     shots), only *their* contributions are re-applied: each moved shot's
///     coverage is added, weighted by its dose delta, to the fine base
///     map (O(moved x footprint) instead of the full O(pixels + footprints)
///     gather), and the cached per-centroid short-range sums are updated
///     the same way. The long-range blur still reruns over every term's
///     read set.
/// Every kDeltaReanchor-th delta refresh re-gathers in full to keep the
/// ~1e-16-per-update rounding drift bounded (well under 1e-12 in practice).
/// reset_doses is the exact entry point: it never defers and never scatters.
inline constexpr double kDeltaThreshold = 1e-4;

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

  /// Worker threads for centroid sweeps, the long-range gather, and the blur
  /// passes. 0 = auto: the EBL_THREADS environment variable if set, else
  /// std::thread::hardware_concurrency(). Results are identical for any
  /// value (see the header comment).
  int threads = 0;

  /// Evaluate the centroid sweep's error functions with the vectorized
  /// polynomial in util/vecmath.h (|error| <= 2e-7, ~4x libm throughput on
  /// AVX2) instead of libm's erf. The analytic path already truncates at
  /// cutoff_sigmas (~1e-6 of a term weight), so the approximation does not
  /// change the documented accuracy; exposure_at (the arbitrary-point API)
  /// always uses libm. Disable for erf-exact sweeps.
  bool fast_erf = true;
};

/// Wall-clock accounting of the long-range refresh, for benchmarks and
/// traces. Times accumulate across dose refreshes.
struct BlurPerf {
  double accumulate_ms = 0.0;  ///< full long-range gathers
  double blur_ms = 0.0;        ///< per-term box averages and convolutions
  int refreshes = 0;           ///< completed *full* long-range refreshes

  // Delta-path accounting (see kDeltaThreshold).
  double delta_accumulate_ms = 0.0;  ///< delta scatters (base map + short sums)
  int delta_refreshes = 0;           ///< refreshes served by the delta path
  int skipped_refreshes = 0;  ///< set_* calls where no dose moved at all
  long long shots_updated = 0;  ///< shots re-weighted across delta refreshes

  // Always 0: the evaluator has no windowed blur. Kept only because the
  // end-to-end benchmark still reads them; merge and the wire skip them.
  int windowed_blurs = 0;
  double windowed_blur_ms = 0.0;

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
  }
};

namespace detail {
/// Columns [x, x + n) of a map row.
struct ColumnRun {
  std::uint32_t x, n;
};

/// The pixels of a PEC term map the centroid sweep reads, by row, each
/// row's rounded out to whole groups of 4 columns (one AVX2 vector): row
/// y's are runs [run_start[y], run_start[y + 1]), with x a position in the
/// compact row (below), and their blurred values are stored from
/// value_start[y] on, in run order. The blur row-blurs only the rows with
/// need_row set (those within the kernel radius of a read pixel), at the
/// union of those groups merged into runs: cols, in raster columns, width
/// columns in all, packed left to right into the compact row.
struct ReadSet {
  std::vector<std::uint32_t> run_start;
  std::vector<ColumnRun> runs;
  std::vector<std::uint32_t> value_start;
  std::vector<std::uint8_t> need_row;
  std::vector<ColumnRun> cols;
  std::size_t width = 0;
};
}  // namespace detail

/// Evaluates exposure for a fixed shot geometry; per-shot doses can be
/// updated cheaply (the band binning, the slanted shots' footprints and the
/// neighbor structure are reused; the base map is re-gathered and the
/// long-range blur recomputed). Query points may be anywhere. Queries are
/// thread-safe and allocation-free after construction.
///
/// Active/background split: the shot list may carry a trailing block of
/// *background* shots (ghosts from neighboring PEC shards). Background shots
/// contribute exposure like active ones — they live in the neighbor grid and
/// their dose-weighted coverage lands on the long-range maps — but they take
/// no dose updates and exposures_at_centroids skips them. Because their
/// doses are frozen, they stay out of the band binning: a frozen background
/// map holds their coverage (at double precision, where the gather rounds
/// each active fraction to float, so agreement with an all-active evaluator
/// is to float precision) and the per-iteration gather is O(active). This
/// is how the sharded corrector freezes halo doses without a second
/// evaluator or copied geometry.
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

  /// Replaces the active doses only (size must match active_count());
  /// background doses stay frozen. Refreshes cached maps incrementally:
  /// sub-threshold moves are deferred and a minority of movers takes the
  /// delta path (see kDeltaThreshold).
  void set_active_doses(const std::vector<double>& doses);

  /// Replaces every dose (active and background) exactly, regardless of
  /// kDeltaThreshold: all requested doses are applied through the full
  /// gather, so the evaluator afterwards is bit-identical to one freshly
  /// constructed at these doses, while the geometry state (neighbor grid,
  /// band binning, slanted-shot footprints, term maps and kernel taps) is
  /// reused.
  /// When every requested dose already equals the applied one and no delta
  /// scatter has run since the last full gather, nothing can be stale and
  /// the refresh is skipped. This is the re-entry of a resident shard evaluator, and the
  /// equivalence is what lets the sharded corrector evict and rebuild pool
  /// entries without changing a single bit of the result.
  void reset_doses(const std::vector<double>& doses);

  /// Exposure at a point (energy density relative to unit-dose infinite
  /// pattern = 1). The evaluator blurs only the centroids' pixels, so each
  /// long-range term forms the point's four pixels here, from its unblurred
  /// source in the blur's tap order: about (2r + 1)^2 multiply-adds per
  /// pixel at kernel radius r, bit-identical to a dense blurred map. Meant
  /// for probes and tests; the correctors use exposures_at_centroids.
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
  // Adds weight * active shot i's float-rounded coverage to rows
  // [row0, row1) of the fine base map (see slant_start_).
  void add_shot_coverage(std::size_t i, int row0, int row1, double weight);
  // Rows [row0, row1) of the full gather, written from the background and
  // band b's shots.
  void gather_band(std::size_t b, int row0, int row1, const double* bg);
  // Re-derives every term's read values from the fine base: box-average
  // onto the term's coarse source (k > 1), then the blur of the read set.
  void blur_long_range();

  // Delta-path internals (see kDeltaThreshold). update_doses takes the
  // active doses, apply_full the doses of shots_[0..end).
  void update_doses(const double* doses);
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
  // Active centroids [i0, i1) of the sweep into out.
  void sweep_centroids(std::size_t i0, std::size_t i1, double* out) const;
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

  // Long-range state: one fine accumulated (pre-blur) base map — pixel p
  // holds the background coverage plus, in ascending shot order, each active
  // shot's float-rounded coverage fraction times its dose — and, per
  // long-range term, its unblurred source (the base at k = 1, else a
  // box-averaged coarse raster) plus the blurred values of the pixels the
  // centroid sweep reads (see the header comment).
  //
  // One active centroid's bilinear stencil on a term map: the value slots of
  // pixels (ix, iy), (ix + 1, iy), (ix, iy + 1), (ix + 1, iy + 1) and the
  // weights of Raster::sample. Slot 0 holds 0.0 and stands in for pixels off
  // the map.
  struct Stencil {
    std::uint32_t slot[4];
    double tx, ty;
  };
  struct TermMap {
    PsfTerm term;
    int k = 1;                 ///< map pixel in base pixels (same origin)
    std::vector<double> taps;  ///< truncated normalized kernel at k * pixel
    std::unique_ptr<Raster> coarse;  ///< the box-averaged source; null at k = 1
    detail::ReadSet reads;
    std::vector<double> values;     ///< slot 0, then the read pixels' blur
    std::vector<Stencil> stencils;  ///< per active centroid
  };
  // The unblurred source a term's blur reads: the base at k = 1.
  const Raster& source(const TermMap& tm) const {
    return tm.coarse ? *tm.coarse : *long_base_;
  }
  // Builds tm's read set and the active centroids' stencils on it.
  void build_read_set(TermMap& tm);
  // Background (frozen-dose) shots are not gathered: their dose-weighted
  // coverage is rasterized once into ghost_base_, where every gather band
  // starts, so the per-iteration gather is O(active shots). Rebuilt only by
  // reset_doses, the one dose setter that may move background doses; null
  // when every shot is active. Both bases are at the fine pixel only.
  std::unique_ptr<Raster> long_base_;
  std::unique_ptr<Raster> ghost_base_;
  // Active shots by 16-row band of the base map: band b gathers shots
  // band_shot_[band_start_[b] .. band_start_[b + 1]), in ascending index. A
  // shot taller than a band is listed in every band it touches.
  std::vector<std::uint32_t> band_start_;
  std::vector<std::uint32_t> band_shot_;
  // Footprints of the active non-rectangle shots, clipped once at
  // construction: shot i's base pixels (row-major) and float-rounded
  // fractions are slant_[slant_start_[i] .. slant_start_[i + 1]), empty for
  // a rectangle. A rectangle re-clips in two subtractions and a multiply per
  // pixel, so every gather re-derives it; a slanted shot's convex clip plus
  // shoelace costs several times a read-back. Both empty when every active
  // shot is a rectangle.
  struct Splat {
    std::uint32_t px;
    float frac;
  };
  std::vector<std::uint32_t> slant_start_;
  std::vector<Splat> slant_;
  std::vector<TermMap> term_maps_;
  BlurPerf perf_;

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
/// all-ones in the interior. Runs on the thread pool (threads: 0 = auto,
/// see ExposureOptions::threads); output is identical for any thread count.
void gaussian_blur(Raster& raster, double sigma_dbu, int threads = 0);

/// The discrete Gaussian blur kernel: taps[j] is the normalized
/// weight at +-j pixels, truncated at radius max(1, ceil(4 sigma_px)),
/// following the PSF convention exp(-x^2 / sigma^2).
std::vector<double> gaussian_kernel_taps(double sigma_px);

/// Separable symmetric convolution of the raster with explicit taps
/// (taps[0] center, radius r = taps.size() - 1), zero boundaries, in place.
/// The primitive behind gaussian_blur, exposed for tests and custom kernels.
///
/// Summation order, the same on every CPU and for any thread count: the row
/// pass forms each pixel as taps[0] * c, then + taps[k] * left and
/// + taps[k] * right for k = 1..r; the column pass combines the row-blurred
/// rows in the same order (above before below). Taps that fall off the
/// raster are skipped, not renormalized. The passes are fused in bands of
/// rows: each band keeps a ring of 2r + 1 row-blurred rows, and the rows
/// within r of a band boundary are row-blurred once into a halo buffer
/// first. Scratch is those rows plus one ring per thread, kept per thread
/// across calls; there is no full-raster intermediate.
void separable_blur(Raster& raster, const std::vector<double>& taps,
                    int threads = 0);

/// The same blur from an nx x ny window of src into one of dst, both
/// row-major with rows @p stride doubles apart, so a caller can blur part of
/// a larger raster or keep its input. src == dst blurs in place; otherwise
/// the two windows must not overlap. Taps that fall off the window are
/// skipped; where the raster is zero past the window's edge they would only
/// have added zeros.
void separable_blur(const double* src, double* dst, int nx, int ny, std::size_t stride,
                    const std::vector<double>& taps, int threads = 0);

namespace detail {
/// Test entry point of separable_blur: the same sweep with the band count
/// (clamped to [1, ny]) and the kernels fixed by the caller instead of by
/// the thread count and the CPU. avx2 requires has_avx2_fma()
/// (util/vecmath.h). Every choice gives the same bits.
void separable_blur_forced(const double* src, double* dst, int nx, int ny,
                           std::size_t stride, const std::vector<double>& taps,
                           int threads, int bands, bool avx2);
}  // namespace detail

/// Box average onto a k-times-coarser grid sharing the fine raster's origin
/// (nx x ny fine pixels, row-major): coarse pixels [cx0, cx0 + cw) x
/// [cy0, cy0 + ch) are written to dst (row stride cw) as the mean of their
/// k x k fine blocks, fine pixels outside the fine raster counting as zero
/// (so the region may start at negative coarse indices or run past the
/// far edge). Each coarse pixel sums its block rows then columns in
/// ascending order, whatever region it is computed in, so a partial
/// extract equals the full map's bit for bit. Rows run on the thread pool;
/// output is identical for any thread count.
void box_average(const double* fine, int nx, int ny, int k, int cx0, int cy0,
                 int cw, int ch, double* dst, int threads = 0);

/// Coarsening factor of a PSF term's blur map over a @p pixel grid: the
/// largest k >= 1 with k * pixel within sigma / kPixelsPerSigma (1 when
/// sigma is narrower), so a kernel on k * pixel pixels spans about
/// 4 * kPixelsPerSigma of them each way. The PEC evaluator's term maps and
/// simulate_exposure both size their maps with it.
int term_k(double sigma, Coord pixel);

}  // namespace ebl
