// Exposure evaluation: deposited energy at arbitrary points for a dosed
// shot list under a sum-of-Gaussians PSF.
//
// Two-scale strategy (the split commercial PEC engines use; PROXECCO sums
// the backscatter on a coarse grid and the near terms another way):
//   - short-range terms are summed analytically over neighbor shots within
//     a cutoff, found through a flat CSR spatial grid;
//   - long-range terms (backscattering, sigma >> feature size) are evaluated
//     on coarse rasters, one per term: dose-weighted coverage, Gaussian
//     convolution, bilinear interpolation at the query point.
// Which terms are short is chosen per evaluator, at construction, from the
// geometry and the PSF alone: every term below kLongRangeThreshold is
// analytic, the widest term is on a raster, and each term in between,
// finest first, is analytic when a measured cost model says the operator
// with it is cheaper than the raster it would set: about 25 ns per
// rectangle the operator emits (every analytic term's, at the term's
// cutoff) against 2.9 ns per pixel of that raster's base grid plus 8.3 ns
// per pixel a rectangle covers and 97 ns per pixel a slanted shape covers
// (construction plus two refreshes on two threads; docs/architecture.md
// has the fit). The model leaves out fixed costs, which lean towards the
// raster, so near the break-even it keeps the raster. The operator is
// built with the term and gives up once it has emitted more rectangles
// than the raster is worth, unless two cheap lower bounds (each centroid's
// own shot, then its own neighbor cell) have already ruled the term out;
// so an accepted term costs no extra pass, and a rejected one at most
// about its raster's cost.
// The first term that stays on a raster keeps every wider one there. A
// mid-range term next to large pads needs a few rectangles per centroid
// but would set a fine base pixel over the whole frame; on a dense slanted
// layout it is the other way round.
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
//     multiple of p within its own sigma_t / kPixelsPerSigma. Every kernel
//     is then about 4 * kPixelsPerSigma pixels wide, so one blur suffices:
//     separable_blur's fused, register-blocked row and column passes.
//   - No frame-sized raster is held. All shots, ghosts included, are binned
//     once, at construction, by band of the fine base (at least 16 rows, a
//     multiple of every k_t > 1, so no k_t x k_t block straddles two
//     bands), and each slanted active shot's footprint is clipped once. A
//     dose refresh streams the base: each thread gathers one band at a time
//     into its own buffer straight from the shots (a rectangle re-clipped
//     to the band's rows, a slanted active's cached footprint read back for
//     those rows, each weighted by its dose) and uses it at once:
//     box-averaged into each coarser term's map (coverage is additive, so
//     this step is exact), and for each term at the base pixel row-blurred
//     at its read columns (below), the rows kept for its column pass.
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
//     forms its four pixels on demand, at the base pixel from base rows it
//     gathers itself.
//   - The short-range sums come from an operator built once from the
//     geometry: per active centroid, its accepted rectangles in emission
//     order with their erf differences, so a dose update re-forms each sum
//     from those coefficients without a grid walk or an erf.
//   - Every dose update is exact: a refresh re-gathers every band and
//     re-forms the per-centroid short-range sums, so the evaluator always
//     equals a fresh one at its doses; only an update that changes no dose
//     is skipped.
//   - The operator's erf evaluations are batched per centroid through the
//     vectorized polynomial in util/vecmath.h (4-wide AVX2 + FMA, ~4x libm;
//     see ExposureOptions::fast_erf).
//   - exposures_at_centroids, the banded gather, the box averages and the
//     blur passes run on the util/parallel.h thread pool. Results are
//     bit-identical for any thread count: work is only ever split over
//     disjoint output elements, each of which is computed in a fixed
//     sequential order.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fracture/shot.h"
#include "geom/raster.h"
#include "pec/psf.h"

namespace ebl {

/// PSF terms narrower than this many dbu are always summed analytically
/// over neighbors. Wider ones go to the raster path, except that a term
/// that is not the widest moves to the analytic sum when that is cheaper
/// (see the header comment).
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
  /// Band sweeps: the gather, the box averages and the base-pixel row blurs.
  double accumulate_ms = 0.0;
  /// Column blurs at the base pixel and the coarser terms' blurs.
  double blur_ms = 0.0;
  int refreshes = 0;          ///< completed long-range refreshes
  int skipped_refreshes = 0;  ///< dose updates that changed no dose

  // Always 0: the evaluator has no delta path and no windowed blur. Kept
  // only because the end-to-end benchmark still reads them; merge and the
  // wire skip them.
  double delta_accumulate_ms = 0.0;
  int delta_refreshes = 0;
  long long shots_updated = 0;
  int windowed_blurs = 0;
  double windowed_blur_ms = 0.0;

  /// Fold another evaluator's counters into this one (sharded solves
  /// aggregate their per-shard evaluators; summation order is the caller's).
  void merge(const BlurPerf& o) {
    accumulate_ms += o.accumulate_ms;
    blur_ms += o.blur_ms;
    refreshes += o.refreshes;
    skipped_refreshes += o.skipped_refreshes;
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
/// updated cheaply (the band binning, the slanted shots' footprints, the
/// neighbor structure and the short-range operator are reused; the base is
/// re-gathered, the long-range blur recomputed and the short-range sums
/// re-formed). Query points may be anywhere. Queries are thread-safe.
///
/// Active/background split: the shot list may carry a trailing block of
/// *background* shots (ghosts from neighboring PEC shards). Background shots
/// contribute exposure like active ones — they live in the neighbor grid and
/// their dose-weighted coverage lands on the long-range maps — but only
/// reset_doses moves their doses and exposures_at_centroids skips them.
/// Each band gathers its ghosts first, in index order and at double
/// precision, then its actives, whose fractions the gather rounds to float,
/// so agreement with an all-active evaluator is to float precision. This
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
  /// background doses stay frozen. Exact like reset_doses: afterwards the
  /// evaluator is bit-identical to one freshly constructed at these doses.
  /// When no dose changes, the refresh is skipped.
  void set_active_doses(const std::vector<double>& doses);

  /// Replaces every dose (active and background) exactly: the evaluator
  /// afterwards is bit-identical to one freshly constructed at these doses,
  /// while the geometry state (neighbor grid, band binning, slanted-shot
  /// footprints, read sets and kernel taps) is reused. When every requested
  /// dose already equals the applied one, the refresh is skipped. This is
  /// the re-entry of a resident shard evaluator, and the equivalence is what
  /// lets the sharded corrector evict and rebuild pool entries without
  /// changing a single bit of the result.
  void reset_doses(const std::vector<double>& doses);

  /// Exposure at a point (energy density relative to unit-dose infinite
  /// pattern = 1). The evaluator blurs only the centroids' pixels, so each
  /// long-range term forms the point's four pixels here, from its unblurred
  /// source in the blur's tap order: about (2r + 1)^2 multiply-adds per
  /// pixel at kernel radius r, bit-identical to a dense blurred map. A term
  /// at the base pixel first gathers the 2r + 2 base rows it reads, in a
  /// thread-local buffer. Meant for probes and tests; the correctors use
  /// exposures_at_centroids.
  double exposure_at(double px, double py) const;
  double exposure_at(Point p) const { return exposure_at(p.x, p.y); }

  /// Exposures at every *active* shot's representative point (centroid).
  /// Runs on the thread pool; output is identical for any thread count.
  /// The short-range (analytic) part of the sweep is re-formed from the
  /// cached operator after a dose update and then kept, so repeated sweeps
  /// cost the long-map samples only. The cache refresh mutates internal
  /// state: concurrent sweep calls on one evaluator are not supported
  /// (point queries via exposure_at remain thread-safe).
  std::vector<double> exposures_at_centroids() const;

  /// Representative (centroid) point of shot i.
  std::pair<double, double> centroid(std::size_t i) const;

  /// Cumulative long-range refresh timings (see BlurPerf).
  const BlurPerf& blur_perf() const { return perf_; }

  /// The PSF terms the short-range operator sums and those on rasters (see
  /// the header comment for the split).
  const std::vector<PsfTerm>& analytic_terms() const { return short_terms_; }
  const std::vector<PsfTerm>& raster_terms() const { return long_terms_; }
  /// Rectangles the short-range operator holds, and pixels of the fine base
  /// grid (0 without raster terms).
  std::size_t operator_rectangles() const { return short_src_.size(); }
  std::size_t base_pixels() const;

 private:
  // Moves the terms of wide (all at or above kLongRangeThreshold) that the
  // cost choice picks into short_terms_ and the rest into long_terms_.
  // Returns whether the short-range operator of the chosen terms is built
  // (on the grid at their cutoff).
  bool choose_term_split(const std::vector<PsfTerm>& wide, const Box& frame);
  // A lower bound on the rectangles the short-range operator would emit at
  // a cutoff of cutoff dbu, counted up to the first total above limit.
  // Builds the neighbor grid for that cutoff unless a first bound that
  // needs none already passes limit.
  double operator_rects_lower_bound(double cutoff, const Box& frame, double limit);
  // The neighbor grid for a neighbor cutoff of cutoff dbu.
  void build_grid(double cutoff, const Box& frame);
  void build_long_range(const Box& frame);
  // One full refresh: the band sweep (refresh_band per band), then every
  // term's blur of its read set.
  void refresh_long_range();
  // Rows [row0, row1) of band b's gather into out (row row0 first): the
  // band's ghosts at double precision, then its actives (see
  // add_shot_coverage), each pixel summed in that order from 0.0. Any rows
  // of the band give the values of a whole-band gather.
  void gather_rows(std::size_t b, int row0, int row1, double* out) const;
  // Rows [row0, row1) of the base, gathered band by band into out.
  void gather_base_rows(int row0, int row1, double* out) const;
  // Adds active shot i's float-rounded coverage times its dose to rows
  // [row0, row1) of out (row row0 first; see slant_start_).
  void add_shot_coverage(std::size_t i, int row0, int row1, double* out) const;

  // apply_doses takes the doses of shots_[0..end) and refreshes unless
  // none changed.
  void apply_doses(const double* doses, std::size_t end);
  // The short-range operator (short_start_ and the arrays below), built
  // once from the geometry. Gives up, leaving the members as they were and
  // returning false, once the build has emitted more than limit rectangles
  // (before dropping the zero ones).
  bool build_short_operator(double limit = std::numeric_limits<double>::infinity());
  // Each active centroid's short-range sum at the applied doses.
  void refresh_short_cache() const;
  // Shared neighbor walk of the analytic path: epoch-deduped grid scan
  // around (px, py) with the cutoff bbox-distance reject, invoking
  // fn(shot_index) for every accepted shot in deterministic cell-scan
  // order. The point query, the operator build and the term split's count
  // all go through it, so their inclusion semantics cannot drift apart.
  // It scans the cells within reach of the point's cell; the default (-1)
  // is ceil(cutoff / cell) + 1, which fixes the order the operator keeps.
  // A reach of 0 visits a subset of the accepted shots.
  template <typename Fn>
  void visit_short_neighbors(double px, double py, Fn&& fn, int reach = -1) const;
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

  // Long-range state: the fine base grid (no pixels: a refresh gathers the
  // base a band at a time, see the header comment) — pixel p sums the
  // background coverage, then, in ascending shot order, each active shot's
  // float-rounded coverage fraction times its dose — and, per long-range
  // term, its read set and the blurred values of the pixels the centroid
  // sweep reads.
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
    // At k = 1 only: the band sweep's row blurs of the needed rows, at the
    // read set's columns (reads.width doubles a row); row y's is row
    // row_slot[y].
    std::vector<std::uint32_t> row_slot;
    std::vector<double> rows;
  };
  // The grid a term's blur reads: its coarse map, or the base grid at k = 1.
  const Raster& source(const TermMap& tm) const {
    return tm.coarse ? *tm.coarse : *base_grid_;
  }
  // Builds tm's read set and the active centroids' stencils on it.
  void build_read_set(TermMap& tm);
  std::unique_ptr<Raster> base_grid_;
  // All shots by band of band_rows_ rows: band b gathers shots
  // band_shot_[band_start_[b] .. band_start_[b + 1]), its ghosts first, then
  // its actives, each part in ascending index. A shot taller than a band
  // is listed in every band it touches.
  int band_rows_ = 1;
  std::vector<std::uint32_t> band_start_;
  std::vector<std::uint32_t> band_shot_;
  // Footprints of the active non-rectangle shots, clipped once at
  // construction: shot i's base pixels (row-major) and float-rounded
  // fractions are slant_[slant_start_[i] .. slant_start_[i + 1]), empty for
  // a rectangle. A rectangle re-clips in two subtractions and a multiply per
  // pixel, so every gather re-derives it; a slanted shot's convex clip plus
  // shoelace costs several times a read-back. Both empty when every active
  // shot is a rectangle. Slanted ghosts are re-clipped at every gather.
  struct Splat {
    std::uint32_t px;
    float frac;
  };
  std::vector<std::uint32_t> slant_start_;
  std::vector<Splat> slant_;
  std::vector<TermMap> term_maps_;
  BlurPerf perf_;

  // Active-centroid cache (query points of the sweep).
  std::vector<double> cx_, cy_;
  // The short-range operator: centroid i's accepted rectangles, in emission
  // order (shots in cell-scan order, then terms, then a slanted shot's
  // strips), less those with a zero erf difference (they add exactly
  // +-0.0), are entries short_start_[i] .. short_start_[i + 1]. Entry k
  // reads term_dose_[short_src_[k]] (shot s, term t at s * terms + t) and
  // the erf differences d1 = short_diff_[2k], d2 = short_diff_[2k + 1] of
  // its x and y sides, all dose-independent.
  std::vector<std::size_t> short_start_;
  std::vector<std::uint32_t> short_src_;
  std::vector<double> short_diff_;
  // The short-range sums at the applied doses, re-formed from the operator
  // on the next sweep after any refresh: term_dose_ holds each shot's
  // dose * weight * 0.25 per short term, and centroid i's sum adds
  // term_dose * d1 * d2 over its entries from 0.0. Mutable because the
  // sweep (const) owns the lazy rebuild.
  mutable std::vector<double> term_dose_;
  mutable std::vector<double> short_cache_;
  mutable bool short_cache_valid_ = false;
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

/// How the evaluator splits the terms at or above kLongRangeThreshold.
enum class TermSplit {
  cost,      ///< the cost choice (see the header comment); the default
  raster,    ///< every one on a raster
  analytic,  ///< every one but the widest summed analytically
};

/// Test hook of the evaluator's term split: every later evaluator splits
/// its terms as @p split says; TermSplit::cost restores the default. Lets
/// tests of the raster path keep a mid-range term there, and a timing
/// driver weigh both sides of the cost choice on one layout.
void force_term_split(TermSplit split);

/// Test hook of the evaluator's refresh: every later refresh, in any
/// evaluator, cuts its band sweep into @p strips parallel strips of
/// consecutive bands (clamped to [1, bands]) instead of two per thread; 0
/// restores the default. Every count gives the same bits.
void force_refresh_strips(int strips);
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
