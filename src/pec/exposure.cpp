#include "pec/exposure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/contracts.h"
#include "util/parallel.h"
#include "util/vecmath.h"

namespace ebl {

namespace {

// Re-anchor cadence of the delta path: after this many consecutive delta
// refreshes the next update re-gathers in full, bounding the accumulated
// rounding drift (each delta scatter perturbs a pixel by ~1e-16 of its
// value, so even 64 updates stay orders of magnitude below 1e-12).
constexpr int kDeltaReanchor = 64;

// Rows of the fine base map per gather band: the unit of the parallel
// long-range gather and of the shot binning that feeds it.
constexpr int kBandRows = 16;

// Epoch-stamped visited marks for duplicate rejection in neighbor queries
// (a shot's bbox spans several grid cells, so it appears in several bins).
// Thread-local so concurrent queries share nothing; bumping the epoch
// invalidates all marks in O(1), so steady-state queries never allocate.
struct VisitScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};
thread_local VisitScratch t_visit;

// Prepares the thread-local visit marks for a fresh query over @p n shots
// and returns the epoch to stamp with — the one duplicate-rejection
// preamble every grid walk shares.
std::uint32_t begin_visit_epoch(std::size_t n) {
  VisitScratch& vs = t_visit;
  if (vs.stamp.size() < n) {
    vs.stamp.assign(n, 0);
    vs.epoch = 0;
  }
  if (++vs.epoch == 0) {  // epoch wrapped: all marks are stale anyway
    std::fill(vs.stamp.begin(), vs.stamp.end(), 0);
    vs.epoch = 1;
  }
  return vs.epoch;
}

// Scratch for the batched short-range path: erf arguments for one query are
// packed contiguously (4 per rectangle integral), evaluated in one
// erf_batch call, then combined in emission order. Thread-local so the
// parallel sweep shares nothing; batch composition depends only on the
// query, so results are bit-identical for any thread count.
struct ShortScratch {
  std::vector<double> args;
  std::vector<double> erfs;
  std::vector<double> wgt;
};
thread_local ShortScratch t_short;

// Emits the rectangle integrals of one (term, shape) pair as packed erf
// arguments plus a combined weight. Mirrors term_exposure_trapezoid exactly:
// rectangles are exact, slanted sides are sliced into strips no taller than
// sigma/2 with the same strip arithmetic, so the batched sum equals the
// scalar path up to the erf implementation and summation grouping.
void emit_term_rects(const PsfTerm& term, const Trapezoid& t, double px, double py,
                     double scale, std::vector<double>& args,
                     std::vector<double>& wgt) {
  const double inv_s = 1.0 / term.sigma;
  const double w = scale * term.weight * 0.25;
  if (t.is_rect()) {
    args.push_back((t.xl0 - px) * inv_s);
    args.push_back((t.xr0 - px) * inv_s);
    args.push_back((t.y0 - py) * inv_s);
    args.push_back((t.y1 - py) * inv_s);
    wgt.push_back(w);
    return;
  }
  const double height = static_cast<double>(t.y1) - t.y0;
  const double max_slice = std::max(term.sigma * 0.5, 1.0);
  const int slices = std::max(1, static_cast<int>(std::ceil(height / max_slice)));
  const double inv_h = 1.0 / height;
  for (int i = 0; i < slices; ++i) {
    const double ya = t.y0 + height * i / slices;
    const double yb = t.y0 + height * (i + 1) / slices;
    const double ym = 0.5 * (ya + yb);
    const double fl = (ym - t.y0) * inv_h;
    const double xl = t.xl0 + (t.xl1 - t.xl0) * fl;
    const double xr = t.xr0 + (t.xr1 - t.xr0) * fl;
    if (xr <= xl) continue;
    args.push_back((xl - px) * inv_s);
    args.push_back((xr - px) * inv_s);
    args.push_back((ya - py) * inv_s);
    args.push_back((yb - py) * inv_s);
    wgt.push_back(w);
  }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

// The blur's row kernels hold the hottest loops of every PEC solve. They are
// separate functions pinned to 64-byte boundaries, so code added or removed
// elsewhere in the library cannot shift their short vector loops across
// instruction-fetch boundaries: inlined into the pass lambdas, a 16-byte
// shift of the code before them moved pec_distributed's job time by 17%.
// Out-of-range taps are skipped (no edge renormalization), matching the
// documented truncated-kernel semantics.

// out <- kernel * in, along one row of nx pixels.
[[gnu::noinline, gnu::aligned(64)]] void blur_row(const double* in, double* out, int nx,
                                                const double* taps, int radius) {
  const double k0 = taps[0];
  for (int x = 0; x < nx; ++x) out[x] = k0 * in[x];
  for (int k = 1; k <= radius; ++k) {
    const double wk = taps[k];
    for (int x = k; x < nx; ++x) out[x] += wk * in[x - k];
    const int lim = nx - k;
    for (int x = 0; x < lim; ++x) out[x] += wk * in[x + k];
  }
}

// out <- kernel * the column neighborhood of row y in rows (ny rows of nx
// pixels), streamed row by row so every inner loop walks contiguous memory.
[[gnu::noinline, gnu::aligned(64)]] void blur_column(const double* rows, double* out,
                                                   int nx, std::size_t y, std::size_t ny,
                                                   const double* taps, int radius) {
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

}  // namespace

void separable_blur(double* src, int nx, int ny, std::size_t stride,
                    const std::vector<double>& taps, int threads) {
  expects(!taps.empty(), "separable_blur: empty kernel");
  const int radius = static_cast<int>(taps.size()) - 1;

  // Scratch for the intermediate image, reused across calls (the PEC loop
  // blurs the same-sized raster every iteration). Bound through a local
  // reference: the pass lambdas must all use the *caller's* instance, and a
  // thread_local name inside a lambda would resolve per executing thread.
  static thread_local std::vector<double> tmp_storage;
  std::vector<double>& tmp = tmp_storage;
  // Size-only resize: the horizontal pass overwrites every element before
  // anything reads it, so no zero-fill is needed.
  tmp.resize(static_cast<std::size_t>(nx) * ny);

  // Each pass parallelizes over output rows; a row is produced by one chunk
  // in a fixed sequential tap order, so the result is bit-identical for any
  // thread count.
  parallel_for(
      static_cast<std::size_t>(ny),
      [&](std::size_t y0, std::size_t y1) {
        for (std::size_t y = y0; y < y1; ++y)
          blur_row(&src[y * stride], &tmp[y * nx], nx, taps.data(), radius);
      },
      threads);
  parallel_for(
      static_cast<std::size_t>(ny),
      [&](std::size_t y0, std::size_t y1) {
        for (std::size_t y = y0; y < y1; ++y)
          blur_column(tmp.data(), &src[y * stride], nx, y, static_cast<std::size_t>(ny),
                      taps.data(), radius);
      },
      threads);
}

std::vector<double> gaussian_kernel_taps(double sigma_px) {
  expects(sigma_px > 0, "gaussian_kernel_taps: sigma must be positive");
  const int radius = std::max(1, static_cast<int>(std::ceil(4.0 * sigma_px)));
  std::vector<double> taps(static_cast<std::size_t>(radius) + 1);
  double norm = 0.0;
  for (int i = 0; i <= radius; ++i) {
    // Gaussian with variance sigma^2/2 per axis: exp(-x^2/sigma^2) matches
    // the PSF convention exp(-r^2/sigma^2).
    taps[static_cast<std::size_t>(i)] = std::exp(-(double(i) * i) / (sigma_px * sigma_px));
    norm += (i == 0 ? 1.0 : 2.0) * taps[static_cast<std::size_t>(i)];
  }
  for (double& t : taps) t /= norm;
  return taps;
}

void separable_blur(Raster& raster, const std::vector<double>& taps, int threads) {
  separable_blur(raster.data().data(), raster.width(), raster.height(),
                 static_cast<std::size_t>(raster.width()), taps, threads);
}

void gaussian_blur(Raster& raster, double sigma_dbu, int threads) {
  expects(sigma_dbu > 0, "gaussian_blur: sigma must be positive");
  separable_blur(raster, gaussian_kernel_taps(sigma_dbu / raster.pixel_size()),
                 threads);
}

void box_average(const double* fine, int nx, int ny, int k, int cx0, int cy0,
                 int cw, int ch, double* dst, int threads) {
  expects(k >= 1, "box_average: factor must be positive");
  if (k == 1 && cx0 >= 0 && cy0 >= 0 && cx0 + cw <= nx && cy0 + ch <= ny) {
    for (int y = 0; y < ch; ++y)
      std::copy_n(fine + static_cast<std::size_t>(cy0 + y) * nx + cx0, cw,
                  dst + static_cast<std::size_t>(y) * cw);
    return;
  }
  const double inv = 1.0 / (static_cast<double>(k) * k);
  // Coarse pixels left of the fine raster have no fine pixels; starting the
  // column loop past them keeps a clamp out of its inner loop.
  const int x_first = std::max(0, -cx0);
  parallel_for(
      static_cast<std::size_t>(ch),
      [&](std::size_t y0, std::size_t y1) {
        for (std::size_t y = y0; y < y1; ++y) {
          double* out = dst + y * static_cast<std::size_t>(cw);
          std::fill_n(out, cw, 0.0);
          const int fy0 = (cy0 + static_cast<int>(y)) * k;
          const int fy1 = std::min(ny, fy0 + k);
          for (int fy = std::max(0, fy0); fy < fy1; ++fy) {
            const double* row = fine + static_cast<std::size_t>(fy) * nx;
            for (int x = x_first; x < cw; ++x) {
              const int fx0 = (cx0 + x) * k;
              const int fx1 = std::min(nx, fx0 + k);
              double acc = out[x];
              for (int fx = fx0; fx < fx1; ++fx) acc += row[fx];
              out[x] = acc;
            }
          }
          for (int x = 0; x < cw; ++x) out[x] *= inv;
        }
      },
      threads);
}

int term_k(double sigma, Coord pixel) {
  return std::max(1, static_cast<int>(sigma / kPixelsPerSigma /
                                      static_cast<double>(pixel)));
}

ExposureEvaluator::ExposureEvaluator(ShotList shots, const Psf& psf,
                                     ExposureOptions options)
    : ExposureEvaluator(std::move(shots), 0, psf, options) {}

ExposureEvaluator::ExposureEvaluator(ShotList shots, std::size_t active_count,
                                     const Psf& psf, ExposureOptions options)
    : shots_(std::move(shots)), opt_(options) {
  expects(!shots_.empty(), "ExposureEvaluator: empty shot list");
  expects(active_count <= shots_.size(),
          "ExposureEvaluator: active count exceeds shot count");
  active_ = active_count == 0 ? shots_.size() : active_count;
  for (const PsfTerm& t : psf.terms()) {
    (t.sigma >= kLongRangeThreshold ? long_terms_ : short_terms_).push_back(t);
  }

  // All-long PSFs (pure raster evaluation) need no neighbor structure at
  // all: skip grid construction entirely.
  if (!short_terms_.empty()) build_grid();
  build_long_range();

  // Active-centroid cache: the sweep and the delta scatter both query these
  // points every iteration.
  cx_.resize(active_);
  cy_.resize(active_);
  parallel_for(
      active_,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const auto [x, y] = centroid(i);
          cx_[i] = x;
          cy_[i] = y;
        }
      },
      opt_.threads);
}

void ExposureEvaluator::build_grid() {
  double max_short = 0.0;
  for (const PsfTerm& t : short_terms_) max_short = std::max(max_short, t.sigma);
  cutoff_ = opt_.cutoff_sigmas * max_short;

  Box frame;
  double avg_w = 0.0, avg_h = 0.0;
  for (const Shot& s : shots_) {
    const Box bb = s.shape.bbox();
    frame += bb;
    avg_w += static_cast<double>(bb.width());
    avg_h += static_cast<double>(bb.height());
  }
  avg_w /= static_cast<double>(shots_.size());
  avg_h /= static_cast<double>(shots_.size());
  grid_origin_ = frame.lo;

  // Cell sized to the larger of the query reach and the typical shot, so a
  // shot lands in O(1) cells and a query scans O(1) cells; then coarsened
  // until the bin count is at most ~2 per shot (sparse giant extents).
  double cell = std::max({cutoff_, avg_w, avg_h, 64.0});
  const double max_extent =
      std::max<double>({static_cast<double>(frame.width()),
                        static_cast<double>(frame.height()), 1.0});
  for (;;) {
    const double bins = (static_cast<double>(frame.width()) / cell + 1) *
                        (static_cast<double>(frame.height()) / cell + 1);
    if (bins <= 2.0 * static_cast<double>(shots_.size()) + 64.0 || cell >= max_extent)
      break;
    cell *= 2.0;
  }
  cell_ = static_cast<Coord>(std::min(cell, 2.0e9));

  gx_ = static_cast<int>(frame.width() / cell_) + 1;
  gy_ = static_cast<int>(frame.height() / cell_) + 1;
  const std::size_t ncells = static_cast<std::size_t>(gx_) * gy_;

  // CSR build: count cell occupancies, prefix-sum, then fill. Shots are
  // visited in index order, so every bin lists its shots ascending — queries
  // therefore sum candidates in a fixed order for any thread count.
  grid_start_.assign(ncells + 1, 0);
  auto cell_range = [&](const Box& bb, int& x0, int& x1, int& y0, int& y1) {
    x0 = static_cast<int>((Coord64(bb.lo.x) - grid_origin_.x) / cell_);
    x1 = static_cast<int>((Coord64(bb.hi.x) - grid_origin_.x) / cell_);
    y0 = static_cast<int>((Coord64(bb.lo.y) - grid_origin_.y) / cell_);
    y1 = static_cast<int>((Coord64(bb.hi.y) - grid_origin_.y) / cell_);
  };
  for (const Shot& s : shots_) {
    int x0, x1, y0, y1;
    cell_range(s.shape.bbox(), x0, x1, y0, y1);
    for (int y = y0; y <= y1; ++y)
      for (int x = x0; x <= x1; ++x)
        ++grid_start_[static_cast<std::size_t>(y) * gx_ + x + 1];
  }
  for (std::size_t c = 1; c <= ncells; ++c) grid_start_[c] += grid_start_[c - 1];
  grid_items_.resize(grid_start_[ncells]);
  std::vector<std::uint32_t> cursor(grid_start_.begin(), grid_start_.end() - 1);
  for (std::uint32_t i = 0; i < shots_.size(); ++i) {
    int x0, x1, y0, y1;
    cell_range(shots_[i].shape.bbox(), x0, x1, y0, y1);
    for (int y = y0; y <= y1; ++y)
      for (int x = x0; x <= x1; ++x)
        grid_items_[cursor[static_cast<std::size_t>(y) * gx_ + x]++] = i;
  }
}

void ExposureEvaluator::build_long_range() {
  term_maps_.clear();
  long_base_.reset();
  ghost_base_.reset();
  if (long_terms_.empty()) return;

  Box frame;
  for (const Shot& s : shots_) frame += s.shape.bbox();

  // The fine base raster: pixel p resolves the finest long-range term. Term
  // t's map takes pixel k_t * p, the largest multiple of p within its own
  // sigma_t / kPixelsPerSigma, so every kernel spans ~4 * kPixelsPerSigma
  // of its own pixels.
  double sigma_min = long_terms_.front().sigma;
  double sigma_max = sigma_min;
  for (const PsfTerm& t : long_terms_) {
    sigma_min = std::min(sigma_min, t.sigma);
    sigma_max = std::max(sigma_max, t.sigma);
  }
  const Coord pixel =
      std::max<Coord>(1, static_cast<Coord>(sigma_min / kPixelsPerSigma));
  int k_max = 1;
  for (const PsfTerm& t : long_terms_)
    k_max = std::max(k_max, term_k(t.sigma, pixel));
  // Margin per map_margin_sigmas, but never below 2 pixels of the coarsest
  // map: edge centroids need one in-grid bilinear neighbor there, and the
  // blur needs no margin at all (zero padding is exact when every source
  // lies on the map).
  const Coord margin = std::max<Coord>(
      2 * k_max * pixel,
      static_cast<Coord>(std::ceil(opt_.map_margin_sigmas * sigma_max)));
  long_base_ = std::make_unique<Raster>(frame.bloated(margin), pixel);

  const Point lo = long_base_->origin();
  for (const PsfTerm& term : long_terms_) {
    // Same origin as the base, ceil(nx / k) x ceil(ny / k) pixels. Clamping
    // the far corner to the coordinate range keeps that count: the base
    // itself ends within the range.
    const int k = term_k(term.sigma, pixel);
    const Coord tp = k * pixel;
    const auto far = [&](Coord origin, int n) {
      return static_cast<Coord>(std::min<Coord64>(
          Coord64(origin) + Coord64((n + k - 1) / k) * tp,
          std::numeric_limits<Coord>::max()));
    };
    const Box extent{lo.x, lo.y, far(lo.x, long_base_->width()),
                     far(lo.y, long_base_->height())};
    TermMap tm{term, k, gaussian_kernel_taps(term.sigma / static_cast<double>(tp)),
               std::make_unique<Raster>(extent, tp)};
    term_maps_.push_back(std::move(tm));
  }

  // Bin the active shots by band of the base map: count, exclusive scan,
  // fill (the build_grid idiom). Shots are visited in index order, so every
  // band lists its shots ascending. Background shots are not binned: their
  // doses are frozen, so their coverage is rasterized once into ghost_base_
  // and the per-refresh gather stays O(active).
  const Raster& r = *long_base_;
  const std::size_t nbands = static_cast<std::size_t>(r.height() - 1) / kBandRows + 1;
  const auto bands_of = [&](std::size_t i) {
    const Box bb = shots_[i].shape.bbox();
    return std::pair{r.index_of(bb.lo).second / kBandRows,
                     r.index_of(bb.hi).second / kBandRows};
  };
  band_start_.assign(nbands + 1, 0);
  for (std::size_t i = 0; i < active_; ++i) {
    const auto [b0, b1] = bands_of(i);
    for (int b = b0; b <= b1; ++b) ++band_start_[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t b = 1; b <= nbands; ++b) band_start_[b] += band_start_[b - 1];
  band_shot_.resize(band_start_[nbands]);
  std::vector<std::uint32_t> cursor(band_start_.begin(), band_start_.end() - 1);
  for (std::size_t i = 0; i < active_; ++i) {
    const auto [b0, b1] = bands_of(i);
    for (int b = b0; b <= b1; ++b)
      band_shot_[cursor[static_cast<std::size_t>(b)]++] = static_cast<std::uint32_t>(i);
  }

  // Clip the slanted active shots once (see slant_start_). Fixed chunks of
  // shots clip in parallel into their own buffers, concatenated in shot
  // order, so the footprints are the same for any thread count.
  slant_start_.clear();
  slant_.clear();
  if (std::any_of(shots_.begin(), shots_.begin() + static_cast<std::ptrdiff_t>(active_),
                  [](const Shot& s) { return !s.shape.is_rect(); })) {
    constexpr std::size_t kChunk = 256;
    const std::size_t nx = static_cast<std::size_t>(r.width());
    std::vector<std::vector<Splat>> parts((active_ + kChunk - 1) / kChunk);
    slant_start_.assign(active_ + 1, 0);
    parallel_for(
        parts.size(),
        [&](std::size_t c0, std::size_t c1) {
          for (std::size_t c = c0; c < c1; ++c) {
            for (std::size_t i = c * kChunk; i < std::min(active_, (c + 1) * kChunk); ++i) {
              if (shots_[i].shape.is_rect()) continue;
              r.visit_coverage(shots_[i].shape, 0, r.height(), [&](int ix, int iy, double frac) {
                parts[c].push_back({static_cast<std::uint32_t>(static_cast<std::size_t>(iy) * nx +
                                                               static_cast<std::size_t>(ix)),
                                    static_cast<float>(frac)});
                ++slant_start_[i + 1];
              });
            }
          }
        },
        opt_.threads);
    for (std::size_t i = 1; i <= active_; ++i) slant_start_[i] += slant_start_[i - 1];
    slant_.reserve(slant_start_[active_]);
    for (const std::vector<Splat>& p : parts) slant_.insert(slant_.end(), p.begin(), p.end());
  }
  if (active_ < shots_.size()) rebuild_ghost_base();
  accumulate_long_range();
}

void ExposureEvaluator::add_shot_coverage(std::size_t i, int row0, int row1, double weight) {
  // Each pixel's fraction is rounded to float first, in the full gather and
  // the delta scatter alike, so both add the same terms.
  Raster& base = *long_base_;
  double* data = base.data().data();
  const std::size_t nx = static_cast<std::size_t>(base.width());
  const Trapezoid& t = shots_[i].shape;
  if (t.is_rect()) {
    base.visit_coverage(t, row0, row1, [&](int ix, int iy, double frac) {
      data[static_cast<std::size_t>(iy) * nx + static_cast<std::size_t>(ix)] +=
          static_cast<double>(static_cast<float>(frac)) * weight;
    });
    return;
  }
  // A cached footprint is row-major, so rows [row0, row1) are one run; most
  // footprints lie inside one band and skip the searches.
  const auto before = [](const Splat& s, std::size_t p) { return s.px < p; };
  const Splat* b = slant_.data() + slant_start_[i];
  const Splat* e = slant_.data() + slant_start_[i + 1];
  if (b == e) return;
  const std::size_t lo = static_cast<std::size_t>(row0) * nx;
  const std::size_t hi = static_cast<std::size_t>(row1) * nx;
  if (b->px < lo) b = std::lower_bound(b, e, lo, before);
  if (e[-1].px >= hi) e = std::lower_bound(b, e, hi, before);
  for (; b != e; ++b) data[b->px] += static_cast<double>(b->frac) * weight;
}

void ExposureEvaluator::rebuild_ghost_base() {
  // Same frame and pixel as the base map (copy, then overwrite the data).
  if (!ghost_base_) ghost_base_ = std::make_unique<Raster>(*long_base_);
  std::vector<double>& bg = ghost_base_->data();
  std::fill(bg.begin(), bg.end(), 0.0);
  for (std::size_t i = active_; i < shots_.size(); ++i)
    ghost_base_->add_coverage(shots_[i].shape, shots_[i].dose);
}

void ExposureEvaluator::accumulate_long_range() {
  if (!long_base_) return;
  const auto t0 = std::chrono::steady_clock::now();

  // Band-parallel: a band starts from the frozen background coverage and
  // adds each of its shots in ascending index, clipped to the band's rows.
  // Bands are disjoint outputs and every pixel sums the same terms in the
  // same order, so the map is identical for any thread count.
  Raster& base = *long_base_;
  const int ny = base.height();
  const std::size_t nx = static_cast<std::size_t>(base.width());
  double* data = base.data().data();
  const double* bg = ghost_base_ ? ghost_base_->data().data() : nullptr;
  parallel_for(
      band_start_.size() - 1,
      [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          const int row0 = static_cast<int>(b) * kBandRows;
          const int row1 = std::min(ny, row0 + kBandRows);
          const std::size_t p0 = static_cast<std::size_t>(row0) * nx;
          const std::size_t p1 = static_cast<std::size_t>(row1) * nx;
          if (bg) {
            std::copy(bg + p0, bg + p1, data + p0);
          } else {
            std::fill(data + p0, data + p1, 0.0);
          }
          for (std::uint32_t k = band_start_[b]; k < band_start_[b + 1]; ++k)
            add_shot_coverage(band_shot_[k], row0, row1, shots_[band_shot_[k]].dose);
        }
      },
      opt_.threads);
  perf_.accumulate_ms += ms_since(t0);
  blur_long_range();
  ++perf_.refreshes;
}

void ExposureEvaluator::blur_long_range() {
  if (!long_base_) return;
  const auto t0 = std::chrono::steady_clock::now();
  for (TermMap& tm : term_maps_) {
    Raster& m = *tm.map;
    box_average(long_base_->data().data(), long_base_->width(), long_base_->height(),
                tm.k, 0, 0, m.width(), m.height(), m.data().data(), opt_.threads);
    separable_blur(m, tm.taps, opt_.threads);
  }
  perf_.blur_ms += ms_since(t0);
}

void ExposureEvaluator::apply_full(const double* doses, std::size_t end) {
  // The exact path: apply every requested dose (deferred remainders
  // included) and re-derive all cached state from scratch — bit-identical to
  // a fresh evaluator at these doses, and to the pre-delta engine.
  for (std::size_t i = 0; i < end; ++i) shots_[i].dose = doses[i];
  if (ghost_base_ && end > active_) rebuild_ghost_base();
  accumulate_long_range();
  short_cache_valid_ = false;
  delta_streak_ = 0;
}

void ExposureEvaluator::apply_delta(const double* doses) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool shorts = short_cache_valid_ && !short_terms_.empty();
  for (const std::uint32_t j : moved_scratch_) {
    const double delta = doses[j] - shots_[j].dose;
    shots_[j].dose = doses[j];
    // The moved shot's coverage weighted by the dose delta, straight into
    // the fine base map.
    if (long_base_) add_shot_coverage(j, 0, long_base_->height(), delta);
    if (shorts) scatter_short_delta(j, delta);
  }
  perf_.delta_accumulate_ms += ms_since(t0);
  perf_.shots_updated += static_cast<long long>(moved_scratch_.size());
  ++perf_.delta_refreshes;
  ++delta_streak_;
  blur_long_range();
}

void ExposureEvaluator::update_doses(const double* doses) {
  // Moved set: shots whose requested dose drifted beyond the threshold from
  // the applied one. Sub-threshold requests are deferred (the applied dose
  // keeps its value), so a slowly creeping dose is applied once its
  // accumulated drift crosses the threshold — the evaluator never deviates
  // from the requests by more than kDeltaThreshold relative.
  moved_scratch_.clear();
  for (std::size_t i = 0; i < active_; ++i) {
    const double d_new = doses[i];
    const double d_old = shots_[i].dose;
    if (d_new == d_old) continue;
    if (std::abs(d_new - d_old) > kDeltaThreshold * std::max(std::abs(d_old), 1e-12))
      moved_scratch_.push_back(static_cast<std::uint32_t>(i));
  }
  if (moved_scratch_.empty()) {
    // Nothing moved beyond the threshold: maps and caches are already
    // current to within the documented bound — not even the blur reruns.
    ++perf_.skipped_refreshes;
    return;
  }
  // The delta path wins while the movers are a minority; past half the range
  // (or the re-anchor cadence) the full gather is both cheaper and exact.
  if (moved_scratch_.size() * 2 <= active_ && delta_streak_ < kDeltaReanchor) {
    apply_delta(doses);
  } else {
    apply_full(doses, active_);
  }
}

void ExposureEvaluator::set_active_doses(const std::vector<double>& doses) {
  expects(doses.size() == active_, "set_active_doses: size mismatch");
  update_doses(doses.data());
}

void ExposureEvaluator::reset_doses(const std::vector<double>& doses) {
  expects(doses.size() == shots_.size(), "reset_doses: size mismatch");
  // Exact by design (see the header). Doses are compared by exact
  // inequality, not kDeltaThreshold — deferring a changed dose would break
  // the bitwise equivalence the sharded corrector builds on. The state is
  // already fresh only when no dose changed and no delta scatter has run
  // since the last full gather; anything else rebuilds in full.
  if (delta_streak_ == 0 &&
      std::equal(doses.begin(), doses.end(), shots_.begin(),
                 [](double d, const Shot& s) { return d == s.dose; })) {
    ++perf_.skipped_refreshes;
    return;
  }
  apply_full(doses.data(), shots_.size());
}

std::pair<double, double> ExposureEvaluator::centroid(std::size_t i) const {
  expects(i < shots_.size(), "centroid: index out of range");
  const Trapezoid& t = shots_[i].shape;
  // Trapezoid centroid: weighted average of the two horizontal sides.
  const double w0 = static_cast<double>(t.xr0) - t.xl0;
  const double w1 = static_cast<double>(t.xr1) - t.xl1;
  const double m0 = 0.5 * (static_cast<double>(t.xr0) + t.xl0);
  const double m1 = 0.5 * (static_cast<double>(t.xr1) + t.xl1);
  const double denom = w0 + w1;
  if (denom <= 0) return {m0, 0.5 * (double(t.y0) + t.y1)};
  const double cx = (m0 * (2 * w0 + w1) + m1 * (w0 + 2 * w1)) / (3.0 * denom);
  const double cy =
      t.y0 + (static_cast<double>(t.y1) - t.y0) * (w0 + 2 * w1) / (3.0 * denom);
  return {cx, cy};
}

template <typename Fn>
void ExposureEvaluator::visit_short_neighbors(double px, double py, Fn&& fn) const {
  const std::uint32_t epoch = begin_visit_epoch(shots_.size());
  VisitScratch& vs = t_visit;
  const int reach = static_cast<int>(std::ceil(cutoff_ / cell_)) + 1;
  // The query's cell, clamped in double before the cast so a point however
  // far from the pattern (or NaN) stays defined: one cell past the reach
  // beyond either grid edge already visits no cell.
  const auto cell_of = [&](double v, Coord origin, int n) {
    const double c = std::floor((v - origin) / static_cast<double>(cell_));
    return static_cast<int>(std::fmin(std::fmax(c, -1.0 - reach), double(n + reach)));
  };
  const int cx = cell_of(px, grid_origin_.x, gx_);
  const int cy = cell_of(py, grid_origin_.y, gy_);
  const double cut2 = cutoff_ * cutoff_;
  for (int y = std::max(0, cy - reach); y <= std::min(gy_ - 1, cy + reach); ++y) {
    for (int x = std::max(0, cx - reach); x <= std::min(gx_ - 1, cx + reach); ++x) {
      const std::size_t c = static_cast<std::size_t>(y) * gx_ + x;
      for (std::uint32_t k = grid_start_[c]; k < grid_start_[c + 1]; ++k) {
        const std::uint32_t idx = grid_items_[k];
        if (vs.stamp[idx] == epoch) continue;  // already seen via another cell
        vs.stamp[idx] = epoch;
        const Box bb = shots_[idx].shape.bbox();
        // Cheap reject by bbox distance vs cutoff.
        const double dx = std::max({double(bb.lo.x) - px, px - double(bb.hi.x), 0.0});
        const double dy = std::max({double(bb.lo.y) - py, py - double(bb.hi.y), 0.0});
        if (dx * dx + dy * dy > cut2) continue;
        fn(idx);
      }
    }
  }
}

double ExposureEvaluator::exposure_at(double px, double py) const {
  double e = 0.0;

  if (!short_terms_.empty()) {
    visit_short_neighbors(px, py, [&](std::uint32_t idx) {
      const Shot& s = shots_[idx];
      for (const PsfTerm& term : short_terms_) {
        e += s.dose * term_exposure_trapezoid(term, s.shape, px, py);
      }
    });
  }

  for (const TermMap& tm : term_maps_) {
    // Raster value is mean dose-weighted coverage per pixel; after the
    // normalized blur it is the long-range exposure directly (term weight
    // folded here).
    e += tm.term.weight * tm.map->sample(px, py);
  }
  return e;
}

void ExposureEvaluator::eval_erf(const double* x, double* y, std::size_t n) const {
  if (opt_.fast_erf) {
    erf_batch(x, y, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::erf(x[i]);
  }
}

double ExposureEvaluator::short_exposure_batched(double px, double py) const {
  // The exposure_at neighbor walk, but the erf evaluations of the whole
  // query are packed into one batch. Shots are accepted in cell-scan order
  // and combined in emission order, so the sum is a deterministic function
  // of the query alone.
  ShortScratch& sc = t_short;
  sc.args.clear();
  sc.wgt.clear();

  visit_short_neighbors(px, py, [&](std::uint32_t idx) {
    const Shot& s = shots_[idx];
    for (const PsfTerm& term : short_terms_) {
      emit_term_rects(term, s.shape, px, py, s.dose, sc.args, sc.wgt);
    }
  });

  sc.erfs.resize(sc.args.size());
  eval_erf(sc.args.data(), sc.erfs.data(), sc.args.size());
  double e = 0.0;
  for (std::size_t r = 0; r < sc.wgt.size(); ++r) {
    e += sc.wgt[r] * (sc.erfs[4 * r + 1] - sc.erfs[4 * r]) *
         (sc.erfs[4 * r + 3] - sc.erfs[4 * r + 2]);
  }
  return e;
}

double ExposureEvaluator::short_kernel_batched(const Trapezoid& shape, double px,
                                               double py) const {
  // Unit-dose short-range kernel of one shape at one point — the delta
  // increment the scatter multiplies by the dose change. Shares the batched
  // rectangle pipeline with the sweep.
  ShortScratch& sc = t_short;
  sc.args.clear();
  sc.wgt.clear();
  for (const PsfTerm& term : short_terms_) {
    emit_term_rects(term, shape, px, py, 1.0, sc.args, sc.wgt);
  }
  sc.erfs.resize(sc.args.size());
  eval_erf(sc.args.data(), sc.erfs.data(), sc.args.size());
  double e = 0.0;
  for (std::size_t r = 0; r < sc.wgt.size(); ++r) {
    e += sc.wgt[r] * (sc.erfs[4 * r + 1] - sc.erfs[4 * r]) *
         (sc.erfs[4 * r + 3] - sc.erfs[4 * r + 2]);
  }
  return e;
}

void ExposureEvaluator::scatter_short_delta(std::uint32_t shot, double delta) {
  // Update the cached short-range sums of every active centroid within the
  // cutoff of the moved shot. The inclusion test (centroid-to-bbox distance
  // against the cutoff) is exactly the sweep's, so the cache stays a
  // faithful incremental image of the full recomputation.
  const Box bb = shots_[shot].shape.bbox();
  const std::uint32_t epoch = begin_visit_epoch(shots_.size());
  VisitScratch& vs = t_visit;
  const double cut2 = cutoff_ * cutoff_;
  const int x0 = std::max(
      0, static_cast<int>(std::floor((bb.lo.x - cutoff_ - grid_origin_.x) / cell_)));
  const int x1 = std::min(
      gx_ - 1,
      static_cast<int>(std::floor((bb.hi.x + cutoff_ - grid_origin_.x) / cell_)));
  const int y0 = std::max(
      0, static_cast<int>(std::floor((bb.lo.y - cutoff_ - grid_origin_.y) / cell_)));
  const int y1 = std::min(
      gy_ - 1,
      static_cast<int>(std::floor((bb.hi.y + cutoff_ - grid_origin_.y) / cell_)));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const std::size_t c = static_cast<std::size_t>(y) * gx_ + x;
      for (std::uint32_t k = grid_start_[c]; k < grid_start_[c + 1]; ++k) {
        const std::uint32_t idx = grid_items_[k];
        if (vs.stamp[idx] == epoch) continue;
        vs.stamp[idx] = epoch;
        if (idx >= active_) continue;  // only active centroids are cached
        const double px = cx_[idx];
        const double py = cy_[idx];
        const double dx = std::max({double(bb.lo.x) - px, px - double(bb.hi.x), 0.0});
        const double dy = std::max({double(bb.lo.y) - py, py - double(bb.hi.y), 0.0});
        if (dx * dx + dy * dy > cut2) continue;
        short_cache_[idx] += delta * short_kernel_batched(shots_[shot].shape, px, py);
      }
    }
  }
}

void ExposureEvaluator::refresh_short_cache() const {
  short_cache_.resize(active_);
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          short_cache_[i] = short_exposure_batched(cx_[i], cy_[i]);
      },
      opt_.threads);
  short_cache_valid_ = true;
}

std::vector<double> ExposureEvaluator::exposures_at_centroids() const {
  std::vector<double> out(active_);
  const bool shorts = !short_terms_.empty();
  if (shorts && !short_cache_valid_) refresh_short_cache();
  parallel_for(
      active_,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          double e = shorts ? short_cache_[i] : 0.0;
          for (const TermMap& tm : term_maps_) {
            e += tm.term.weight * tm.map->sample(cx_[i], cy_[i]);
          }
          out[i] = e;
        }
      },
      opt_.threads);
  return out;
}

}  // namespace ebl
