// Long-range blur tests: the fused blur against an in-test copy of the
// two-pass blur it replaced, bit for bit; the PEC evaluator's per-term maps
// (each long-range term box-averaged onto its own raster and blurred by the
// separable passes, only at the pixels the centroid sweep reads) against an
// in-test dense reference, bit for bit; and edge cases of that direct blur. The simulator's
// use of the same per-term maps is checked against a full-resolution
// reference in sim_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "fracture/fracture.h"
#include "pec/exposure.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace ebl {
namespace {

// Keeps every term at or above kLongRangeThreshold on its raster while in
// scope (see detail::force_term_split), so a raster-path test keeps a
// mid-range term there.
struct RasterTerms {
  RasterTerms() { detail::force_term_split(detail::TermSplit::raster); }
  ~RasterTerms() { detail::force_term_split(detail::TermSplit::cost); }
  RasterTerms(const RasterTerms&) = delete;
  RasterTerms& operator=(const RasterTerms&) = delete;
};

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
  const RasterTerms raster_terms;
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

TEST(ExposureEvaluator, TermTooWideForAnIntegerFactorIsADataError) {
  // beta = 1e13 on a 150-dbu base pixel would need k of about 1.7e10.
  ShotList shots{{Trapezoid::rect(Box{0, 0, 1000, 1000}), 1.0}};
  const Psf psf = Psf::triple_gaussian(50, 1e13, 600, 0.5, 0.3);
  EXPECT_THROW(ExposureEvaluator(shots, psf), DataError);
}

// Pads taller than many gather bands, a field of small squares at a pitch
// off the pixel grid, slanted shots (a trapezoid, a triangle and a
// parallelogram) and squares on the pattern's edges; then *na = the active
// count, and three ghosts (one slanted) overlapping the actives.
ShotList mixed_shots(std::size_t* na) {
  ShotList shots;
  const auto add = [&](Trapezoid t) { shots.push_back({t, 1.0}); };
  add(Trapezoid::rect(Box{0, 0, 8000, 30000}));
  add(Trapezoid::rect(Box{12000, 5037, 20011, 25000}));
  for (int j = 0; j < 9; ++j)
    for (int i = 0; i < 9; ++i)
      add(Trapezoid::rect(Box{22000 + 230 * i, 9000 + 230 * j, 22170 + 230 * i,
                              9170 + 230 * j}));
  add(Trapezoid(2300, 9100, 26000, 30000, 27500, 29000));
  add(Trapezoid(11000, 16200, 27000, 31000, 29000, 29000));
  add(Trapezoid(17000, 23000, 24000, 26000, 27100, 29100));
  add(Trapezoid::rect(Box{30000, 0, 31000, 1000}));
  add(Trapezoid::rect(Box{30000, 29000, 31000, 30000}));
  *na = shots.size();
  add(Trapezoid::rect(Box{7000, 2000, 13500, 4000}));
  add(Trapezoid(20000, 28000, 5000, 15000, 6000, 14000));
  add(Trapezoid::rect(Box{21000, 8000, 24000, 12000}));
  for (std::size_t i = 0; i < shots.size(); ++i)
    shots[i].dose = 1.0 + 0.037 * static_cast<double>(i % 7);
  return shots;
}

// An evaluator's long-range part, dense: the fine base map gathered as the
// evaluator does it (ghosts at double precision, then the
// float-rounded fraction of each active shot times its dose, ascending),
// and per long term a whole blurred map (box_average onto the term's grid
// at k > 1, then separable_blur), read by Raster::sample. Pixel, margin and
// grids follow the evaluator's rules.
class DenseLongRange {
 public:
  DenseLongRange(const ShotList& shots, const Psf& psf, double margin_sigmas) {
    for (const PsfTerm& t : psf.terms())
      if (t.sigma >= kLongRangeThreshold) terms_.push_back(t);
    double lo = terms_.front().sigma, hi = lo;
    for (const PsfTerm& t : terms_) {
      lo = std::min(lo, t.sigma);
      hi = std::max(hi, t.sigma);
    }
    pixel_ = std::max<Coord>(1, static_cast<Coord>(lo / kPixelsPerSigma));
    int k_max = 1;
    for (const PsfTerm& t : terms_) k_max = std::max(k_max, term_k(t.sigma, pixel_));
    const Coord margin = std::max<Coord>(
        2 * k_max * pixel_, static_cast<Coord>(std::ceil(margin_sigmas * hi)));
    Box frame;
    for (const Shot& s : shots) frame += s.shape.bbox();
    base_ = Raster(frame.bloated(margin), pixel_);
  }

  const Raster& base() const { return base_; }
  const std::vector<Raster>& maps() const { return maps_; }

  // A full gather at the shots' doses; the first na shots are active.
  void gather(const ShotList& shots, std::size_t na) {
    std::fill(base_.data().begin(), base_.data().end(), 0.0);
    for (std::size_t i = na; i < shots.size(); ++i)
      base_.add_coverage(shots[i].shape, shots[i].dose);
    for (std::size_t i = 0; i < na; ++i) scatter(shots[i].shape, shots[i].dose);
    blur();
  }

  // Weight times the shape's float-rounded fractions, onto the base.
  void scatter(const Trapezoid& t, double weight) {
    std::vector<double>& data = base_.data();
    base_.visit_coverage(t, 0, base_.height(), [&](int ix, int iy, double f) {
      data[static_cast<std::size_t>(iy) * base_.width() + ix] +=
          static_cast<double>(static_cast<float>(f)) * weight;
    });
  }

  void blur() {
    maps_.clear();
    const Point lo = base_.origin();
    for (const PsfTerm& t : terms_) {
      const int k = term_k(t.sigma, pixel_);
      const Coord tp = k * pixel_;
      Raster map = base_;
      if (k > 1) {
        map = Raster(Box{lo.x, lo.y, lo.x + (base_.width() + k - 1) / k * tp,
                         lo.y + (base_.height() + k - 1) / k * tp},
                     tp);
        box_average(base_.data().data(), base_.width(), base_.height(), k, 0, 0,
                    map.width(), map.height(), map.data().data());
      }
      separable_blur(map, gaussian_kernel_taps(t.sigma / static_cast<double>(tp)));
      maps_.push_back(std::move(map));
    }
  }

  // e plus every long term's weighted sample at (x, y), in PSF order: the
  // evaluator's sum on top of its short-range part.
  double add_long_range(double e, double x, double y) const {
    for (std::size_t t = 0; t < terms_.size(); ++t)
      e += terms_[t].weight * maps_[t].sample(x, y);
    return e;
  }

 private:
  std::vector<PsfTerm> terms_;
  Coord pixel_ = 1;
  Raster base_{Box{0, 0, 1, 1}, 1};
  std::vector<Raster> maps_;
};

// Points for exposure_at: pixel centres of every map (a sparse lattice),
// points in and just outside each map's outer half pixel, where the
// bilinear stencil leaves the grid, and points far off every map.
std::vector<std::pair<double, double>> probe_points(const DenseLongRange& ref) {
  std::vector<std::pair<double, double>> pts;
  std::vector<const Raster*> grids{&ref.base()};
  for (const Raster& m : ref.maps()) grids.push_back(&m);
  for (const Raster* g : grids) {
    const double p = static_cast<double>(g->pixel_size());
    const double x0 = g->origin().x, y0 = g->origin().y;
    const double x1 = x0 + g->width() * p, y1 = y0 + g->height() * p;
    for (int iy = 0; iy < g->height(); iy += std::max(1, g->height() / 5))
      for (int ix = 0; ix < g->width(); ix += std::max(1, g->width() / 7))
        pts.emplace_back(g->center(ix, iy).x, g->center(ix, iy).y);
    const double ym = 0.5 * (y0 + y1), xm = 0.5 * (x0 + x1);
    for (const double d : {0.3 * p, -0.3 * p, -0.5 * p, -0.7 * p}) {
      pts.emplace_back(x0 + d, ym);
      pts.emplace_back(x1 - d, ym);
      pts.emplace_back(xm, y0 + d);
      pts.emplace_back(xm, y1 - d);
      pts.emplace_back(x0 + d, y1 - d);
    }
  }
  for (const double far : {1e7, -3e8, 1e300})
    pts.emplace_back(far, far), pts.emplace_back(0.0, far), pts.emplace_back(far, 20000.0);
  return pts;
}

// memcmp of a sweep against a reference of the same length.
void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << ": shot " << i << " got " << got[i] << " want " << want[i];
  }
}

// Runs an evaluator over shots (the first na active) through construction,
// an update that moves a minority of the actives, one that moves them all
// and a reset that moves the ghosts, and
// after each step compares its centroid sweep and exposure_at with the
// dense reference bit for bit. The short-range part comes from a
// short-terms-only evaluator that takes the same dose updates, so the sums
// match term for term.
void expect_lazy_maps_match_dense(ShotList shots, std::size_t na, const Psf& psf,
                                  double margin, int threads) {
  SCOPED_TRACE(testing::Message() << na << " active, margin " << margin << ", " << threads
                                  << " threads");
  std::vector<PsfTerm> short_terms;
  for (const PsfTerm& t : psf.terms())
    if (t.sigma < kLongRangeThreshold) short_terms.push_back(t);
  ExposureOptions opt;
  opt.map_margin_sigmas = margin;
  opt.threads = threads;
  ExposureEvaluator eval(shots, na, psf, opt);
  std::unique_ptr<ExposureEvaluator> near;
  if (!short_terms.empty())
    near = std::make_unique<ExposureEvaluator>(shots, na, Psf::from_terms(short_terms), opt);
  DenseLongRange ref(shots, psf, margin);
  ref.gather(shots, na);

  const auto check = [&](const char* stage) {
    const std::vector<double> got = eval.exposures_at_centroids();
    std::vector<double> want =
        near ? near->exposures_at_centroids() : std::vector<double>(na, 0.0);
    for (std::size_t i = 0; i < na; ++i) {
      const auto [x, y] = eval.centroid(i);
      want[i] = ref.add_long_range(want[i], x, y);
    }
    expect_same_bits(got, want, stage);
    std::vector<double> at, at_want;
    std::vector<std::pair<double, double>> pts = probe_points(ref);
    for (std::size_t i = 0; i < na; i += 5) pts.push_back(eval.centroid(i));
    for (const auto& [x, y] : pts) {
      at.push_back(eval.exposure_at(x, y));
      at_want.push_back(ref.add_long_range(near ? near->exposure_at(x, y) : 0.0, x, y));
    }
    expect_same_bits(at, at_want, stage);
  };
  check("built");

  // A minority of actives moves by 30%, every slanted one among them.
  std::vector<double> doses(na);
  for (std::size_t i = 0; i < na; ++i) {
    const bool moves = i % 9 == 0 || !shots[i].shape.is_rect();
    doses[i] = shots[i].dose *= moves ? 1.3 : 1.0;
  }
  eval.set_active_doses(doses);
  if (near) near->set_active_doses(doses);
  ref.gather(shots, na);
  check("delta");

  // Every active moves: a full gather.
  for (std::size_t i = 0; i < na; ++i) doses[i] = shots[i].dose *= 0.9;
  eval.set_active_doses(doses);
  if (near) near->set_active_doses(doses);
  ref.gather(shots, na);
  check("full");

  // reset_doses moves the ghosts too.
  std::vector<double> every(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i)
    every[i] = shots[i].dose = 0.8 + 0.053 * static_cast<double>(i % 11);
  eval.reset_doses(every);
  if (near) near->reset_doses(every);
  ref.gather(shots, na);
  check("reset");
}

TEST(ExposureEvaluator, LazyTermMapsMatchTheDenseBlurBitForBit) {
  // The evaluator blurs only the pixels its centroid sweep reads, and
  // exposure_at forms its pixels on demand. Both must equal Raster::sample
  // of the dense blurred maps bit for bit, for split and all-active
  // evaluators, both margins and 1, 2 and 4 threads.
  const RasterTerms raster_terms;
  const std::vector<Psf> psfs{
      Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3),  // k = 1 and 5, short alpha
      Psf::double_gaussian(50.0, 3000.0, 0.7),               // k = 1, short alpha
      Psf::double_gaussian(600.0, 3000.0, 0.7)};             // k = 1 and 5, no short
  std::size_t split = 0;
  const ShotList all = mixed_shots(&split);
  for (std::size_t p = 0; p < psfs.size(); ++p) {
    SCOPED_TRACE(testing::Message() << "psf " << p);
    for (const std::size_t na : {split, all.size()})
      for (const double margin : {0.0, 4.0})
        for (const int threads : {1, 2, 4})
          expect_lazy_maps_match_dense(all, na, psfs[p], margin, threads);
  }

  // A small active square on the pattern's right edge, moved half a 750-dbu
  // pixel at a time: the maps' widths take every value modulo 4, so some
  // read run ends in a partial vector at a map's right edge.
  for (int shift = 0; shift < 8; ++shift) {
    SCOPED_TRACE(testing::Message() << "right-edge shift " << shift);
    ShotList shots = all;
    const Coord x = 31500 + 375 * shift;
    shots.insert(shots.begin(), {Trapezoid::rect(Box{x, 15000, x + 100, 15100}), 1.2});
    for (std::size_t p = 0; p < 2; ++p)
      expect_lazy_maps_match_dense(shots, split + 1, psfs[p], 0.0, 2);
  }
}

}  // namespace
}  // namespace ebl
