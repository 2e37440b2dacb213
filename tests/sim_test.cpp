// Tests for resist models, exposure simulation, contours and CD metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/patterns.h"
#include "pec/exposure.h"
#include "fracture/fracture.h"
#include "sim/epe.h"
#include "sim/exposure_sim.h"
#include "util/contracts.h"

namespace ebl {
namespace {

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

TEST(Resist, ThresholdStep) {
  const ThresholdResist r(0.5);
  EXPECT_DOUBLE_EQ(r.thickness(0.49), 0.0);
  EXPECT_DOUBLE_EQ(r.thickness(0.5), 1.0);
  EXPECT_DOUBLE_EQ(r.print_threshold(), 0.5);
  EXPECT_TRUE(r.prints(0.7));
  EXPECT_FALSE(r.prints(0.3));
}

TEST(Resist, ContrastCurveShape) {
  const ContrastResist r(2.0, 0.4);
  EXPECT_DOUBLE_EQ(r.thickness(0.4), 0.0);                  // onset
  EXPECT_NEAR(r.thickness(r.saturation()), 1.0, 1e-12);     // full
  EXPECT_NEAR(r.thickness(r.print_threshold()), 0.5, 1e-12);
  // Monotone increasing between onset and saturation.
  double prev = -1.0;
  for (double e = 0.3; e < 1.5; e += 0.05) {
    const double t = r.thickness(e);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Resist, ContrastInverseRoundTrips) {
  const ContrastResist r(2.0, 0.4);
  for (double t : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_NEAR(r.thickness(r.exposure_for_thickness(t)), t, 1e-12);
  }
}

TEST(Resist, HigherGammaIsSteeper) {
  const ContrastResist soft(1.0, 0.4);
  const ContrastResist hard(4.0, 0.4);
  // Dose latitude = saturation/onset shrinks with gamma.
  EXPECT_GT(soft.saturation() / soft.onset(), hard.saturation() / hard.onset());
}

TEST(SimulateExposure, LargePadCenterIsDose) {
  PolygonSet s;
  s.insert(Box{0, 0, 30000, 30000});
  const ShotList shots = fracture(s, {.max_shot_size = 5000}).shots;
  const Raster e = simulate_exposure(shots, test_psf(), {.pixel = 100});
  const auto [ix, iy] = e.index_of(Point{15000, 15000});
  EXPECT_NEAR(e.at(ix, iy), 1.0, 0.02);
  // Exactly on the pad edge half the energy arrives; sample bilinearly at
  // x = 0 (pixel centers sit at +-50 around it).
  const double edge = profile_along(e, Point{0, 15000}, Point{100, 15000}, 2)[0];
  EXPECT_NEAR(edge, 0.5, 0.03);
}

TEST(SimulateExposure, DoseScalesLinearly) {
  PolygonSet s;
  s.insert(Box{0, 0, 5000, 5000});
  ShotList shots = fracture(s).shots;
  const Raster e1 = simulate_exposure(shots, test_psf(), {.pixel = 100});
  for (Shot& sh : shots) sh.dose = 3.0;
  const Raster e3 = simulate_exposure(shots, test_psf(), {.pixel = 100});
  const auto [ix, iy] = e1.index_of(Point{2500, 2500});
  EXPECT_NEAR(e3.at(ix, iy), 3.0 * e1.at(ix, iy), 1e-9);
}

// Pad next to a five-line grating: dense, isolated and empty regions, so
// both the backscatter plateau and its tails are probed.
PolygonSet pad_and_grating_target(Point at = {0, 0}) {
  PolygonSet s;
  const auto box = [&](Coord x0, Coord x1) {
    s.insert(Box{at.x + x0, at.y, at.x + x1, at.y + 6000});
  };
  box(0, 6000);
  for (int i = 0; i < 5; ++i) box(8000 + 1000 * i, 8500 + 1000 * i);
  return s;
}

ShotList pad_and_grating(Point at = {0, 0}) {
  return fracture(pad_and_grating_target(at), {.max_shot_size = 2000}).shots;
}

// Full-resolution reference: every term blurred by the separable passes at
// the simulation pixel itself, on the frame simulate_exposure uses.
Raster direct_exposure(const ShotList& shots, const Psf& psf, Coord pixel,
                       Coord margin) {
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Box extent = frame.bloated(margin);
  Raster base(extent, pixel);
  for (const Shot& s : shots) base.add_coverage(s.shape, s.dose);
  Raster result(extent, pixel);
  for (const PsfTerm& term : psf.terms()) {
    Raster blurred = base;
    separable_blur(blurred,
                   gaussian_kernel_taps(term.sigma / static_cast<double>(pixel)));
    for (std::size_t i = 0; i < result.data().size(); ++i)
      result.data()[i] += term.weight * blurred.data()[i];
  }
  return result;
}

double max_abs_diff(const Raster& a, const Raster& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

Coord default_margin(const Psf& psf) {
  return static_cast<Coord>(std::ceil(4.0 * psf.max_sigma()));
}

TEST(SimulateExposure, CoarseTermMapsTrackTheFullResolutionBlur) {
  // Backscatter terms blur on maps k = sigma / (4 pixel) times coarser and
  // are read back bilinearly; the map error stays a few 1e-3 of the
  // unit-dose plateau.
  const ShotList shots = pad_and_grating();
  const Psf dbl = Psf::double_gaussian(50.0, 3000.0, 0.7);
  EXPECT_LE(max_abs_diff(simulate_exposure(shots, dbl, {.pixel = 50}),
                         direct_exposure(shots, dbl, 50, default_margin(dbl))),
            5e-3);
  const Psf tri = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  EXPECT_LE(max_abs_diff(simulate_exposure(shots, tri, {.pixel = 25}),
                         direct_exposure(shots, tri, 25, default_margin(tri))),
            5e-3);
}

TEST(SimulateExposure, NarrowTermsBlurDirectlyBitForBit) {
  // sigma = 2 pixels: k = 1, so the term takes the direct separable blur.
  const ShotList shots = pad_and_grating();
  const Psf psf = Psf::single_gaussian(50.0);
  const Raster e = simulate_exposure(shots, psf, {.pixel = 25});
  EXPECT_EQ(e.data(), direct_exposure(shots, psf, 25, default_margin(psf)).data());
}

TEST(SimulateExposure, CoarseMapsReachPastAOnePixelMargin) {
  // With the pattern one pixel from the frame edge, the outer pixel centres
  // must interpolate between blurred coarse values on both sides, not
  // toward an off-map zero.
  const ShotList shots = pad_and_grating();
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  const Raster e = simulate_exposure(shots, psf, {.pixel = 50, .margin = 50});
  EXPECT_LE(max_abs_diff(e, direct_exposure(shots, psf, 50, 50)), 5e-3);
}

TEST(SimulateExposure, CoarseMapsKeepTheirPadAtTheCoordinateRangeEdge) {
  // The pattern sits 500 dbu inside the far x and the low y edge of the
  // 32-bit range, so the frame's margin is clamped there; the coarse maps
  // must still cover the whole frame with their pad.
  const ShotList shots = pad_and_grating(
      {std::numeric_limits<Coord>::max() - 13000, std::numeric_limits<Coord>::min() + 500});
  const Psf psf = Psf::double_gaussian(50.0, 3000.0, 0.7);
  const Raster e = simulate_exposure(shots, psf, {.pixel = 50});
  EXPECT_LE(max_abs_diff(e, direct_exposure(shots, psf, 50, default_margin(psf))),
            5e-3);
}

TEST(SimulateExposure, IdenticalForAnyThreadCount) {
  const ShotList shots = pad_and_grating();
  const Psf psf = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  const Raster one = simulate_exposure(shots, psf, {.pixel = 25, .threads = 1});
  const Raster four = simulate_exposure(shots, psf, {.pixel = 25, .threads = 4});
  EXPECT_EQ(one.data(), four.data());
}

// The three-raster simulator the single-raster one replaced, kept as the
// bit-for-bit reference (its read-back runs serially here; each pixel sums
// in the same order): a zeroed result raster, a full-frame blur of a fresh
// copy per narrow term, and Raster::sample at every fine pixel centre per
// wide term.
Raster three_raster_exposure(const ShotList& shots, const Psf& psf,
                             const SimOptions& options) {
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Coord margin = options.margin > 0
                           ? options.margin
                           : static_cast<Coord>(std::ceil(4.0 * psf.max_sigma()));
  const Coord pixel =
      options.pixel > 0
          ? options.pixel
          : std::max<Coord>(1, static_cast<Coord>(psf.min_sigma() / 2.0));
  Raster base(frame.bloated(margin), pixel);
  for (const Shot& s : shots) base.add_coverage(s.shape, s.dose);
  Raster result(frame.bloated(margin), pixel);
  for (const PsfTerm& term : psf.terms()) {
    const int k = term_k(term.sigma, pixel);
    if (k > 1) {
      const int nx = base.width();
      const int ny = base.height();
      Raster map(Box{0, 0, (nx - 1) / k + 3, (ny - 1) / k + 3}, 1);
      box_average(base.data().data(), nx, ny, k, -1, -1, map.width(), map.height(),
                  map.data().data(), options.threads);
      const double coarse_pixel = static_cast<double>(k) * base.pixel_size();
      separable_blur(map, gaussian_kernel_taps(term.sigma / coarse_pixel),
                     options.threads);
      for (int y = 0; y < ny; ++y) {
        const double v = (static_cast<double>(y) + 0.5) / k + 1.0;
        double* row = result.data().data() + y * static_cast<std::size_t>(nx);
        for (int x = 0; x < nx; ++x) {
          row[x] += term.weight * map.sample((x + 0.5) / k + 1.0, v);
        }
      }
      continue;
    }
    Raster blurred = base;
    separable_blur(blurred,
                   gaussian_kernel_taps(term.sigma / static_cast<double>(pixel)),
                   options.threads);
    auto& out = result.data();
    const auto& in = blurred.data();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += term.weight * in[i];
  }
  return result;
}

TEST(SimulateExposure, MatchesTheThreeRasterSimulatorBitForBit) {
  // One raster, a table-driven read-back and a window-bounded forward blur
  // skip only work that cannot change a bit of the result.
  const ShotList shots = pad_and_grating();
  const ShotList at_range_edge = pad_and_grating(
      {std::numeric_limits<Coord>::max() - 13000, std::numeric_limits<Coord>::min() + 500});
  const Psf tri = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  const Psf dbl = Psf::double_gaussian(50.0, 3000.0, 0.7);
  const Psf narrow = Psf::single_gaussian(50.0);
  const Psf two_narrow = Psf::from_terms({{0.3, 50.0}, {0.3, 120.0}, {0.4, 3000.0}});
  const Psf wide_first = Psf::from_terms({{0.4, 3000.0}, {0.6, 50.0}});
  struct Case {
    const char* name;
    const ShotList& shots;
    const Psf& psf;
    SimOptions options;
  };
  const Case cases[] = {
      {"triple@25", shots, tri, {.pixel = 25}},
      {"double@50", shots, dbl, {.pixel = 50}},
      {"single narrow", shots, narrow, {.pixel = 25}},
      {"two narrow + wide", shots, two_narrow, {.pixel = 25}},
      {"wide first", shots, wide_first, {.pixel = 25}},
      {"one-pixel margin", shots, dbl, {.pixel = 50, .margin = 50}},
      {"coordinate-range edge", at_range_edge, dbl, {.pixel = 50}},
      {"threads 1", shots, tri, {.pixel = 25, .threads = 1}},
      {"threads 4", shots, tri, {.pixel = 25, .threads = 4}},
  };
  for (const Case& c : cases) {
    const Raster got = simulate_exposure(c.shots, c.psf, c.options);
    const Raster want = three_raster_exposure(c.shots, c.psf, c.options);
    ASSERT_EQ(got.width(), want.width()) << c.name;
    ASSERT_EQ(got.height(), want.height()) << c.name;
    EXPECT_EQ(got.origin(), want.origin()) << c.name;
    EXPECT_EQ(got.data(), want.data()) << c.name;
  }
}

TEST(SimulateExposure, FrameWiderThanIntMaxPixelsIsADataError) {
  // Shots at +-2^30 span 2^31 one-dbu pixels: the raster cannot index them.
  PolygonSet s;
  s.insert(Box{-(1 << 30), 0, -(1 << 30) + 100, 100});
  s.insert(Box{(1 << 30) - 100, 0, 1 << 30, 100});
  const ShotList shots = fracture(s).shots;
  EXPECT_THROW(simulate_exposure(shots, Psf::single_gaussian(50.0), {.pixel = 1}),
               DataError);
}

TEST(Develop, AppliesResistCurve) {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  const ShotList shots = fracture(s, {.max_shot_size = 5000}).shots;
  const Raster e = simulate_exposure(shots, test_psf(), {.pixel = 200});
  const Raster t = develop(e, ThresholdResist(0.5));
  const auto [ix, iy] = t.index_of(Point{10000, 10000});
  EXPECT_DOUBLE_EQ(t.at(ix, iy), 1.0);
  const auto [ox, oy] = t.index_of(Point{-10000, 10000});
  EXPECT_DOUBLE_EQ(t.at(ox, oy), 0.0);
}

TEST(ProfileAndCd, IsolatedLineWidthNearNominal) {
  // A 500 nm isolated line; threshold at half the line-center exposure gives
  // a CD close to nominal width.
  PolygonSet s;
  s.insert(Box{0, 0, 500, 20000});
  const ShotList shots = fracture(s).shots;
  const Psf psf = test_psf();
  const Raster e = simulate_exposure(shots, psf, {.pixel = 25});
  const Point a{-1500, 10000};
  const Point b{2000, 10000};
  const auto prof = profile_along(e, a, b, 401);
  const double peak = *std::max_element(prof.begin(), prof.end());
  const auto cd = measure_cd(e, peak / 2.0, a, b, 801);
  ASSERT_TRUE(cd.has_value());
  EXPECT_NEAR(*cd, 500.0, 40.0);
}

TEST(ProfileAndCd, NoFeatureNoCd) {
  PolygonSet s;
  s.insert(Box{0, 0, 500, 500});
  const Raster e = simulate_exposure(fracture(s).shots, test_psf(), {.pixel = 50});
  // Probe far away from the feature.
  EXPECT_FALSE(measure_cd(e, 0.3, Point{-12000, -12000}, Point{-9000, -12000}).has_value());
}

TEST(ProfileAndCd, CrossingOnTheLastSampleIsCounted) {
  // Nine 10-dbu pixels sampled at their centres (x = 5, 15, ..., 85), so
  // every profile value is exactly a pixel value.
  Raster r(Box{0, 0, 90, 10}, 10);
  const Point a{5, 5};
  const Point b{85, 5};
  // A ramp 0..8 whose endpoint sits exactly on the level.
  for (int i = 0; i < 9; ++i) r.at(i, 0) = i;
  EXPECT_EQ(crossings_along(r, 8.0, a, b, 9), (std::vector<double>{80.0}));
  // A line from sample 2 to the last sample, both edges exactly on the level:
  // without the last crossing the CD is not measured at all.
  const double line[9] = {0, 0, 2, 4, 4, 4, 4, 4, 2};
  for (int i = 0; i < 9; ++i) r.at(i, 0) = line[i];
  EXPECT_EQ(crossings_along(r, 2.0, a, b, 9), (std::vector<double>{20.0, 80.0}));
  const auto cd = measure_cd(r, 2.0, a, b, 9);
  ASSERT_TRUE(cd.has_value());
  EXPECT_EQ(*cd, 60.0);
}

TEST(ProfileAndCd, FarEndpointsClampToTheEdgePixel) {
  // An endpoint at the far end of the coordinate range lies more than
  // INT_MAX pixels from the grid: it reads the edge pixel like any other
  // point past the edge.
  Raster r(Box{0, 0, 100, 100}, 1);
  for (double& v : r.data()) v = 0.25;
  const auto prof =
      profile_along(r, Point{std::numeric_limits<Coord>::min(), 50},
                    Point{std::numeric_limits<Coord>::max(), 50}, 3);
  ASSERT_EQ(prof.size(), 3u);
  for (double v : prof) EXPECT_EQ(v, 0.25);
}

TEST(ProfileAndCd, HigherDoseWiderLine) {
  PolygonSet s;
  s.insert(Box{0, 0, 500, 20000});
  ShotList shots = fracture(s).shots;
  const Psf psf = test_psf();
  const Point a{-1500, 10000};
  const Point b{2000, 10000};
  const Raster e1 = simulate_exposure(shots, psf, {.pixel = 25});
  for (Shot& sh : shots) sh.dose = 1.4;
  const Raster e2 = simulate_exposure(shots, psf, {.pixel = 25});
  const double level = 0.3;  // fixed resist threshold
  const auto cd1 = measure_cd(e1, level, a, b, 801);
  const auto cd2 = measure_cd(e2, level, a, b, 801);
  ASSERT_TRUE(cd1 && cd2);
  EXPECT_GT(*cd2, *cd1);
}

TEST(Contours, SquarePatternGivesOneClosedContour) {
  PolygonSet s;
  s.insert(Box{0, 0, 4000, 4000});
  const Raster e = simulate_exposure(fracture(s).shots, test_psf(), {.pixel = 100});
  const auto contours = extract_contours(e, 0.29);  // ~print level
  ASSERT_GE(contours.size(), 1u);
  // Largest contour should be closed and roughly square-sized.
  const auto& main = *std::max_element(
      contours.begin(), contours.end(),
      [](const ContourLine& a, const ContourLine& b) { return a.size() < b.size(); });
  ASSERT_GE(main.size(), 8u);
  const double dx = main.front().first - main.back().first;
  const double dy = main.front().second - main.back().second;
  EXPECT_LT(std::hypot(dx, dy), 200.0);  // closed within a pixel or two
  // Contour bbox close to the pattern bbox.
  double min_x = 1e18, max_x = -1e18, min_y = 1e18, max_y = -1e18;
  for (const auto& [x, y] : main) {
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  EXPECT_NEAR(min_x, 0.0, 300.0);
  EXPECT_NEAR(max_x, 4000.0, 300.0);
  EXPECT_NEAR(min_y, 0.0, 300.0);
  EXPECT_NEAR(max_y, 4000.0, 300.0);
}

TEST(Contours, LevelAboveMaxGivesNothing) {
  PolygonSet s;
  s.insert(Box{0, 0, 2000, 2000});
  const Raster e = simulate_exposure(fracture(s).shots, test_psf(), {.pixel = 100});
  EXPECT_TRUE(extract_contours(e, 5.0).empty());
}

TEST(Grayscale, StaircaseDosesGiveStaircaseThickness) {
  // Grayscale: one shot per step with increasing dose; contrast resist
  // turns dose levels into thickness levels (the 8-level stair of Fig 1b
  // in grayscale-EBL papers; here the generic grayscale transfer).
  const ContrastResist resist(1.0, 0.4);
  ShotList shots;
  const int levels = 8;
  for (int i = 0; i < levels; ++i) {
    const double target_t = (i + 1.0) / levels;
    // Required exposure at the step center (forward term only matters for
    // large steps; steps are 2 µm wide >> alpha).
    const double dose = resist.exposure_for_thickness(target_t);
    shots.push_back({Trapezoid::rect(Box{Coord(i * 2000), 0, Coord((i + 1) * 2000), 20000}),
                     dose});
  }
  // Use a forward-only PSF (iso feature, no backscatter neighbors matter).
  const Psf psf = Psf::single_gaussian(50.0);
  const Raster e = simulate_exposure(shots, psf, {.pixel = 50});
  const Raster t = develop(e, resist);
  for (int i = 0; i < levels; ++i) {
    const auto [ix, iy] = t.index_of(Point{Coord(i * 2000 + 1000), 10000});
    EXPECT_NEAR(t.at(ix, iy), (i + 1.0) / levels, 0.03) << "step " << i;
  }
}

TEST(Epe, EdgesFromBoxAreMaterialLeft) {
  PolygonSet target;
  target.insert(Box{0, 0, 1000, 2000});
  const std::vector<EpeEdge> edges = epe_edges(target);
  ASSERT_EQ(edges.size(), 4u);
  const auto inside = [](double x, double y) {
    return x > 0.0 && x < 1000.0 && y > 0.0 && y < 2000.0;
  };
  for (const EpeEdge& e : edges) {
    const double dx = double(e.b.x) - e.a.x;
    const double dy = double(e.b.y) - e.a.y;
    const double len = std::hypot(dx, dy);
    ASSERT_GT(len, 0.0);
    // Outward normal is to the right of a -> b travel.
    const double nx = dy / len;
    const double ny = -dx / len;
    const double mx = 0.5 * (double(e.a.x) + e.b.x);
    const double my = 0.5 * (double(e.a.y) + e.b.y);
    EXPECT_FALSE(inside(mx + 10.0 * nx, my + 10.0 * ny)) << e.a.x << "," << e.a.y;
    EXPECT_TRUE(inside(mx - 10.0 * nx, my - 10.0 * ny)) << e.a.x << "," << e.a.y;
  }
}

TEST(Epe, AccurateWritePrintsNearZero) {
  // A unit-dose region under a forward-only PSF prints its straight edges
  // exactly at the half-interior exposure level: EPE should vanish up to
  // raster interpolation error.
  PolygonSet target;
  target.insert(Box{0, 0, 4000, 4000});
  const ShotList shots = fracture(target, {.max_shot_size = 4000}).shots;
  const Psf psf = Psf::single_gaussian(50.0);
  EpeOptions opts;
  opts.search_window = 300;
  opts.sim.pixel = 25;
  const EpeStats s = measure_epe(shots, psf, target, 0.5, opts);
  EXPECT_GT(s.samples, 20u);
  EXPECT_EQ(s.missing, 0u);
  EXPECT_LE(s.p99, 4.0);
  EXPECT_LE(std::abs(s.mean_signed), 2.0);
}

TEST(Epe, MeasuresKnownEdgeDisplacement) {
  // Probe deliberately displaced target edges against the printed box: a
  // target edge 100 dbu outside the printed one must read EPE ~ -100
  // (prints undersize relative to that target), and 100 dbu inside ~ +100.
  PolygonSet printed;
  printed.insert(Box{0, 0, 4000, 4000});
  const ShotList shots = fracture(printed, {.max_shot_size = 4000}).shots;
  const Raster e = simulate_exposure(shots, Psf::single_gaussian(50.0), {.pixel = 25});
  EpeOptions opts;
  opts.search_window = 300;

  // Right-side edge, material-left orientation (normal = +x).
  const std::vector<EpeEdge> outside{{Point{4100, 0}, Point{4100, 4000}}};
  const EpeStats u = score_epe(e, 0.5, outside, opts);
  EXPECT_EQ(u.missing, 0u);
  EXPECT_NEAR(u.mean_signed, -100.0, 4.0);

  const std::vector<EpeEdge> inset{{Point{3900, 0}, Point{3900, 4000}}};
  const EpeStats o = score_epe(e, 0.5, inset, opts);
  EXPECT_EQ(o.missing, 0u);
  EXPECT_NEAR(o.mean_signed, 100.0, 4.0);
}

TEST(Epe, MissingProbesClampToWindow) {
  // Nothing prints at 10% dose: every probe misses and scores the bounded
  // worst case (-window: the feature is absent, i.e. maximally undersize).
  PolygonSet target;
  target.insert(Box{0, 0, 4000, 4000});
  ShotList shots = fracture(target, {.max_shot_size = 4000}).shots;
  for (Shot& s : shots) s.dose = 0.1;
  EpeOptions opts;
  opts.search_window = 300;
  opts.sim.pixel = 25;
  const EpeStats s = measure_epe(shots, Psf::single_gaussian(50.0), target, 0.5, opts);
  EXPECT_GT(s.samples, 0u);
  EXPECT_EQ(s.missing, s.samples);
  EXPECT_DOUBLE_EQ(s.p50, 300.0);
  EXPECT_DOUBLE_EQ(s.max, 300.0);
  EXPECT_DOUBLE_EQ(s.mean_signed, -300.0);
}

TEST(Epe, OverdosePrintsOversize) {
  PolygonSet target;
  target.insert(Box{0, 0, 4000, 4000});
  ShotList shots = fracture(target, {.max_shot_size = 4000}).shots;
  for (Shot& s : shots) s.dose = 1.5;
  EpeOptions opts;
  opts.search_window = 300;
  opts.sim.pixel = 25;
  const EpeStats s = measure_epe(shots, Psf::single_gaussian(50.0), target, 0.5, opts);
  EXPECT_EQ(s.missing, 0u);
  EXPECT_GT(s.mean_signed, 5.0);  // every edge lands outside the target
}

TEST(Epe, HugeSearchWindowClampsItsStepCount) {
  // 4 * window / pixel passes INT_MAX; the step count clamps to 512 before
  // it is cast. Only the sample at the probe point lands on the 1.0 pad, so
  // the nearest crossings sit half a step either side and the lower wins.
  Raster e(Box{0, 0, 100, 100}, 1);
  for (double& v : e.data()) v = 1.0;
  EpeOptions opts;
  opts.search_window = std::numeric_limits<Coord>::max();
  const std::vector<EpeEdge> edge{{Point{50, 0}, Point{50, 100}}};
  const EpeStats s = score_epe(e, 0.5, edge, opts);
  const double ds = 2.0 * opts.search_window / 512;
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.missing, 0u);
  EXPECT_EQ(s.mean_signed, -0.5 * ds);
}

// The forward scan the center-out probe search replaced, verbatim: it
// samples from -window upward and stops at the first crossing within ds.
std::optional<double> forward_scan(const Raster& exposure, double level, double px,
                                   double py, double nx, double ny, double window) {
  const double pix = static_cast<double>(exposure.pixel_size());
  int steps = static_cast<int>(std::ceil(4.0 * window / pix));
  steps = std::clamp(steps, 16, 512);
  const double ds = 2.0 * window / steps;

  std::optional<double> best;
  double prev = exposure.sample(px - nx * window, py - ny * window) - level;
  for (int i = 1; i <= steps; ++i) {
    const double s = -window + ds * i;
    const double cur = exposure.sample(px + nx * s, py + ny * s) - level;
    if ((prev <= 0.0 && cur > 0.0) || (prev > 0.0 && cur <= 0.0)) {
      const double frac = prev / (prev - cur);
      const double at = s - ds + frac * ds;
      if (!best || std::abs(at) < std::abs(*best)) best = at;
      if (best && std::abs(*best) <= ds) break;
    }
    prev = cur;
  }
  return best;
}

// score_epe's probes, each scored by forward_scan: (signed EPE, missing) in
// score_epe's order.
std::vector<std::pair<double, bool>> forward_probes(const Raster& exposure,
                                                    double level,
                                                    const std::vector<EpeEdge>& edges,
                                                    const EpeOptions& options) {
  const double pix = static_cast<double>(exposure.pixel_size());
  const double step = options.sample_step > 0
                          ? static_cast<double>(options.sample_step)
                          : 2.0 * pix;
  const double excl = options.corner_exclusion > 0
                          ? static_cast<double>(options.corner_exclusion)
                          : std::max(4.0 * pix, 100.0);
  const double window = static_cast<double>(options.search_window);
  std::vector<std::pair<double, bool>> out;
  for (const EpeEdge& e : edges) {
    const double ex = static_cast<double>(e.b.x) - e.a.x;
    const double ey = static_cast<double>(e.b.y) - e.a.y;
    const double len = std::hypot(ex, ey);
    if (len <= 0.0) continue;
    const double dx = ex / len, dy = ey / len;
    std::vector<double> offsets;
    if (len <= 2.0 * excl + step) {
      offsets.push_back(0.5 * len);
    } else {
      for (double t = excl; t <= len - excl; t += step) offsets.push_back(t);
    }
    for (double t : offsets) {
      const double px = e.a.x + dx * t;
      const double py = e.a.y + dy * t;
      const auto c = forward_scan(exposure, level, px, py, dy, -dx, window);
      if (c) {
        out.emplace_back(*c, false);
      } else {
        out.emplace_back(exposure.sample(px, py) >= level ? window : -window, true);
      }
    }
  }
  return out;
}

// A seeded random raster. Quantized values (multiples of 1/4 against a
// level of 1/2) put samples exactly on the level, make plateaus at it and
// crossings exactly on the sample grid; continuous ones make crossings
// everywhere else.
Raster random_raster(std::mt19937_64& rng, Coord pixel, bool quantized) {
  Raster r(Box{-7 * pixel, 3 * pixel, 41 * pixel, 37 * pixel}, pixel);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> q(0, 4);
  for (double& v : r.data()) v = quantized ? 0.25 * q(rng) : u(rng);
  return r;
}

// Random edges around the raster, each short enough for a single midpoint
// probe under a large corner exclusion.
std::vector<EpeEdge> random_edges(std::mt19937_64& rng, const Raster& r, int n) {
  const Coord pix = r.pixel_size();
  std::uniform_int_distribution<Coord> x(r.origin().x - 4 * pix,
                                         r.origin().x + (r.width() + 4) * pix);
  std::uniform_int_distribution<Coord> y(r.origin().y - 4 * pix,
                                         r.origin().y + (r.height() + 4) * pix);
  std::uniform_int_distribution<Coord> d(-8 * pix, 8 * pix);
  std::uniform_int_distribution<int> axis(0, 2);
  std::vector<EpeEdge> edges;
  while (static_cast<int>(edges.size()) < n) {
    const Point a{x(rng), y(rng)};
    Point b{a.x + d(rng), a.y + d(rng)};
    // A third of the edges run along an axis: their probes sample pixel
    // centres and boundaries exactly.
    const int pick = axis(rng);
    if (pick == 1) b.y = a.y;
    if (pick == 2) b.x = a.x;
    if (a.x != b.x || a.y != b.y) edges.push_back({a, b});
  }
  return edges;
}

TEST(Epe, CenterOutSearchMatchesTheForwardScanProbeByProbe) {
  std::mt19937_64 rng(20261017);
  const Coord pixel = 8;
  // Windows whose step count clamps at 16, lands in between, and clamps at
  // 512 (window 256 pixels: ds is exactly one pixel).
  const Coord windows[] = {pixel, 3 * pixel, 40, 96, 256 * pixel, 300 * pixel};
  std::size_t probes = 0, missing = 0, near = 0;
  for (int round = 0; round < 4; ++round) {
    const bool quantized = round % 2 == 0;
    const Raster e = random_raster(rng, pixel, quantized);
    const double level = quantized ? 0.5 : 0.3 + 0.1 * round;
    for (const Coord window : windows) {
      EpeOptions opts;
      opts.search_window = window;
      opts.corner_exclusion = 1 << 20;
      for (const EpeEdge& edge : random_edges(rng, e, 150)) {
        const std::vector<EpeEdge> one{edge};
        const auto want = forward_probes(e, level, one, opts);
        ASSERT_EQ(want.size(), 1u);
        const EpeStats got = score_epe(e, level, one, opts);
        ASSERT_EQ(got.samples, 1u);
        EXPECT_EQ(got.mean_signed, want[0].first)
            << "round " << round << " window " << window << " edge (" << edge.a.x
            << "," << edge.a.y << ")-(" << edge.b.x << "," << edge.b.y << ")";
        EXPECT_EQ(got.missing, want[0].second ? 1u : 0u);
        ++probes;
        missing += want[0].second;
        const double steps = std::clamp(std::ceil(4.0 * window / pixel), 16.0, 512.0);
        near += !want[0].second && std::abs(want[0].first) <= 2.0 * window / steps;
      }
    }
  }
  // The mix covers missing probes, found ones, and ones found within ds.
  EXPECT_GT(missing, probes / 20);
  EXPECT_GT(probes - missing, probes / 2);
  EXPECT_GT(near, 0u);
}

TEST(Epe, CenterOutSearchMatchesTheForwardScanOnExactProfiles) {
  // One row of 4-dbu pixels probed from pixel 10's centre along +x; with
  // window 64 the samples sit every ds = 2 dbu, alternately on pixel
  // centres and pixel boundaries, so every sample and crossing is exact.
  const auto probe = [](std::vector<double> row, double level) {
    Raster e(Box{0, 0, 4 * static_cast<Coord>(row.size()), 4}, 4);
    e.data() = std::move(row);
    EpeOptions opts;
    opts.search_window = 64;
    opts.corner_exclusion = 1000;
    const std::vector<EpeEdge> edge{{Point{42, -2}, Point{42, 6}}};  // normal +x
    const auto want = forward_probes(e, level, edge, opts);
    const EpeStats got = score_epe(e, level, edge, opts);
    EXPECT_EQ(got.mean_signed, want[0].first);
    EXPECT_EQ(got.missing, want[0].second ? 1u : 0u);
    return got.mean_signed;
  };
  std::vector<double> row(24, 0.0);
  // Crossing exactly at +ds: the boundary sample at +2 reads the level.
  row[10] = 0.25;
  row[11] = 0.75;
  row[12] = 0.75;
  EXPECT_EQ(probe(row, 0.5), 2.0);
  // ... and at -ds, ahead of a nearer one at +4/3 that it must win over.
  row.assign(24, 0.0);
  row[9] = 0.75;
  row[10] = 0.25;
  row[11] = 1.0;
  EXPECT_EQ(probe(row, 0.5), -2.0);
  // Two crossings at equal distance, farther than ds: the lower one wins.
  row.assign(24, 0.0);
  row[9] = row[10] = row[11] = 1.0;
  EXPECT_EQ(probe(row, 0.25), -7.0);
  // A plateau exactly at the level around the probe point.
  row.assign(24, 0.75);
  row[8] = row[9] = row[10] = row[11] = row[12] = 0.5;
  probe(row, 0.5);
  // No crossing anywhere in the window: everything stays under the level.
  row.assign(24, 0.75);
  EXPECT_EQ(probe(row, 0.9), -64.0);
}

TEST(Epe, MultiLevelAccumulatorMatchesTheForwardScan) {
  // multipass_grayscale scores each dose level's edges at its own level
  // into one accumulator; the reduced statistics must not move a bit.
  std::mt19937_64 rng(7);
  const Raster e = random_raster(rng, 10, false);
  const double levels[] = {0.35, 0.5, 0.65};
  EpeOptions opts;
  opts.search_window = 120;
  opts.corner_exclusion = 20;
  EpeAccumulator got, want;
  for (const double level : levels) {
    const auto edges = random_edges(rng, e, 40);
    score_epe(e, level, edges, opts, got);
    for (const auto& [v, miss] : forward_probes(e, level, edges, opts)) want.add(v, miss);
  }
  const EpeStats g = got.finalize();
  const EpeStats w = want.finalize();
  EXPECT_GT(w.samples, 120u);
  EXPECT_EQ(g.samples, w.samples);
  EXPECT_EQ(g.missing, w.missing);
  EXPECT_EQ(g.p50, w.p50);
  EXPECT_EQ(g.p99, w.p99);
  EXPECT_EQ(g.max, w.max);
  EXPECT_EQ(g.mean_abs, w.mean_abs);
  EXPECT_EQ(g.mean_signed, w.mean_signed);
}

TEST(Epe, AccumulatorReducesNearestRank) {
  EpeAccumulator acc;
  acc.add(-10.0, false);
  acc.add(20.0, false);
  acc.add(-30.0, false);
  acc.add(40.0, true);
  EXPECT_EQ(acc.samples(), 4u);
  const EpeStats s = acc.finalize();
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.missing, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 20.0);  // nearest-rank over |EPE| {10,20,30,40}
  EXPECT_DOUBLE_EQ(s.p99, 40.0);
  EXPECT_DOUBLE_EQ(s.max, 40.0);
  EXPECT_DOUBLE_EQ(s.mean_abs, 25.0);
  EXPECT_DOUBLE_EQ(s.mean_signed, 5.0);
}

// memcmp, not ==: the comparison must tell 0.0 from -0.0.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ExposureField, MatchesTheRasterItRendersBitForBit) {
  // The field forms each pixel on demand from the dose window and the coarse
  // maps; every read must equal the three-raster reference's bit for bit:
  // spot samples anywhere (margin and off the frame included), the EPE
  // probes scored on threads, and the whole rendered frame.
  const Point at_range_edge{std::numeric_limits<Coord>::max() - 13000,
                            std::numeric_limits<Coord>::min() + 500};
  const Psf tri = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  const Psf dbl = Psf::double_gaussian(50.0, 3000.0, 0.7);
  const Psf narrow = Psf::single_gaussian(50.0);
  const Psf two_narrow = Psf::from_terms({{0.3, 50.0}, {0.3, 120.0}, {0.4, 3000.0}});
  const Psf wide_first = Psf::from_terms({{0.4, 3000.0}, {0.6, 50.0}});
  // With margin 3331 at pixel 25 the shots start at pixel 133 and the
  // narrow kernel (radius 8) at 125, a multiple of neither wide term's k
  // (6 for gamma, 30 for beta): the window's corner must be aligned down.
  static_assert((3331 / 25 - 8) % 6 != 0 && (3331 / 25 - 8) % 30 != 0);
  struct Case {
    const char* name;
    Point at;
    const Psf& psf;
    SimOptions options;
  };
  const Case cases[] = {
      {"triple@25", {0, 0}, tri, {.pixel = 25}},
      {"double@50", {0, 0}, dbl, {.pixel = 50}},
      {"single narrow", {0, 0}, narrow, {.pixel = 25}},
      {"two narrow + wide", {0, 0}, two_narrow, {.pixel = 25}},
      {"wide first", {0, 0}, wide_first, {.pixel = 25}},
      {"one-pixel margin", {0, 0}, dbl, {.pixel = 50, .margin = 50}},
      {"coordinate-range edge", at_range_edge, dbl, {.pixel = 50}},
      {"window off every k", {37, -11}, tri, {.pixel = 25, .margin = 3331}},
      {"threads 1", {0, 0}, tri, {.pixel = 25, .threads = 1}},
      {"threads 4", {0, 0}, tri, {.pixel = 25, .threads = 4}},
  };
  std::mt19937_64 rng(20261019);
  for (const Case& c : cases) {
    const PolygonSet target = pad_and_grating_target(c.at);
    const ShotList shots = fracture(target, {.max_shot_size = 2000}).shots;
    const Raster want = three_raster_exposure(shots, c.psf, c.options);
    const ExposureField field(shots, c.psf, c.options);
    ASSERT_EQ(field.width(), want.width()) << c.name;
    ASSERT_EQ(field.height(), want.height()) << c.name;
    ASSERT_EQ(field.origin(), want.origin()) << c.name;
    EXPECT_TRUE(same_bits(field.render().data(), want.data())) << c.name;
    EXPECT_TRUE(same_bits(simulate_exposure(shots, c.psf, c.options).data(), want.data()))
        << c.name;

    // Seeded points over the frame and three pixels past it, pixel centres
    // and corners among them, plus points far off the grid.
    const double pix = static_cast<double>(want.pixel_size());
    const double ox = want.origin().x, oy = want.origin().y;
    std::uniform_real_distribution<double> ux(ox - 3 * pix, ox + (want.width() + 3) * pix);
    std::uniform_real_distribution<double> uy(oy - 3 * pix, oy + (want.height() + 3) * pix);
    std::uniform_int_distribution<int> ix(-3, want.width() + 2);
    std::uniform_int_distribution<int> iy(-3, want.height() + 2);
    std::vector<std::pair<double, double>> points = {
        {ox, oy}, {ox - 1e12, oy}, {ox, oy + 1e12}, {-1e300, 1e300}};
    for (int i = 0; i < 4000; ++i) points.emplace_back(ux(rng), uy(rng));
    for (int i = 0; i < 1000; ++i) {
      const double half = (i % 2) * 0.5;  // corners, then centres
      points.emplace_back(ox + (ix(rng) + half) * pix, oy + (iy(rng) + half) * pix);
    }
    std::vector<double> got_samples, want_samples;
    for (const auto& [x, y] : points) {
      got_samples.push_back(field.sample(x, y));
      want_samples.push_back(want.sample(x, y));
    }
    EXPECT_TRUE(same_bits(got_samples, want_samples)) << c.name;

    // The target's own edges and short random ones anywhere on the frame
    // (many in the margin, where probes miss), at two print levels. The
    // frame may touch the coordinate range's end: clamp in 64 bits.
    std::vector<EpeEdge> edges = epe_edges(target);
    const std::size_t want_edges = edges.size() + 300;
    const auto clamp = [](Coord64 v) {
      return static_cast<Coord>(std::clamp<Coord64>(v, std::numeric_limits<Coord>::min(),
                                                    std::numeric_limits<Coord>::max()));
    };
    const Coord64 p64 = want.pixel_size();
    std::uniform_int_distribution<Coord64> ex(want.origin().x - 4 * p64,
                                              want.origin().x + (want.width() + 4) * p64);
    std::uniform_int_distribution<Coord64> ey(want.origin().y - 4 * p64,
                                              want.origin().y + (want.height() + 4) * p64);
    std::uniform_int_distribution<Coord64> ed(-8 * p64, 8 * p64);
    while (edges.size() < want_edges) {
      const Coord64 x = ex(rng), y = ey(rng);
      const Point a{clamp(x), clamp(y)};
      const Point b{clamp(x + ed(rng)), clamp(y + ed(rng))};
      if (a.x != b.x || a.y != b.y) edges.push_back({a, b});
    }
    for (const double level : {0.3, 0.5}) {
      EpeAccumulator got, ref;
      score_epe(field, level, edges, {}, got);
      score_epe(want, level, edges, {}, ref);
      EXPECT_GT(ref.samples(), edges.size()) << c.name;
      EXPECT_TRUE(same_bits(got.values(), ref.values())) << c.name << " level " << level;
      EXPECT_EQ(got.finalize().missing, ref.finalize().missing) << c.name;
    }
  }
}

TEST(SimulateExposure, PsfsThatOverflowTheGridAreDataErrors) {
  PolygonSet s;
  s.insert(Box{0, 0, 1000, 1000});
  const ShotList shots = fracture(s).shots;
  // The automatic margin, ceil(4 sigma) = 4e10 dbu, does not fit a Coord.
  EXPECT_THROW(simulate_exposure(shots, Psf::double_gaussian(50.0, 1e10, 0.5),
                                 {.pixel = 25}),
               DataError);
  // Nor does the automatic pixel, min sigma / 2 = 5e9 dbu.
  EXPECT_THROW(simulate_exposure(shots, Psf::single_gaussian(1e10), {.margin = 1000}),
               DataError);
  // With both given, a term whose map factor passes INT_MAX.
  EXPECT_THROW(ExposureField(shots, Psf::double_gaussian(50.0, 1e12, 0.5),
                             {.pixel = 1, .margin = 1000}),
               DataError);
}

}  // namespace
}  // namespace ebl
