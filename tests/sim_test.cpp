// Tests for resist models, exposure simulation, contours and CD metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

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
ShotList pad_and_grating(Point at = {0, 0}) {
  PolygonSet s;
  const auto box = [&](Coord x0, Coord x1) {
    s.insert(Box{at.x + x0, at.y, at.x + x1, at.y + 6000});
  };
  box(0, 6000);
  for (int i = 0; i < 5; ++i) box(8000 + 1000 * i, 8500 + 1000 * i);
  return fracture(s, {.max_shot_size = 2000}).shots;
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

}  // namespace
}  // namespace ebl
