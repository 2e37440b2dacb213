// Tests for the exposure evaluator's dose setters (set_active_doses and
// reset_doses, both exact: the resident sharded pipeline is built on
// them), its streamed long-range refresh against a serial reference, bit
// for bit, and its centroid sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "util/rng.h"

namespace ebl {
namespace {

// Splits every evaluator's terms as split says while in scope (see
// detail::force_term_split).
struct ForcedSplit {
  explicit ForcedSplit(detail::TermSplit split) { detail::force_term_split(split); }
  ~ForcedSplit() { detail::force_term_split(detail::TermSplit::cost); }
  ForcedSplit(const ForcedSplit&) = delete;
  ForcedSplit& operator=(const ForcedSplit&) = delete;
};

// Keeps every term at or above kLongRangeThreshold on its raster while in
// scope, so a raster-path test keeps a mid-range term there.
struct RasterTerms : ForcedSplit {
  RasterTerms() : ForcedSplit(detail::TermSplit::raster) {}
};

ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9500, 41000, 10500});
  return fracture(s, {.max_shot_size = 2000}).shots;
}

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

// A PSF, the term split its evaluators are built with and how many terms
// that leaves on rasters.
struct SplitCase {
  const char* name;
  Psf psf;
  detail::TermSplit split;
  std::size_t raster_terms;
};

// Both long-range map layouts: one long term on the base map (k = 1), and
// gamma on the base map plus beta on its own 5x coarser map (the split
// forced, since on pad_and_island the cost choice sums gamma
// analytically); then that choice, gamma on the short-range operator.
std::vector<SplitCase> map_layout_cases() {
  const Psf triple = Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3);
  return {{"double Gaussian", test_psf(), detail::TermSplit::cost, 1},
          {"triple Gaussian, gamma on the base map", triple, detail::TermSplit::raster, 2},
          {"triple Gaussian, gamma analytic", triple, detail::TermSplit::cost, 1}};
}

// Deterministic pseudo-random dose trajectories: step k moves a subset of
// the doses by a few percent; frac_num/frac_den controls the moved subset
// size.
std::vector<double> perturb(const std::vector<double>& doses, int step,
                            std::uint64_t frac_num, std::uint64_t frac_den) {
  std::vector<double> out = doses;
  std::uint64_t h = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(step + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= i * 0xc4ceb9fe1a85ec53ull + 1;
    if ((h >> 8) % frac_den < frac_num) {
      out[i] *= 1.0 + 0.04 * (static_cast<double>(h % 1000) / 1000.0 - 0.5);
    }
  }
  return out;
}

// The doses an evaluator has applied.
std::vector<double> applied_doses(const ExposureEvaluator& eval) {
  std::vector<double> out(eval.shots().size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = eval.shots()[i].dose;
  return out;
}

TEST(DeltaPath, ResetChainIsBitwiseTheFreshEvaluator) {
  // A trajectory of exact resets leaves the evaluator bit-identical to one
  // freshly constructed at the final doses.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureEvaluator eval(shots, psf);
  std::vector<double> doses(shots.size(), 1.0);
  for (int step = 0; step < 5; ++step) {
    doses = perturb(doses, step, 3, 10);
    eval.reset_doses(doses);
  }
  EXPECT_EQ(eval.blur_perf().delta_refreshes, 0);
  ShotList fresh_shots = shots;
  for (std::size_t i = 0; i < doses.size(); ++i) fresh_shots[i].dose = doses[i];
  ExposureEvaluator fresh(fresh_shots, psf);
  const std::vector<double> a = eval.exposures_at_centroids();
  const std::vector<double> b = fresh.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
}

// The doses a resident shard re-enters with: its own (active) doses as the
// evaluator already holds them, followed by new ghost doses.
std::vector<double> with_ghosts(const ExposureEvaluator& eval,
                                const std::vector<double>& bg) {
  std::vector<double> all(eval.active_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = eval.shots()[i].dose;
  all.insert(all.end(), bg.begin(), bg.end());
  return all;
}

TEST(DosePaths, GhostOnlyResetIsBitwiseTheFreshEvaluator) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ExposureEvaluator split(shots, na, psf);

  std::vector<double> bg(shots.size() - na);
  for (std::size_t k = 0; k < bg.size(); ++k)
    bg[k] = 1.0 + 0.02 * static_cast<double>(k % 11);
  split.reset_doses(with_ghosts(split, bg));
  // Active doses untouched, background doses applied.
  for (std::size_t i = 0; i < na; ++i)
    EXPECT_EQ(split.shots()[i].dose, shots[i].dose);
  for (std::size_t i = na; i < shots.size(); ++i)
    EXPECT_EQ(split.shots()[i].dose, bg[i - na]);

  ShotList fresh_shots = shots;
  for (std::size_t i = na; i < shots.size(); ++i) fresh_shots[i].dose = bg[i - na];
  ExposureEvaluator fresh(fresh_shots, na, psf);
  const std::vector<double> a = split.exposures_at_centroids();
  const std::vector<double> b = fresh.exposures_at_centroids();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
}

TEST(DosePaths, GhostResetRefreshesInFullAndSkipsWhenNothingMoved) {
  // The resident-shard entry point: when a few ghost doses moved,
  // reset_doses re-gathers in full (one full refresh per re-entry, never a
  // delta) and lands bit-identical to a fresh evaluator — the sharded
  // pipeline's residency contract depends on it.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ExposureEvaluator split(shots, na, psf);

  std::vector<double> bg(shots.size() - na, 1.0);
  for (int step = 0; step < 4; ++step) {
    // Move a handful of ghost doses per step.
    for (std::size_t k = static_cast<std::size_t>(step); k < bg.size();
         k += bg.size() / 3 + 1) {
      bg[k] *= 1.0 + 0.01 * (step + 1);
    }
    split.reset_doses(with_ghosts(split, bg));
  }
  EXPECT_EQ(split.blur_perf().delta_refreshes, 0);
  EXPECT_EQ(split.blur_perf().refreshes, 1 + 4);  // constructor + each step

  ShotList fresh_shots = shots;
  for (std::size_t i = na; i < shots.size(); ++i) fresh_shots[i].dose = bg[i - na];
  ExposureEvaluator fresh(fresh_shots, na, psf);
  const std::vector<double> a = split.exposures_at_centroids();
  const std::vector<double> b = fresh.exposures_at_centroids();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;

  // Re-sending identical doses skips the refresh outright.
  const int skipped0 = split.blur_perf().skipped_refreshes;
  split.reset_doses(with_ghosts(split, bg));
  EXPECT_EQ(split.blur_perf().skipped_refreshes, skipped0 + 1);
  const std::vector<double> c = split.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(c[i], a[i]) << "shot " << i;
}

TEST(DosePaths, ResetDosesIsBitwiseTheFreshEvaluator) {
  const ShotList shots = pad_and_island();
  const std::size_t na = shots.size() / 2;
  for (const SplitCase& c : map_layout_cases()) {
    SCOPED_TRACE(c.name);
    const ForcedSplit forced(c.split);
    const Psf& psf = c.psf;
    ExposureEvaluator split(shots, na, psf);
    ASSERT_EQ(split.raster_terms().size(), c.raster_terms);

    // Drive the evaluator through delta updates first: reset_doses must wipe
    // every trace of the incremental state.
    std::vector<double> act(na, 1.0);
    for (int step = 0; step < 3; ++step) {
      act = perturb(act, step, 2, 10);
      split.set_active_doses(act);
    }
    std::vector<double> all(shots.size());
    for (std::size_t i = 0; i < shots.size(); ++i)
      all[i] = 1.0 + 0.01 * static_cast<double>(i % 13);
    split.reset_doses(all);

    ShotList fresh_shots = shots;
    for (std::size_t i = 0; i < shots.size(); ++i) fresh_shots[i].dose = all[i];
    ExposureEvaluator fresh(fresh_shots, na, psf);
    const std::vector<double> a = split.exposures_at_centroids();
    const std::vector<double> b = fresh.exposures_at_centroids();
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
  }
}

// Shots for the banded gather: two pads, each one shot taller than many
// 16-row bands; a field of small squares at a pitch off the pixel grid, so
// most pixels sum several shots; slanted trapezoids across band edges; and
// squares on the pattern's bottom and top edges. Ghosts overlap the pads.
ShotList gather_shots(std::size_t* active_count) {
  ShotList shots;
  const auto add = [&](Trapezoid t) { shots.push_back({t, 1.0}); };
  add(Trapezoid::rect(Box{0, 0, 8000, 30000}));
  add(Trapezoid::rect(Box{12000, 5037, 20011, 25000}));
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 12; ++i)
      add(Trapezoid::rect(Box{22000 + 170 * i, 9000 + 170 * j, 22170 + 170 * i,
                              9170 + 170 * j}));
  add(Trapezoid(2300, 9100, 26000, 30000, 27500, 29000));   // both sides in
  add(Trapezoid(11000, 16200, 27000, 31000, 29000, 29000));  // triangle
  add(Trapezoid(17000, 23000, 24000, 26000, 27100, 29100));  // parallelogram
  add(Trapezoid::rect(Box{30000, 0, 31000, 1000}));          // bottom edge
  add(Trapezoid::rect(Box{30000, 29000, 31000, 30000}));     // top edge
  *active_count = shots.size();
  add(Trapezoid::rect(Box{7000, 2000, 13500, 4000}));
  add(Trapezoid(20000, 28000, 5000, 15000, 6000, 14000));
  add(Trapezoid::rect(Box{21000, 8000, 24000, 12000}));
  for (std::size_t i = 0; i < shots.size(); ++i)
    shots[i].dose = 1.0 + 0.037 * static_cast<double>(i % 7);
  return shots;
}

// The long-range exposure at each point, computed serially from the shots:
// ghosts rasterized at double precision, then every active shot's
// float-rounded coverage fractions in ascending shot order on one fine base
// map, then per term a box average onto its k-times-coarser map, the
// separable blur and a bilinear sample. Pixel and margin follow the
// evaluator's rules for map_margin_sigmas 0 (pixel sigma_min / 4, margin
// two pixels of the coarsest map). base_height, when given, receives the
// base map's row count.
std::vector<double> serial_long_range_at(const ShotList& shots, std::size_t na,
                                         const Psf& psf,
                                         const std::vector<std::pair<double, double>>& points,
                                         int* base_height = nullptr) {
  Box frame;
  for (const Shot& s : shots) frame += s.shape.bbox();
  const Coord pixel = static_cast<Coord>(psf.min_sigma() / kPixelsPerSigma);
  int k_max = 1;
  for (const PsfTerm& t : psf.terms()) k_max = std::max(k_max, term_k(t.sigma, pixel));
  Raster base(frame.bloated(2 * k_max * pixel), pixel);
  if (base_height) *base_height = base.height();

  // The lowest and highest shots lie in the base map's first and last bands.
  EXPECT_EQ(base.index_of(frame.lo).second / 16, 0);
  EXPECT_EQ(base.index_of(frame.hi).second / 16, (base.height() - 1) / 16);

  for (std::size_t i = na; i < shots.size(); ++i)
    base.add_coverage(shots[i].shape, shots[i].dose);
  std::vector<double>& data = base.data();
  for (std::size_t i = 0; i < na; ++i) {
    base.visit_coverage(shots[i].shape, 0, base.height(), [&](int ix, int iy, double f) {
      data[static_cast<std::size_t>(iy) * base.width() + ix] +=
          static_cast<double>(static_cast<float>(f)) * shots[i].dose;
    });
  }

  std::vector<double> out(points.size(), 0.0);
  for (const PsfTerm& t : psf.terms()) {
    const int k = term_k(t.sigma, pixel);
    const Coord tp = k * pixel;
    const Point lo = base.origin();
    Raster map(Box{lo.x, lo.y, lo.x + (base.width() + k - 1) / k * tp,
                   lo.y + (base.height() + k - 1) / k * tp},
               tp);
    box_average(data.data(), base.width(), base.height(), k, 0, 0, map.width(),
                map.height(), map.data().data());
    separable_blur(map, gaussian_kernel_taps(t.sigma / static_cast<double>(tp)));
    for (std::size_t i = 0; i < points.size(); ++i)
      out[i] += t.weight * map.sample(points[i].first, points[i].second);
  }
  return out;
}

// serial_long_range_at every active centroid of eval.
std::vector<double> serial_long_range(const ShotList& shots, std::size_t na,
                                      const Psf& psf, const ExposureEvaluator& eval) {
  std::vector<std::pair<double, double>> centroids;
  for (std::size_t i = 0; i < na; ++i) centroids.push_back(eval.centroid(i));
  return serial_long_range_at(shots, na, psf, centroids);
}

TEST(ExposureEvaluator, LongRangeGatherMatchesASerialReferenceBitForBit) {
  std::size_t na = 0;
  ShotList shots = gather_shots(&na);
  // Both terms long-range: alpha on the base map (k = 1), beta on a 5x
  // coarser one.
  const Psf psf = Psf::double_gaussian(600.0, 3000.0, 0.7);
  ASSERT_GE(psf.min_sigma(), kLongRangeThreshold);
  const RasterTerms raster_terms;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ExposureOptions opt;
    opt.map_margin_sigmas = 0.0;
    opt.threads = threads;
    ExposureEvaluator eval(shots, na, psf, opt);
    const std::vector<double> built = eval.exposures_at_centroids();
    const std::vector<double> ref = serial_long_range(shots, na, psf, eval);
    ASSERT_EQ(built.size(), ref.size());
    for (std::size_t i = 0; i < na; ++i) EXPECT_EQ(built[i], ref[i]) << "shot " << i;

    // New doses for actives and ghosts alike: a full re-gather.
    ShotList moved = shots;
    std::vector<double> doses(shots.size());
    for (std::size_t i = 0; i < shots.size(); ++i)
      doses[i] = moved[i].dose = 0.8 + 0.053 * static_cast<double>(i % 11);
    eval.reset_doses(doses);
    const std::vector<double> reset = eval.exposures_at_centroids();
    const std::vector<double> ref2 = serial_long_range(moved, na, psf, eval);
    for (std::size_t i = 0; i < na; ++i) EXPECT_EQ(reset[i], ref2[i]) << "shot " << i;
  }
}

// memcmp of two value lists of the same length.
void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " " << i << ": got " << got[i] << " want " << want[i];
}

TEST(DosePaths, SetActiveDosesIsBitwiseTheFreshEvaluator) {
  // set_active_doses applies every dose exactly, however little or much
  // moved: one dose by one ulp, then a minority by 1.3x, then every dose.
  // After each step the sweep equals a fresh evaluator's at the same doses,
  // and the last one is the same at 1 and 4 threads.
  const ShotList shots = pad_and_island();
  for (const SplitCase& c : map_layout_cases())
    for (const std::size_t na : {shots.size(), shots.size() / 2}) {
      const ForcedSplit forced(c.split);
      const Psf& psf = c.psf;
      std::vector<std::vector<double>> last;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << c.name << ", " << na << " active, " << threads
                                        << " threads");
        ExposureOptions opt;
        opt.threads = threads;
        ExposureEvaluator eval(shots, na, psf, opt);
        ASSERT_EQ(eval.raster_terms().size(), c.raster_terms);
        std::vector<double> doses(na);
        for (std::size_t i = 0; i < na; ++i) doses[i] = shots[i].dose;
        const auto expect_fresh = [&](const char* step) {
          ShotList fresh_shots = shots;
          for (std::size_t i = 0; i < na; ++i) fresh_shots[i].dose = doses[i];
          const ExposureEvaluator fresh(fresh_shots, na, psf, opt);
          expect_same_bits(eval.exposures_at_centroids(), fresh.exposures_at_centroids(),
                           step);
        };

        doses[na / 3] = std::nextafter(doses[na / 3], 2.0);
        eval.set_active_doses(doses);
        expect_fresh("one ulp");
        for (std::size_t i = 0; i < na; i += 7) doses[i] *= 1.3;
        eval.set_active_doses(doses);
        expect_fresh("minority");
        for (std::size_t i = 0; i < na; ++i)
          doses[i] *= 0.9 + 0.01 * static_cast<double>(i % 5);
        eval.set_active_doses(doses);
        expect_fresh("every dose");

        // An unchanged vector only counts a skipped refresh.
        const BlurPerf before = eval.blur_perf();
        const std::vector<double> swept = eval.exposures_at_centroids();
        eval.set_active_doses(doses);
        const BlurPerf& after = eval.blur_perf();
        EXPECT_EQ(after.skipped_refreshes, before.skipped_refreshes + 1);
        EXPECT_EQ(after.refreshes, before.refreshes);
        EXPECT_EQ(after.accumulate_ms, before.accumulate_ms);
        EXPECT_EQ(after.blur_ms, before.blur_ms);
        expect_same_bits(eval.exposures_at_centroids(), swept, "unchanged");
        last.push_back(swept);
      }
      expect_same_bits(last[1], last[0], "4 threads against 1");
    }
}

TEST(ExposureEvaluator, RefreshStripCountDoesNotChangeABit) {
  // The refresh gathers the base in bands (20 rows here: the least multiple
  // of beta's k = 5 from 16) and runs the bands in strips. A split
  // evaluator with slanted actives and ghosts across band rows, whose base
  // ends in a partial band and a partial 5-row block, must match the serial
  // reference bit for bit at every strip count: 1, 2, 7 and one band per
  // strip.
  std::size_t na = 0;
  ShotList shots = gather_shots(&na);
  const Psf psf = Psf::double_gaussian(600.0, 3000.0, 0.7);
  const RasterTerms raster_terms;
  // A slanted active up to y = 30350 and a second slanted ghost.
  shots.insert(shots.begin() + static_cast<std::ptrdiff_t>(na),
               {Trapezoid(27310, 30350, 3000, 5000, 3500, 4200), 1.11});
  ++na;
  shots.push_back({Trapezoid(1000, 4700, 14000, 17000, 15000, 16100), 0.93});

  std::vector<std::pair<double, double>> probes;
  for (double y = -1400.0; y <= 31800.0; y += 1730.0)
    for (double x = -1400.0; x <= 32400.0; x += 2210.0) probes.emplace_back(x, y);
  int ny = 0;
  const std::vector<double> ref_at = serial_long_range_at(shots, na, psf, probes, &ny);
  ASSERT_NE(ny % 5, 0);
  ASSERT_NE(ny % 20, 0);
  ASSERT_GT((ny + 19) / 20, 7);  // 7 strips group the bands unevenly

  // Restores the default strip count however the test leaves.
  struct Restore {
    ~Restore() { detail::force_refresh_strips(0); }
  } restore;
  for (const int strips : {1, 2, 7, std::numeric_limits<int>::max()}) {
    detail::force_refresh_strips(strips);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << strips << " strips, " << threads << " threads");
      ExposureOptions opt;
      opt.map_margin_sigmas = 0.0;
      opt.threads = threads;
      ExposureEvaluator eval(shots, na, psf, opt);
      expect_same_bits(eval.exposures_at_centroids(), serial_long_range(shots, na, psf, eval),
                       "built");
      std::vector<double> at;
      for (const auto& [x, y] : probes) at.push_back(eval.exposure_at(x, y));
      expect_same_bits(at, ref_at, "exposure_at");

      // New doses for actives and ghosts: a refresh at the forced count.
      ShotList moved = shots;
      std::vector<double> doses(shots.size());
      for (std::size_t i = 0; i < shots.size(); ++i)
        doses[i] = moved[i].dose = 0.8 + 0.053 * static_cast<double>(i % 11);
      eval.reset_doses(doses);
      expect_same_bits(eval.exposures_at_centroids(), serial_long_range(moved, na, psf, eval),
                       "reset");
    }
  }
}

// A seeded layout for the short-range pins: small rectangles and slanted
// trapezoids with a few long bars that span several cells of the neighbor
// grid, then ghosts of the same mix. *na receives the active count.
ShotList seeded_short_range_layout(std::uint64_t seed, std::size_t* na) {
  Rng rng(seed);
  ShotList shots;
  const auto add_shots = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Coord x = static_cast<Coord>(rng.uniform(0, 12000));
      const Coord y = static_cast<Coord>(rng.uniform(0, 12000));
      const Coord h = static_cast<Coord>(rng.uniform(60, 500));
      Trapezoid t;
      if (i % 23 == 0) {  // a bar several grid cells long
        t = i % 2 ? Trapezoid::rect(Box{x, y, x + 4000, y + h})
                  : Trapezoid::rect(Box{x, y, x + h, y + 4000});
      } else if (i % 4 == 0) {  // slanted sides, a triangle now and then
        const Coord w = static_cast<Coord>(rng.uniform(80, 600));
        const Coord dl = static_cast<Coord>(rng.uniform(-200, 200));
        const Coord top = i % 12 == 0 ? x + dl : x + dl + w / 2;
        t = Trapezoid(y, y + h, x, x + w, x + dl, std::max(top, x + dl));
      } else {
        const Coord w = static_cast<Coord>(rng.uniform(60, 500));
        t = Trapezoid::rect(Box{x, y, x + w, y + h});
      }
      shots.push_back({t, rng.uniform_real(0.8, 1.3)});
    }
  };
  add_shots(240);
  *na = shots.size();
  add_shots(70);
  return shots;
}

// FNV-1a over the bits of a list of doubles, continuing from h.
std::uint64_t fnv_bits(std::uint64_t h, const std::vector<double>& v) {
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(ExposureEvaluator, ShortRangeSumsMatchParentDigests) {
  // Pins every bit of the centroid sweep, whose short-range part is the
  // analytic sum over neighbor rectangles, through construction and a dose
  // trajectory (a third of the actives, every active, actives and ghosts,
  // then an unchanged vector), plus exposure_at on a probe lattice.
  // Seeded layouts with slanted actives and ghosts and shots spanning
  // several grid cells; a PSF with one short term and one with two (40 and
  // 150 dbu); the vectorized and the libm erf; 1 and 4 threads, which must
  // agree. With two short terms the 40-dbu term's rectangles out to the
  // 150-dbu term's cutoff have saturated erfs, so many of them add exactly
  // +-0.0 (the slanted shots' far strips do with one term too). The
  // digests were recorded before the sums came from a cached operator.
  struct Case {
    std::uint64_t seed;
    bool two_short;
    bool fast_erf;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1, false, true, 0xd65489a8390bba70ull},
      {1, false, false, 0x8f09fc9f7cc7b912ull},
      {1, true, true, 0xb0044e09c80b40a1ull},
      {1, true, false, 0x7cbeab1a18e08e53ull},
      {7, false, true, 0xda706892e53f3eb1ull},
      {7, false, false, 0x0184ddf26d96f7a2ull},
      {7, true, true, 0xb1c07d30e461c2a5ull},
      {7, true, false, 0xab1ccf3ca24cef8cull},
  };
  for (const Case& c : cases) {
    std::size_t na = 0;
    const ShotList shots = seeded_short_range_layout(c.seed, &na);
    const Psf psf = c.two_short ? Psf::triple_gaussian(40.0, 3000.0, 150.0, 0.6, 0.25)
                                : Psf::double_gaussian(40.0, 3000.0, 0.6);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "seed " << c.seed << ", "
                                      << (c.two_short ? "two short terms" : "one short term")
                                      << ", fast_erf " << c.fast_erf << ", "
                                      << threads << " threads");
      ExposureOptions opt;
      opt.threads = threads;
      opt.fast_erf = c.fast_erf;
      ExposureEvaluator eval(shots, na, psf, opt);
      std::uint64_t h = fnv_bits(14695981039346656037ull, eval.exposures_at_centroids());

      std::vector<double> doses(na);
      for (std::size_t i = 0; i < na; ++i) doses[i] = shots[i].dose;
      for (std::size_t i = 0; i < na; i += 3) doses[i] *= 1.17;
      eval.set_active_doses(doses);
      h = fnv_bits(h, eval.exposures_at_centroids());
      for (std::size_t i = 0; i < na; ++i)
        doses[i] *= 0.9 + 0.01 * static_cast<double>(i % 13);
      eval.set_active_doses(doses);
      h = fnv_bits(h, eval.exposures_at_centroids());
      std::vector<double> all = perturb(applied_doses(eval), 5, 2, 3);
      eval.reset_doses(all);
      h = fnv_bits(h, eval.exposures_at_centroids());
      eval.reset_doses(all);
      h = fnv_bits(h, eval.exposures_at_centroids());

      std::vector<double> at;
      for (double y = -700.0; y <= 16500.0; y += 1130.0)
        for (double x = -700.0; x <= 16500.0; x += 1370.0) at.push_back(eval.exposure_at(x, y));
      h = fnv_bits(h, at);
      EXPECT_EQ(h, c.digest) << std::hex << "0x" << h;
    }
  }
}

TEST(Sweep, ExactErfSweepMatchesPointQueries) {
  // With fast_erf off the batched sweep and the scalar point query compute
  // the same sums with the same libm erf — they differ only in summation
  // grouping, far below 1e-9.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureOptions opt;
  opt.fast_erf = false;
  const ExposureEvaluator eval(shots, psf, opt);
  const std::vector<double> sweep = eval.exposures_at_centroids();
  for (std::size_t i = 0; i < shots.size(); i += 17) {
    const auto [cx, cy] = eval.centroid(i);
    EXPECT_NEAR(sweep[i], eval.exposure_at(cx, cy), 1e-9) << "shot " << i;
  }
}

TEST(Sweep, FastErfSweepStaysWithinAnalyticTruncationBudget) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureOptions fast;
  ExposureOptions exact;
  exact.fast_erf = false;
  const ExposureEvaluator fast_eval(shots, psf, fast);
  const ExposureEvaluator exact_eval(shots, psf, exact);
  const std::vector<double> a = fast_eval.exposures_at_centroids();
  const std::vector<double> b = exact_eval.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 2e-6) << "shot " << i;
  }
}

TEST(Corrector, DeltaModeConvergesToTheSameToleranceContract) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  PecOptions opt;
  opt.max_iterations = 10;
  opt.tolerance = 0.005;
  const PecResult with_delta = correct_proximity(shots, psf, opt);
  EXPECT_LT(with_delta.final_max_error, opt.tolerance);

  // The reference: plain Jacobi with no freeze schedule and no deferral —
  // every shot updates every iteration, and every update is an exact
  // reset_doses — evaluated with libm's erf.
  ExposureOptions eopt;
  eopt.map_margin_sigmas = 0.0;
  eopt.fast_erf = false;
  ExposureEvaluator oracle(shots, psf, eopt);
  std::vector<double> doses = applied_doses(oracle);
  double oracle_err = 0.0;
  for (int iter = 0; iter <= opt.max_iterations; ++iter) {
    const std::vector<double> e = oracle.exposures_at_centroids();
    oracle_err = 0.0;
    for (double ei : e) oracle_err = std::max(oracle_err, std::abs(ei / opt.target - 1.0));
    if (oracle_err < opt.tolerance || iter == opt.max_iterations) break;
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = jacobi_updated_dose(doses[i], e[i], 0.0, opt.target, opt.min_dose,
                                     opt.max_dose);
    oracle.reset_doses(doses);
  }
  EXPECT_EQ(oracle.blur_perf().delta_refreshes, 0);
  EXPECT_LT(oracle_err, opt.tolerance);
  // Same contract, nearly the same doses: deviations bounded by the update
  // schedule's freeze threshold, far below the tolerance.
  for (std::size_t i = 0; i < shots.size(); ++i) {
    EXPECT_NEAR(with_delta.shots[i].dose, doses[i], 2.0 * opt.tolerance * doses[i])
        << "shot " << i;
  }
}

}  // namespace
}  // namespace ebl
