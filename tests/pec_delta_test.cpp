// Tests for the incremental dose-delta path of the exposure evaluator
// (ExposureOptions::delta_threshold) and the exact dose-reset entry points
// the resident sharded pipeline is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"

namespace ebl {
namespace {

ShotList pad_and_island() {
  PolygonSet s;
  s.insert(Box{0, 0, 20000, 20000});
  s.insert(Box{40000, 9500, 41000, 10500});
  return fracture(s, {.max_shot_size = 2000}).shots;
}

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

// Both long-range map layouts: one long term on the base map (k = 1), and
// gamma on the base map plus beta on its own 5x coarser map.
std::vector<Psf> map_layout_psfs() {
  return {test_psf(), Psf::triple_gaussian(50.0, 3000.0, 600.0, 0.7, 0.3)};
}

// Deterministic pseudo-random dose trajectories: step k moves a subset of
// the doses by a few percent. frac_num/frac_den controls the moved subset
// size so both the delta path (minority moved) and the full fallback
// (majority moved) are exercised.
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

TEST(DeltaPath, MatchesFullReaccumulationAcrossRandomTrajectories) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureOptions delta_opt;
  delta_opt.delta_threshold = 1e-15;  // apply every change, via deltas
  ExposureOptions full_opt;
  full_opt.delta_threshold = 0.0;  // the always-full oracle
  ExposureEvaluator delta_eval(shots, psf, delta_opt);
  ExposureEvaluator full_eval(shots, psf, full_opt);

  std::vector<double> doses(shots.size(), 1.0);
  for (int step = 0; step < 12; ++step) {
    // Mostly minority updates (delta path), every fourth step a majority
    // update (full fallback) — the paths must agree wherever they hand over.
    doses = perturb(doses, step, step % 4 == 3 ? 9 : 2, 10);
    delta_eval.set_doses(doses);
    full_eval.set_doses(doses);
    const std::vector<double> a = delta_eval.exposures_at_centroids();
    const std::vector<double> b = full_eval.exposures_at_centroids();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12) << "step " << step << " shot " << i;
    }
  }
  EXPECT_GT(delta_eval.blur_perf().delta_refreshes, 0);
  EXPECT_GT(delta_eval.blur_perf().shots_updated, 0);
  EXPECT_EQ(full_eval.blur_perf().delta_refreshes, 0);
}

TEST(DeltaPath, ShortOnlyPsfDeltasThroughTheCentroidCache) {
  // All-short PSF: no long-range maps at all, the delta path updates only
  // the cached analytic sums.
  const ShotList shots = pad_and_island();
  const Psf psf = Psf::double_gaussian(40.0, 150.0, 0.5);
  ExposureOptions delta_opt;
  delta_opt.delta_threshold = 1e-15;
  ExposureOptions full_opt;
  full_opt.delta_threshold = 0.0;
  ExposureEvaluator delta_eval(shots, psf, delta_opt);
  ExposureEvaluator full_eval(shots, psf, full_opt);
  std::vector<double> doses(shots.size(), 1.0);
  // Prime both caches, then run delta steps.
  (void)delta_eval.exposures_at_centroids();
  for (int step = 0; step < 6; ++step) {
    doses = perturb(doses, step, 1, 10);
    delta_eval.set_doses(doses);
    full_eval.set_doses(doses);
    const std::vector<double> a = delta_eval.exposures_at_centroids();
    const std::vector<double> b = full_eval.exposures_at_centroids();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12) << "step " << step << " shot " << i;
    }
  }
  EXPECT_GT(delta_eval.blur_perf().delta_refreshes, 0);
}

TEST(DeltaPath, ThresholdZeroIsBitwiseTheFreshEvaluator) {
  // The opt-out contract: with delta_threshold = 0 a trajectory of full
  // re-accumulations leaves the evaluator bit-identical to one freshly
  // constructed at the final doses.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureOptions opt;
  opt.delta_threshold = 0.0;
  ExposureEvaluator eval(shots, psf, opt);
  std::vector<double> doses(shots.size(), 1.0);
  for (int step = 0; step < 5; ++step) {
    doses = perturb(doses, step, 3, 10);
    eval.set_doses(doses);
  }
  ShotList fresh_shots = shots;
  for (std::size_t i = 0; i < doses.size(); ++i) fresh_shots[i].dose = doses[i];
  ExposureEvaluator fresh(fresh_shots, psf, opt);
  const std::vector<double> a = eval.exposures_at_centroids();
  const std::vector<double> b = fresh.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
}

TEST(DeltaPath, BitIdenticalAcrossThreadCounts) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  std::vector<std::vector<double>> sweeps;
  for (const int threads : {1, 4}) {
    ExposureOptions opt;
    opt.delta_threshold = 1e-15;
    opt.threads = threads;
    ExposureEvaluator eval(shots, psf, opt);
    std::vector<double> doses(shots.size(), 1.0);
    std::vector<double> last;
    for (int step = 0; step < 6; ++step) {
      doses = perturb(doses, step, 2, 10);
      eval.set_doses(doses);
      last = eval.exposures_at_centroids();
    }
    EXPECT_GT(eval.blur_perf().delta_refreshes, 0) << threads << " threads";
    sweeps.push_back(std::move(last));
  }
  ASSERT_EQ(sweeps[0].size(), sweeps[1].size());
  for (std::size_t i = 0; i < sweeps[0].size(); ++i) {
    EXPECT_EQ(sweeps[0][i], sweeps[1][i]) << "shot " << i;
  }
}

TEST(DeltaPath, SubThresholdUpdatesAreDeferredThenApplied) {
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  ExposureOptions opt;
  opt.delta_threshold = 1e-3;
  ExposureEvaluator eval(shots, psf, opt);
  const std::vector<double> before = eval.exposures_at_centroids();
  const int skipped0 = eval.blur_perf().skipped_refreshes;

  // One sub-threshold nudge: nothing is applied, the refresh is skipped
  // outright and the sweep is bitwise unchanged.
  std::vector<double> doses(shots.size(), 1.0 + 2e-4);
  eval.set_doses(doses);
  EXPECT_EQ(eval.blur_perf().skipped_refreshes, skipped0 + 1);
  const std::vector<double> after_nudge = eval.exposures_at_centroids();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(after_nudge[i], before[i]) << "shot " << i;

  // Keep creeping: the accumulated request crosses the threshold and is
  // applied in full — no drift is ever lost, and the evaluator never lags
  // the requests by more than the threshold.
  for (int step = 2; step <= 10; ++step) {
    for (double& d : doses) d = 1.0 + 2e-4 * step;
    eval.set_doses(doses);
  }
  ExposureOptions exact_opt;
  exact_opt.delta_threshold = 0.0;
  ShotList exact_shots = shots;
  for (Shot& s : exact_shots) s.dose = doses[0];
  ExposureEvaluator exact(exact_shots, psf, exact_opt);
  const std::vector<double> a = eval.exposures_at_centroids();
  const std::vector<double> b = exact.exposures_at_centroids();
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Residual deferral is bounded by the threshold (relative, and exposure
    // is 1-homogeneous in dose).
    EXPECT_NEAR(a[i], b[i], 2.5 * opt.delta_threshold) << "shot " << i;
  }
}

// Indices of the island shots (the small box far from the pad) — moving
// only these keeps the touched region tiny so the windowed delta-blur
// beats re-blurring the whole map.
std::vector<std::size_t> island_indices(const ShotList& shots) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < shots.size(); ++i) {
    if (shots[i].shape.bbox().lo.x >= 40000) out.push_back(i);
  }
  return out;
}

std::vector<double> perturb_subset(const std::vector<double>& doses,
                                   const std::vector<std::size_t>& subset,
                                   int step) {
  std::vector<double> out = doses;
  std::uint64_t h = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(step + 1);
  for (const std::size_t i : subset) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= i * 0xc4ceb9fe1a85ec53ull + 1;
    out[i] *= 1.0 + 0.05 * (static_cast<double>(h % 1000) / 1000.0 - 0.5);
  }
  return out;
}

TEST(DeltaPath, WindowedBlurMatchesTheFullBlurOracle) {
  // Localized updates (island only): the delta path refreshes each term's
  // blur on snug windows around the island instead of its whole map. The
  // windowed result must stay within the delta path's 1e-12 contract of the
  // always-full oracle across a random trajectory.
  const ShotList shots = pad_and_island();
  const std::vector<std::size_t> island = island_indices(shots);
  ASSERT_FALSE(island.empty());
  for (const Psf& psf : map_layout_psfs()) {
    SCOPED_TRACE(psf.terms().size() == 2 ? "double Gaussian" : "triple Gaussian");
    ExposureOptions delta_opt;
    delta_opt.delta_threshold = 1e-15;
    ExposureOptions full_opt;
    full_opt.delta_threshold = 0.0;
    ExposureEvaluator delta_eval(shots, psf, delta_opt);
    ExposureEvaluator full_eval(shots, psf, full_opt);

    std::vector<double> doses(shots.size(), 1.0);
    for (int step = 0; step < 8; ++step) {
      doses = perturb_subset(doses, island, step);
      delta_eval.set_doses(doses);
      full_eval.set_doses(doses);
      const std::vector<double> a = delta_eval.exposures_at_centroids();
      const std::vector<double> b = full_eval.exposures_at_centroids();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-12) << "step " << step << " shot " << i;
      }
      // Off-centroid probes around the island reach map pixels no shot
      // samples: a patch that misses part of the kernel's reach shows here.
      for (double y = -10000.0; y <= 30000.0; y += 1250.0) {
        for (double x = 22000.0; x <= 60000.0; x += 500.0) {
          EXPECT_NEAR(delta_eval.exposure_at(x, y), full_eval.exposure_at(x, y), 1e-12)
              << "step " << step << " at " << x << "," << y;
        }
      }
    }
    EXPECT_GT(delta_eval.blur_perf().windowed_blurs, 0);
    EXPECT_GT(delta_eval.blur_perf().windowed_blur_ms, 0.0);
    EXPECT_LE(delta_eval.blur_perf().windowed_blur_ms,
              delta_eval.blur_perf().blur_ms);
    EXPECT_EQ(full_eval.blur_perf().windowed_blurs, 0);
  }
}

TEST(DeltaPath, WindowedBlurBitIdenticalAcrossThreadCounts) {
  const ShotList shots = pad_and_island();
  const std::vector<std::size_t> island = island_indices(shots);
  for (const Psf& psf : map_layout_psfs()) {
    SCOPED_TRACE(psf.terms().size() == 2 ? "double Gaussian" : "triple Gaussian");
    std::vector<std::vector<double>> sweeps;
    for (const int threads : {1, 4}) {
      ExposureOptions opt;
      opt.delta_threshold = 1e-15;
      opt.threads = threads;
      ExposureEvaluator eval(shots, psf, opt);
      std::vector<double> doses(shots.size(), 1.0);
      std::vector<double> last;
      for (int step = 0; step < 6; ++step) {
        doses = perturb_subset(doses, island, step);
        eval.set_doses(doses);
        last = eval.exposures_at_centroids();
      }
      EXPECT_GT(eval.blur_perf().windowed_blurs, 0) << threads << " threads";
      sweeps.push_back(std::move(last));
    }
    ASSERT_EQ(sweeps[0].size(), sweeps[1].size());
    for (std::size_t i = 0; i < sweeps[0].size(); ++i) {
      EXPECT_EQ(sweeps[0][i], sweeps[1][i]) << "shot " << i;
    }
  }
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
  for (const Psf& psf : map_layout_psfs()) {
    SCOPED_TRACE(psf.terms().size() == 2 ? "double Gaussian" : "triple Gaussian");
    ExposureEvaluator split(shots, na, psf);

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

TEST(DosePaths, SetDosesWithMovedGhostsIsBitwiseTheFreshEvaluator) {
  // Active-only delta scatters first, then set_doses moving ghost doses as
  // well: the background can only be refreshed by the full gather, so the
  // result must equal a fresh evaluator bit for bit.
  const ShotList shots = pad_and_island();
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ExposureOptions opt;
  opt.delta_threshold = 1e-15;
  ExposureEvaluator split(shots, na, psf, opt);

  std::vector<double> act(na, 1.0);
  for (int step = 0; step < 3; ++step) {
    act = perturb(act, step, 2, 10);
    split.set_active_doses(act);
    (void)split.exposures_at_centroids();  // keep the short cache in play
  }
  ASSERT_GT(split.blur_perf().delta_refreshes, 0);

  std::vector<double> all = act;
  for (std::size_t k = na; k < shots.size(); ++k)
    all.push_back(k % 3 == 0 ? 1.0 + 0.01 * static_cast<double>(k % 7) : 1.0);
  const int delta0 = split.blur_perf().delta_refreshes;
  split.set_doses(all);
  EXPECT_EQ(split.blur_perf().delta_refreshes, delta0);
  for (std::size_t i = 0; i < shots.size(); ++i)
    EXPECT_EQ(split.shots()[i].dose, all[i]) << "shot " << i;

  ShotList fresh_shots = shots;
  for (std::size_t i = 0; i < shots.size(); ++i) fresh_shots[i].dose = all[i];
  ExposureEvaluator fresh(fresh_shots, na, psf, opt);
  const std::vector<double> a = split.exposures_at_centroids();
  const std::vector<double> b = fresh.exposures_at_centroids();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "shot " << i;
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
  PecOptions oracle_opt = opt;
  oracle_opt.exposure.delta_threshold = 0.0;
  oracle_opt.exposure.fast_erf = false;
  const PecResult oracle = correct_proximity(shots, psf, oracle_opt);
  EXPECT_LT(with_delta.final_max_error, opt.tolerance);
  EXPECT_LT(oracle.final_max_error, opt.tolerance);
  // Same contract, nearly the same doses: deviations bounded by the update
  // schedule's freeze threshold, far below the tolerance.
  for (std::size_t i = 0; i < shots.size(); ++i) {
    EXPECT_NEAR(with_delta.shots[i].dose, oracle.shots[i].dose,
                2.0 * opt.tolerance * oracle.shots[i].dose)
        << "shot " << i;
  }
}

}  // namespace
}  // namespace ebl
