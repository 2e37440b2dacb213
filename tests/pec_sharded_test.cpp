// Tests for the sharded PEC pipeline and the evaluator's active/background
// shot split it is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/exposure.h"
#include "pec/sharded.h"
#include "pec/wire.h"

namespace ebl {
namespace {

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

// Dense 50%-coverage checkerboard: every shot sees heavy backscatter, so
// cross-shard coupling is as strong as it gets for this PSF.
ShotList dense_grid_shots(Coord side) {
  PolygonSet s = checkerboard(Box{0, 0, side, side}, 2000);
  return fracture(s, {.max_shot_size = 2000}).shots;
}

TEST(ActiveSplit, MatchesFullEvaluatorOnActivePrefix) {
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ASSERT_GT(na, 0u);
  const ExposureEvaluator full(shots, psf);
  const ExposureEvaluator split(shots, na, psf);
  EXPECT_EQ(full.active_count(), shots.size());
  EXPECT_EQ(split.active_count(), na);

  // Background shots are accumulated through the frozen double-precision
  // coverage map while the gather rounds active coverage fractions to float,
  // so the two evaluators agree to float precision of the long-range
  // contribution.
  const std::vector<double> ef = full.exposures_at_centroids();
  const std::vector<double> es = split.exposures_at_centroids();
  ASSERT_EQ(ef.size(), shots.size());
  ASSERT_EQ(es.size(), na);
  for (std::size_t i = 0; i < na; ++i) EXPECT_NEAR(es[i], ef[i], 1e-5) << "shot " << i;
}

TEST(ActiveSplit, SetActiveDosesFreezesBackground) {
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  const std::size_t na = shots.size() / 2;
  ExposureEvaluator split(shots, na, psf);
  ExposureEvaluator full(shots, psf);

  std::vector<double> active(na);
  for (std::size_t k = 0; k < na; ++k)
    active[k] = 1.0 + 0.01 * static_cast<double>(k % 7);
  split.set_active_doses(active);

  // Background doses stayed frozen.
  for (std::size_t i = na; i < shots.size(); ++i)
    EXPECT_EQ(split.shots()[i].dose, shots[i].dose) << "ghost " << i;

  // Equivalent full update on the plain evaluator gives the same exposures
  // (float-cache vs double-map precision, see above).
  std::vector<double> all(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i)
    all[i] = i < na ? active[i] : shots[i].dose;
  full.set_active_doses(all);
  const std::vector<double> ef = full.exposures_at_centroids();
  const std::vector<double> es = split.exposures_at_centroids();
  for (std::size_t i = 0; i < na; ++i) EXPECT_NEAR(es[i], ef[i], 1e-5) << "shot " << i;
}

TEST(ShardedPec, DefaultShardSizeScalesWithWidestSigma) {
  EXPECT_EQ(default_shard_size(test_psf()), 64 * 3000);
  EXPECT_EQ(default_shard_size(Psf::single_gaussian(100.0)), 6400);
}

TEST(ShardedPec, MatchesGlobalOnShardSpanningPattern) {
  // 60 µm board over a 2x2 shard grid (shard 30 µm, halo 4 beta = 12 µm):
  // every shard boundary cuts through dense geometry.
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions opt;
  opt.max_iterations = 30;
  opt.tolerance = 1e-4;  // drive both solvers to the shared fixed point

  const PecResult global = correct_proximity(shots, psf, opt);

  PecOptions sopt = opt;
  sopt.shard_size = 30000;
  const PecResult sharded = correct_proximity(shots, psf, sopt);
  EXPECT_GE(sharded.shards, 4);
  EXPECT_GE(sharded.rounds, 1);

  // Satellite acceptance: max relative dose delta below the (default)
  // tolerance after the exchange rounds.
  ASSERT_EQ(sharded.shots.size(), global.shots.size());
  double max_rel = 0.0;
  for (std::size_t i = 0; i < global.shots.size(); ++i) {
    EXPECT_EQ(sharded.shots[i].shape, global.shots[i].shape);
    max_rel = std::max(max_rel, std::abs(sharded.shots[i].dose - global.shots[i].dose) /
                                    global.shots[i].dose);
  }
  EXPECT_LT(max_rel, PecOptions{}.tolerance);
  EXPECT_LT(sharded.final_max_error, 10.0 * opt.tolerance);
}

TEST(ShardedPec, MeetsToleranceAtEveryRepresentativePoint) {
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  PecOptions sopt;
  sopt.shard_size = 30000;
  const PecResult sharded = correct_proximity(shots, psf, sopt);

  // Authoritative check on a *global* evaluator: the sharded doses must meet
  // the same per-point error bound the global corrector guarantees (small
  // slack for the halo truncation, < 1e-6 of a term weight).
  const ExposureEvaluator eval(sharded.shots, psf);
  double max_err = 0.0;
  for (double e : eval.exposures_at_centroids())
    max_err = std::max(max_err, std::abs(e / sopt.target - 1.0));
  EXPECT_LT(max_err, sopt.tolerance + 1e-4);
  // The per-shard estimate agrees with the global measurement to raster
  // accuracy: the shard maps are anchored at shard corners, the global map
  // at the pattern corner, so the two evaluators quantize the long-range
  // field on differently-aligned grids (~pixel/sigma error, well below the
  // correction tolerance but far above the 1e-6 halo truncation).
  EXPECT_NEAR(sharded.final_max_error, max_err, 1e-3);
}

// The whole-pattern Jacobi loop, written out: one evaluator over every shot,
// the freeze schedule, and one more sweep after the last update so the
// history ends at the delivered doses.
struct JacobiReference {
  std::vector<double> doses;
  std::vector<double> history;
};

JacobiReference whole_pattern_jacobi(const ShotList& shots, const Psf& psf,
                                     const PecOptions& opt) {
  ExposureOptions eopt = opt.exposure;
  eopt.map_margin_sigmas = 0.0;
  ExposureEvaluator eval(shots, psf, eopt);
  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;
  JacobiReference ref;
  for (int iter = 0;; ++iter) {
    const std::vector<double> e = eval.exposures_at_centroids();
    double max_err = 0.0;
    for (double ei : e) max_err = std::max(max_err, std::abs(ei / opt.target - 1.0));
    ref.history.push_back(max_err);
    if (max_err < opt.tolerance || iter == opt.max_iterations) break;
    const double update_tol = jacobi_update_tolerance(opt.tolerance, max_err);
    for (std::size_t i = 0; i < doses.size(); ++i)
      doses[i] = jacobi_updated_dose(doses[i], e[i], update_tol, opt.target,
                                     opt.min_dose, opt.max_dose);
    eval.set_active_doses(doses);
  }
  for (const Shot& s : eval.shots()) ref.doses.push_back(s.dose);
  return ref;
}

TEST(ShardedPec, OneShardIsTheWholePatternJacobiLoopBitForBit) {
  // shard_size 0 and a shard larger than the pattern both lay out one shard
  // with no ghosts: the solve is the whole-pattern Jacobi loop, doses and
  // per-iteration history alike, converged or stopped at the cap. Its last
  // sweep measured the delivered doses, so no measurement pass runs.
  const ShotList shots = dense_grid_shots(20000);
  const Psf psf = test_psf();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& [max_iterations, tolerance] :
       {std::pair{6, 0.005}, std::pair{3, 1e-9}}) {
    PecOptions opt;
    opt.max_iterations = max_iterations;
    opt.tolerance = tolerance;
    const JacobiReference ref = whole_pattern_jacobi(shots, psf, opt);
    for (const Coord shard_size : {0, 1000000}) {
      SCOPED_TRACE("max_iterations " + std::to_string(max_iterations) +
                   " shard_size " + std::to_string(shard_size));
      opt.shard_size = shard_size;
      const PecResult r = correct_proximity(shots, psf, opt);
      EXPECT_EQ(r.shards, 1);
      EXPECT_EQ(r.rounds, 1);
      ASSERT_EQ(r.shots.size(), ref.doses.size());
      for (std::size_t i = 0; i < ref.doses.size(); ++i)
        EXPECT_EQ(bits(r.shots[i].dose), bits(ref.doses[i])) << "shot " << i;
      ASSERT_EQ(r.max_error_history.size(), ref.history.size());
      for (std::size_t i = 0; i < ref.history.size(); ++i)
        EXPECT_EQ(bits(r.max_error_history[i]), bits(ref.history[i])) << "sweep " << i;
      EXPECT_EQ(r.iterations, static_cast<int>(ref.history.size()) - 1);
      EXPECT_EQ(bits(r.final_max_error), bits(ref.history.back()));
      EXPECT_LT(r.measure_ms, 0.0);
    }
  }
}

TEST(ShardedPec, BitIdenticalAcrossThreadCounts) {
  const ShotList shots = dense_grid_shots(40000);
  std::vector<ShotList> corrected;
  for (const int threads : {1, 4}) {
    PecOptions opt;
    opt.max_iterations = 5;
    opt.shard_size = 20000;
    opt.exposure.threads = threads;
    corrected.push_back(correct_proximity(shots, test_psf(), opt).shots);
  }
  ASSERT_EQ(corrected[0].size(), corrected[1].size());
  for (std::size_t i = 0; i < corrected[0].size(); ++i)
    EXPECT_EQ(corrected[0][i].dose, corrected[1][i].dose) << "shot " << i;
}

TEST(ShardedPec, ResidentPoolBudgetNeverChangesTheResult) {
  // Resident re-entry is an exact dose reset, so every budget — including
  // one small enough to force evictions and transient re-runs, and 0, the
  // fully transient mode — must produce bit-identical doses and final
  // error. Quantized doses force the full measurement pass, where pooled
  // shards re-enter and transient ones rebuild.
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  const std::vector<int> budgets = {1, 2, 1000, 0};
  for (const int classes : {0, 16}) {
    std::vector<PecResult> results;
    for (const int budget : budgets) {
      PecOptions opt;
      opt.shard_size = 30000;
      opt.dose_classes = classes;
      opt.resident_shard_budget = budget;
      results.push_back(correct_proximity(shots, psf, opt));
    }
    EXPECT_GE(results[0].shards, 4);
    // The tiny budget had to run most shards transient.
    EXPECT_LE(results[0].resident_shards, 1);
    EXPECT_GE(results[2].resident_shards, results[0].resident_shards);
    EXPECT_EQ(results[3].resident_shards, 0);
    for (std::size_t v = 1; v < results.size(); ++v) {
      ASSERT_EQ(results[v].shots.size(), results[0].shots.size());
      for (std::size_t i = 0; i < results[0].shots.size(); ++i) {
        EXPECT_EQ(results[v].shots[i].dose, results[0].shots[i].dose)
            << "classes " << classes << " budget " << budgets[v] << " shot " << i;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(results[v].final_max_error),
                std::bit_cast<std::uint64_t>(results[0].final_max_error))
          << "classes " << classes << " budget " << budgets[v];
    }
  }
}

// One shard of the 60 µm board as a wire job: the shots centered in the
// lower-left 30 µm, with every other shot within the 12 µm halo as a ghost.
wire::ShardJob board_shard_job(int max_iterations, double tolerance,
                               bool allow_optimistic) {
  const ShotList shots = dense_grid_shots(60000);
  const Psf psf = test_psf();
  wire::ShardJob job;
  job.shard_key = 0;
  job.correct = true;
  job.allow_optimistic = allow_optimistic;
  job.tolerance = tolerance;
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.max_iterations = max_iterations;
  const Box frame{0, 0, 30000, 30000};
  const Box halo = frame.bloated(12000);
  for (const Shot& s : shots) {
    const Box b = s.shape.bbox();
    const Coord cx = (b.lo.x + b.hi.x) / 2;
    const Coord cy = (b.lo.y + b.hi.y) / 2;
    if (cx < frame.hi.x && cy < frame.hi.y) {
      job.active.push_back(s);
    } else if (b.lo.x < halo.hi.x && b.lo.y < halo.hi.y) {
      job.ghosts.push_back(s);
    }
  }
  return job;
}

void expect_same_result(const wire::ShardResult& got,
                        const wire::ShardResult& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.doses.size(), want.doses.size());
  for (std::size_t k = 0; k < want.doses.size(); ++k)
    EXPECT_EQ(bits(got.doses[k]), bits(want.doses[k])) << "dose " << k;
  EXPECT_EQ(got.changed, want.changed);
  ASSERT_EQ(got.errors.size(), want.errors.size());
  for (std::size_t k = 0; k < want.errors.size(); ++k)
    EXPECT_EQ(bits(got.errors[k]), bits(want.errors[k])) << "sweep " << k;
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.updated, want.updated);
  EXPECT_EQ(got.optimistic, want.optimistic);
}

TEST(ShardedPec, WarmResolveOfTheSameJobIsBitwiseTheColdSolve) {
  // A resident evaluator left at a job's *solved* doses must not leak them
  // into a second solve of the same job — the daemon's path for a replay
  // cache miss. Cut short, optimistic exit, and converged.
  struct Case {
    int max_iterations;
    double tolerance;
    bool allow_optimistic;
  };
  for (const Case c :
       {Case{1, 1e-3, false}, Case{30, 5e-3, true}, Case{30, 1e-3, false}}) {
    const wire::ShardJob job =
        board_shard_job(c.max_iterations, c.tolerance, c.allow_optimistic);
    ASSERT_GT(job.active.size(), 0u);
    ASSERT_GT(job.ghosts.size(), 0u);
    const wire::ShardResult cold = solve_shard_job(job, nullptr);
    std::unique_ptr<ExposureEvaluator> slot;
    const wire::ShardResult first = solve_shard_job(job, &slot);
    ASSERT_NE(slot, nullptr);
    const wire::ShardResult warm = solve_shard_job(job, &slot);
    SCOPED_TRACE("max_iterations " + std::to_string(c.max_iterations) +
                 " tolerance " + std::to_string(c.tolerance));
    EXPECT_EQ(cold.optimistic, c.allow_optimistic);
    EXPECT_TRUE(cold.updated);
    if (c.max_iterations > 1 && !c.allow_optimistic)
      EXPECT_LT(cold.errors.back(), c.tolerance) << "the converged case";
    expect_same_result(first, cold);
    expect_same_result(warm, cold);
  }
}

// ---- ShardPool: residency planning -------------------------------------

void fill(ShardPool::Slot* slot) {
  ASSERT_NE(slot, nullptr);
  ASSERT_EQ(*slot, nullptr) << "a granted slot starts empty";
  *slot = std::make_unique<ExposureEvaluator>(
      ShotList{Shot{{0, 100, 0, 100, 0, 100}, 1.0}}, Psf::single_gaussian(50.0));
}

std::vector<ShardPool::Request> keys(std::initializer_list<std::uint64_t> ks) {
  std::vector<ShardPool::Request> batch;
  for (const std::uint64_t k : ks) batch.push_back({k, 1, 0});
  return batch;
}

bool is_resident(ShardPool::Slot* slot) { return slot && *slot; }

TEST(ShardPool, EvictsLeastRecentlyRunWithHighestKeyTieBreak) {
  ShardPool pool;
  auto slots = pool.plan(keys({1, 2}), 2);
  fill(slots[0]);
  fill(slots[1]);
  EXPECT_EQ(pool.resident(), 2u);

  // 1 and 2 ran in the same batch: the tie goes against the higher key.
  slots = pool.plan(keys({3}), 2);
  fill(slots[0]);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_TRUE(is_resident(pool.plan(keys({1}), 2)[0]));

  // Now 3 is the least recently run.
  fill(pool.plan(keys({4}), 2)[0]);
  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_TRUE(is_resident(pool.plan(keys({1}), 2)[0]));
  EXPECT_TRUE(is_resident(pool.plan(keys({4}), 2)[0]));
  EXPECT_EQ(pool.resident(), 2u);
}

TEST(ShardPool, BudgetZeroGrantsNoSlots) {
  ShardPool pool;
  for (ShardPool::Slot* slot : pool.plan(keys({1, 2, 3}), 0))
    EXPECT_EQ(slot, nullptr);
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(pool.evictions(), 0u);
}

TEST(ShardPool, BatchLargerThanBudgetRunsTheRestTransient) {
  ShardPool pool;
  auto slots = pool.plan(keys({1, 2}), 2);
  fill(slots[0]);
  fill(slots[1]);
  // Every resident runs in this batch, so none can make room.
  slots = pool.plan(keys({1, 2, 3, 4}), 2);
  EXPECT_TRUE(is_resident(slots[0]));
  EXPECT_TRUE(is_resident(slots[1]));
  EXPECT_EQ(slots[2], nullptr);
  EXPECT_EQ(slots[3], nullptr);
  EXPECT_EQ(pool.evictions(), 0u);

  // A cold pool grants in batch order up to the budget.
  ShardPool cold;
  slots = cold.plan(keys({7, 5, 6}), 2);
  EXPECT_NE(slots[0], nullptr);
  EXPECT_NE(slots[1], nullptr);
  EXPECT_EQ(slots[2], nullptr);
}

TEST(ShardPool, GeometryCountChangeDropsTheEntry) {
  ShardPool pool;
  fill(pool.plan({{1, 10, 5}}, 4)[0]);
  EXPECT_TRUE(is_resident(pool.plan({{1, 10, 5}}, 4)[0]));
  for (const ShardPool::Request changed :
       {ShardPool::Request{1, 11, 5}, ShardPool::Request{1, 11, 6}}) {
    ShardPool::Slot* slot = pool.plan({changed}, 4)[0];
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*slot, nullptr) << "a stale evaluator must be rebuilt";
    EXPECT_EQ(pool.resident(), 0u);
    fill(slot);
  }
  EXPECT_EQ(pool.evictions(), 0u);  // a drop is not an eviction
}

TEST(ShardPool, ClearDropsEveryEvaluator) {
  ShardPool pool;
  auto slots = pool.plan(keys({1, 2}), 4);
  fill(slots[0]);
  fill(slots[1]);
  pool.clear();
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_FALSE(is_resident(pool.plan(keys({1}), 4)[0]));
}

TEST(ShardPool, BatchOfOneAdmissionMatchesPostJobSettle) {
  // The daemon's former pool: solve into the key's slot, then evict the
  // least recently used residents other than that key (ties: highest key)
  // until the pool fits the budget.
  struct SettleModel {
    std::map<std::uint64_t, std::uint64_t> last_used;  // resident keys
    std::uint64_t tick = 0;
    std::uint32_t evictions = 0;
    void admit(std::uint64_t key, std::size_t budget) {
      last_used[key] = ++tick;
      while (last_used.size() > budget) {
        auto victim = last_used.end();
        for (auto it = last_used.begin(); it != last_used.end(); ++it) {
          if (it->first == key) continue;
          if (victim == last_used.end() || it->second <= victim->second)
            victim = it;  // ascending keys: <= keeps the highest on ties
        }
        last_used.erase(victim);
        ++evictions;
      }
    }
  };
  for (const std::size_t budget : {1u, 3u, 5u}) {
    ShardPool pool;
    SettleModel model;
    std::uint64_t x = 12345;
    for (int job = 0; job < 300; ++job) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t key = (x >> 33) % 8;
      ShardPool::Slot* slot = pool.plan(keys({key}), static_cast<int>(budget))[0];
      ASSERT_NE(slot, nullptr);
      if (!*slot) fill(slot);
      model.admit(key, budget);
      ASSERT_EQ(pool.resident(), model.last_used.size())
          << "budget " << budget << " job " << job;
      ASSERT_EQ(pool.evictions(), model.evictions)
          << "budget " << budget << " job " << job;
    }
  }
}

TEST(ShardedPec, ReportsPerRoundTimings) {
  const ShotList shots = dense_grid_shots(40000);
  PecOptions opt;
  opt.shard_size = 20000;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  ASSERT_EQ(static_cast<int>(r.round_ms.size()), r.rounds);
  for (double ms : r.round_ms) EXPECT_GE(ms, 0.0);
}

TEST(ShardedPec, RespectsDoseClampAndQuantization) {
  const ShotList shots = dense_grid_shots(40000);
  PecOptions opt;
  opt.shard_size = 20000;
  opt.min_dose = 0.8;
  opt.max_dose = 1.5;
  opt.dose_classes = 8;
  const PecResult r = correct_proximity(shots, test_psf(), opt);
  std::vector<double> distinct;
  for (const Shot& s : r.shots) {
    EXPECT_GE(s.dose, 0.8);
    EXPECT_LE(s.dose, 1.5);
    if (std::find(distinct.begin(), distinct.end(), s.dose) == distinct.end())
      distinct.push_back(s.dose);
  }
  EXPECT_LE(distinct.size(), 8u);
  // Quantization moved doses after the last correction round, so the final
  // error must have been re-measured (history ends with the measured value).
  EXPECT_DOUBLE_EQ(r.max_error_history.back(), r.final_max_error);
}

}  // namespace
}  // namespace ebl
