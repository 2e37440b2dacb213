// Proximity-effect correction by dose modulation.
//
// Two correctors:
//  - correct_proximity: the self-consistent iterative scheme (per-shot dose,
//    Jacobi iteration on representative points). This is the accurate,
//    shape-based method. It has one solve path, the shard driver of
//    src/pec/sharded.h: by default one shard covers the whole pattern;
//    PecOptions::shard_size tiles it, and worker_count / worker_hosts run
//    the shards out of process.
//  - density_pec: the cheap geometry-density method: dose from the local
//    backscatter-blurred pattern density via the closed-form equalization
//    formula d(u) = (1 + 2 eta) / (1 + 2 eta u). One raster, no iteration.
//
// Both can quantize the continuous dose into a fixed number of machine dose
// classes.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "fracture/shot.h"
#include "pec/exposure.h"
#include "pec/psf.h"

namespace ebl {

struct PecOptions {
  int max_iterations = 10;

  /// Stop when the max relative exposure error at representative points
  /// drops below this.
  double tolerance = 0.01;

  /// Target in-pattern exposure (relative to unit-dose infinite pattern).
  double target = 1.0;

  /// Dose clamp (machines have a finite dose range); min_dose <= max_dose.
  double min_dose = 0.1;
  double max_dose = 8.0;

  /// If > 0, final doses snap to this many discrete classes spanning
  /// [min observed, max observed] (machine dose-class granularity).
  int dose_classes = 0;

  /// Side of the square PEC shards in dbu (src/pec/sharded.h). 0 (the
  /// default) lays out one shard over the whole pattern: one evaluator, one
  /// Jacobi loop, no halos and no exchange rounds — unless workers are
  /// asked for (worker_count / worker_hosts), where 0 means
  /// default_shard_size. When > 0, per-shard memory is O(shard), shards run
  /// concurrently, and patterns beyond one evaluator's reach (10M+ shots,
  /// >2^31-dbu extents) become correctable. Pick a multiple of the widest
  /// PSF sigma — default_shard_size(psf) gives a good value.
  Coord shard_size = 0;

  /// How many per-shard evaluators may stay resident across halo-exchange
  /// rounds, per ShardPool (src/pec/sharded.h) — the driver's own pool and,
  /// in a distributed solve, each worker's. A resident shard re-enters a
  /// round through an exact dose refresh (ExposureEvaluator::reset_doses: a
  /// full gather and blur, or nothing when no dose moved) that reuses its
  /// neighbor grid, band binning, slanted-shot footprints, term maps and
  /// kernel taps — the geometry-only construction work — instead of
  /// rebuilding them. Over budget, the least-recently-run shards fall back
  /// to transient mode (evict-LRU); because the refresh is exact, residency
  /// never changes a bit of the result, only the wall clock. 0 disables the
  /// pool (every shard run rebuilds its evaluator).
  int resident_shard_budget = 64;

  /// When > 0, shard jobs of every halo-exchange round are farmed over this
  /// many spawned loopback daemons (`worker_path --listen 127.0.0.1:0`,
  /// launched before the density warm start, reached over TCP like
  /// worker_hosts daemons from the first sweep on, and stopped and reaped
  /// when the solve ends) instead of the in-process thread pool. With shard_size
  /// still 0 the solve tiles at default_shard_size. Jobs and results cross
  /// in the versioned binary wire format (src/pec/wire.h, bit-exact doses),
  /// shards stick to workers so the workers' resident evaluator pools keep
  /// hitting, and results are bitwise-identical to the in-process solve at
  /// the same shard layout. More workers than shards is clamped to the
  /// shard count.
  int worker_count = 0;

  /// Worker binary for worker_count > 0. Empty (the default) resolves via
  /// default_pec_worker_path(): $EBL_PEC_WORKER, else "pec_worker" next to
  /// the current executable.
  std::string worker_path;

  /// PEC-as-a-service: comma-separated "host:port" addresses of already
  /// running `pec_worker --listen` daemons. Non-empty connects to these
  /// instead of spawning daemons — one supervisor slot per address (a
  /// daemon serves sessions sequentially, so never point two slots at the
  /// same daemon; worker_count is ignored in this mode). Each connection
  /// opens with a ping the daemon must answer; every job carries the driver
  /// session's tag, so a daemon keeps its evaluator pool warm across
  /// reconnects, and a job re-sent after a dropped connection is solved
  /// again to the same bits. Connect/heartbeat deadlines come from
  /// $EBL_CONNECT_TIMEOUT_MS (default 5000) and $EBL_HEARTBEAT_MS (default
  /// 2000); a refused or dropped connection consumes the slot's
  /// worker_max_restarts budget exactly like a crashed spawned daemon, after
  /// which jobs reassign to live slots or degrade to in-process — and every
  /// path stays bitwise-identical to the in-process engine.
  std::string worker_hosts;

  /// Distributed solves only: base per-job deadline in milliseconds. A worker
  /// that has not produced a job's result frame this long after the job was
  /// sent (scaled up for large shards) is declared hung, killed, and its
  /// unfinished jobs are reassigned — the supervisor's only defense against a
  /// worker that wedges without exiting. 0 (the default) resolves to
  /// $EBL_WORKER_TIMEOUT_MS, else 60000; < 0 disables deadlines entirely
  /// (crashed workers are still detected via EOF on their session).
  double worker_timeout_ms = 0.0;

  /// Distributed solves only: how many times each worker slot may be
  /// respawned (a spawned daemon) or reconnected (a worker_hosts daemon)
  /// after a crash, hang, or corrupt result frame before the slot
  /// is abandoned. When every slot is dead and out of budget, the round
  /// degrades to solving the remaining jobs in-process (bitwise-identical,
  /// just slower) instead of failing the solve.
  int worker_max_restarts = 2;

  ExposureOptions exposure;
};

struct PecResult {
  ShotList shots;                        ///< same geometry, corrected doses
  /// One shard: max |E/target - 1| per Jacobi iteration, front() at the
  /// input doses. Several shards: the cross-shard error entering each
  /// exchange round. Either way, when the last sweep did not measure the
  /// delivered doses (quantized doses, or shards left unsettled) the error
  /// at those doses is appended, so back() == final_max_error.
  std::vector<double> max_error_history;
  /// Jacobi update steps run: summed over rounds, each round counting its
  /// busiest shard.
  int iterations = 0;
  double final_max_error = 0.0;
  int shards = 0;  ///< shard count (1 = one shard over the whole pattern)
  int rounds = 0;  ///< correction rounds run (incl. the first pass)

  /// Wall-clock of each correction round, in round order (the pipeline
  /// surfaces these as pec_round_N stage times).
  std::vector<double> round_ms;
  /// Wall-clock of the final measurement-only pass; < 0 when none ran
  /// (every shard's last sweep already measured the delivered doses).
  double measure_ms = -1.0;
  int resident_shards = 0;  ///< evaluators resident when the solve finished
  int shard_evictions = 0;  ///< resident evaluators dropped to fit the budget
  /// Worker slots the distributed solve ran on (0 = in-process). The
  /// resident/eviction counters above then add the workers' own pools to
  /// the driver's (which only a degraded solve fills).
  int workers = 0;

  /// Distributed: worker slots respawned or reconnected after a crash, hang,
  /// or corrupt result frame. 0 on a fault-free run.
  int worker_restarts = 0;
  /// Distributed: shard jobs that had to be re-enqueued (to a respawned or
  /// surviving worker, or solved in-process) because their worker failed.
  /// Recovery replays the identical job against the identical round snapshot,
  /// so reassignment never changes a bit of the result.
  int reassigned_jobs = 0;
  /// Distributed: true when restart budgets ran out and at least part of a
  /// round fell back to solving jobs in-process.
  bool degraded_to_inprocess = false;

  /// Aggregated long-range refresh accounting across every evaluator the
  /// solve used (all shard evaluators summed in slot order): refresh and
  /// skip counts and the band sweep and blur times.
  BlurPerf blur;
};

/// Iterative self-consistent dose correction. The exposure at each shot's
/// centroid is driven to options.target by multiplicative Jacobi updates:
///   d_i <- clamp(d_i * target / E_i, min_dose, max_dose)
/// The solve runs on the shard driver (src/pec/sharded.h): one shard over
/// the whole pattern by default; with options.shard_size > 0 the pattern is
/// tiled into square shards corrected concurrently with frozen-dose halo
/// ghosts and a few halo-exchange rounds.
PecResult correct_proximity(const ShotList& shots, const Psf& psf,
                            const PecOptions& options = {});

/// The per-iteration freeze bar of the update schedule: shots whose
/// relative error is below it are left untouched this iteration — loose
/// while the sweep error is large, tightening to a quarter of the stopping
/// tolerance at convergence (so frozen shots cannot pile up just under the
/// tolerance and dominate the converged error).
inline double jacobi_update_tolerance(double tolerance, double max_err) {
  return std::max(0.25 * tolerance, 0.1 * max_err);
}

/// One Jacobi dose update step of the shard solver (solve_shard_job).
inline double jacobi_updated_dose(double dose, double exposure, double update_tol,
                                  double target, double min_dose,
                                  double max_dose) {
  if (update_tol > 0 && std::abs(exposure / target - 1.0) < update_tol) {
    return dose;  // frozen this iteration (see jacobi_update_tolerance)
  }
  const double ratio = target / std::max(exposure, 1e-9);
  return std::clamp(dose * ratio, min_dose, max_dose);
}

/// Geometry-density PEC: one blurred-coverage raster at the backscatter
/// range; each shot's dose is d(u) = (1 + 2 eta) / (1 + 2 eta u(centroid)),
/// where u is the blurred local density. @p eta is inferred from the PSF
/// (weight ratio of the longest-range term to the rest).
PecResult density_pec(const ShotList& shots, const Psf& psf,
                      const PecOptions& options = {});

/// The density formula behind density_pec and the sharded warm start: every
/// shot's coverage on one raster at the backscatter range (pixel = widest
/// sigma / 4, margin 4 sigma), one blur, then d(u) * options.target clamped
/// to [min_dose, max_dose] at each of the first @p active shots' centroids.
/// The remaining shots only contribute coverage.
std::vector<double> density_doses(const ShotList& shots, std::size_t active,
                                  const Psf& psf, const PecOptions& options);

/// Snaps doses to @p classes equally-spaced discrete values spanning the
/// observed [min, max] dose range (a machine dose table). Returns the
/// number of distinct values used. Contract details: a dose exactly on a
/// class edge ties to the higher class; classes == 1 snaps everything to
/// the range midpoint; a constant dose list is left unchanged.
int quantize_doses(ShotList& shots, int classes);

}  // namespace ebl
