// Sharded proximity-effect correction: tile the pattern, correct per shard,
// exchange halos. This is correct_proximity's one solve path.
//
// One evaluator over a whole pattern — one neighbor grid, one long-range
// base map and its term maps — costs memory and wall-clock O(whole pattern). The
// 1979 machines never worked that way: large patterns are written as a grid
// of deflection fields with stage moves between them, and correction can be
// tiled the same way.
//
// The driver partitions shots into square shards (side =
// PecOptions::shard_size, anchored at the pattern bbox corner, keyed by
// 64-bit shard indices so >2^31-dbu extents are fine). Each shard owns the
// shots whose bbox center falls inside its frame and additionally sees a
// *halo* of ghost shots from neighboring shards — every shot within
// 4 * max_sigma (the kernel truncation) of the frame. A shard solve is the
// ordinary iterative Jacobi correction over its own shots with the ghosts
// contributing exposure at frozen doses (the evaluator's active/background
// split); per-shard memory is O(shard + halo), so patterns far beyond one
// evaluator's reach fit. shard_size 0 without workers lays out one shard
// over the whole pattern: no ghosts, no density warm start, one round, and
// the shard's per-iteration errors are the solve's history.
//
// Shards run concurrently on the thread pool. Cross-shard coupling — a
// shard's correction changes the backscatter its neighbors see — is driven
// below tolerance by a small number of halo-exchange rounds: after every
// shard corrected, boundary doses are re-published and each shard re-checks
// (and, if needed, re-corrects) against the neighbors' fresh values. Rounds
// after the first start from near-converged doses and typically exit after
// one error check; a round in which no shard changed any dose certifies that
// every shard meets tolerance with its neighbors' *final* doses, and the
// loop stops early. Results are bit-identical for any thread count: each
// shard writes only its own shots' doses, and all shards of a round read the
// same published snapshot.
//
// Resident evaluators live in a ShardPool. The in-process solve and a
// distributed driver that ran out of workers run the same pooled local
// sweep; each pec_worker daemon admits its jobs through a ShardPool of its
// own. A resident evaluator re-enters a round through reset_doses, a full
// dose refresh that keeps the geometry state (neighbor grid, band binning,
// slanted-shot footprints, term maps), so residency changes the wall clock,
// never a bit.
//
// Out-of-process execution (PecOptions::worker_count > 0 or worker_hosts):
// shard solves are identical, self-contained jobs, so the driver can farm
// each round's run set over a pool of worker *processes* instead of pool
// threads. Jobs and results cross process boundaries in the versioned
// binary wire format of src/pec/wire.h (bit-exact doses), and the driver
// certifies convergence exactly as in-process — so the distributed solve is
// bitwise-identical to the in-process solve at the same shard layout.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pec/correction.h"

namespace ebl {

class ExposureEvaluator;
namespace wire {
struct ShardJob;
struct ShardResult;
}  // namespace wire

/// A good shard side for a PSF: 64x the widest sigma. Large enough that the
/// halo (4 sigma on each side) stays a modest fraction of the shard, small
/// enough that tens of shards exist on mm-scale patterns for the concurrent
/// solve to spread across cores.
Coord default_shard_size(const Psf& psf);

/// One shard solve from its wire-format job description — THE per-shard
/// solver: the local sweep and tools/pec_worker.cpp both execute shard work
/// through this single function, which is what makes remote execution
/// bitwise-identical to in-process execution by construction.
///
/// @p pool_slot: null for a transient solve. Non-null with an evaluator
/// inside = resident re-entry — the evaluator must hold this shard's
/// geometry, and every dose is reset to the job's through the exact
/// reset_doses, so the result is the transient solve's bit for bit, however
/// the evaluator was left. Non-null and empty = residency grant: the freshly
/// built evaluator is parked there for the next entry.
wire::ShardResult solve_shard_job(const wire::ShardJob& job,
                                  std::unique_ptr<ExposureEvaluator>* pool_slot);

/// Resident shard evaluators, keyed by shard key, up to a budget of
/// evaluators. The in-process sweep plans each round's run set with one;
/// pec_worker admits every job through one as a batch of one.
///
/// Residency for a batch is planned serially, before the batch runs, so the
/// pool never depends on thread scheduling: a resident shard is kept; a
/// missing one is granted a slot while the pool is under budget, else the
/// least-recently-run resident outside the batch is evicted for it (ties:
/// highest key); when every resident is in the batch, the rest run
/// transient. Since solve_shard_job re-enters exactly, none of this can
/// change a result.
class ShardPool {
 public:
  using Slot = std::unique_ptr<ExposureEvaluator>;

  /// One shard of a batch: its key and the geometry counts a resident
  /// evaluator must match. A resident whose counts differ is dropped (not
  /// counted as an eviction) and planned like a missing one.
  struct Request {
    std::uint64_t key = 0;
    std::size_t active = 0;
    std::size_t ghosts = 0;
  };

  ShardPool();
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Plans residency for @p batch (distinct keys) under @p budget resident
  /// evaluators and returns, per request, its solve_shard_job pool slot —
  /// null for a transient run. Budget <= 0 grants nothing. Slots stay valid
  /// until the next plan or clear; distinct slots may be filled concurrently.
  std::vector<Slot*> plan(const std::vector<Request>& batch, int budget);

  /// Drops every evaluator (a daemon's driver-session change).
  void clear();

  std::uint32_t resident() const;  ///< evaluators currently held
  std::uint32_t evictions() const { return evictions_; }  ///< lifetime count

 private:
  struct Entry {
    Slot eval;
    std::size_t active = 0;
    std::size_t ghosts = 0;
    std::uint64_t last_used = 0;  ///< plan tick of the last run while resident
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint32_t evictions_ = 0;
};

/// The pec_worker binary the distributed driver spawns when
/// PecOptions::worker_path is empty: $EBL_PEC_WORKER when set, else
/// "pec_worker" next to the current executable (where the build puts it).
std::string default_pec_worker_path();

}  // namespace ebl
