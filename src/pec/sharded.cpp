#include "pec/sharded.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>

#include <unistd.h>

#include "geom/raster.h"
#include "pec/exposure.h"
#include "pec/supervisor.h"
#include "pec/transport.h"
#include "pec/wire.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/gridkeys.h"
#include "util/parallel.h"

namespace ebl {
namespace {

Coord64 div_floor(Coord64 a, Coord64 b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

// Halo width in widest-PSF sigmas: the kernel truncation (beyond 4 sigma a
// term contributes < ~1e-6 of its weight), so a shard solve sees everything
// a whole-pattern solve sees to that accuracy.
constexpr double kHaloSigmas = 4.0;

// Halo-exchange rounds after the first correction pass: each re-publishes
// every shard's boundary doses and re-corrects the shards whose ghosts moved.
// Rounds after the first start from near-converged doses and exit in O(1)
// iterations; a round that changes no dose certifies cross-shard convergence
// and stops early.
constexpr int kExchangeRounds = 2;

// Shard indices are relative to the pattern bbox corner — the packed-key /
// occupied-slot machinery is util/gridkeys.h, shared with the field
// partitioner. Only occupied shards (>= 1 owned shot) materialize, so
// sparse giant extents never allocate a dense shard grid.
struct ShardLayout {
  Box bbox;
  Coord64 halo = 0;
  std::size_t count = 0;  ///< occupied shards
  // CSR shard -> owned shot indices (ascending within a shard) and
  // shard -> halo ghost indices, both filled in shot-index order so every
  // list is deterministic.
  std::vector<std::uint32_t> active_start, active_items;
  std::vector<std::uint32_t> ghost_start, ghost_items;
};

// @p shard == 0 lays out one shard that covers the whole pattern.
ShardLayout build_layout(const ShotList& shots, Coord64 shard, double halo_dbu,
                         int threads) {
  ShardLayout L;
  L.halo = static_cast<Coord64>(std::ceil(halo_dbu));
  for (const Shot& s : shots) L.bbox += s.shape.bbox();
  if (shard == 0) shard = std::max(L.bbox.width(), L.bbox.height()) + 1;
  const Coord64 nsx = L.bbox.width() / shard + 1;
  const Coord64 nsy = L.bbox.height() / shard + 1;

  // Owner shard of every shot: the shard containing its bbox center (center
  // coordinates never leave the bbox, so relative indices are >= 0).
  const std::size_t n = shots.size();
  std::vector<std::uint64_t> owner(n);
  parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const Box sb = shots[i].shape.bbox();
          const Coord64 cx = (Coord64(sb.lo.x) + sb.hi.x) / 2;
          const Coord64 cy = (Coord64(sb.lo.y) + sb.hi.y) / 2;
          owner[i] =
              pack_grid_key((cx - L.bbox.lo.x) / shard, (cy - L.bbox.lo.y) / shard);
        }
      },
      threads);

  const GridKeySlots slots(owner);
  const std::size_t ns = slots.size();
  L.count = ns;

  // Each owner key resolves to its slot once; the CSR count and fill passes
  // run on the resolved slots, in shot-index order.
  std::vector<std::uint32_t> owner_slot(n);
  parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          owner_slot[i] = static_cast<std::uint32_t>(slots.slot_of(owner[i]));
      },
      threads);

  L.active_start.assign(ns + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++L.active_start[owner_slot[i] + 1];
  for (std::size_t s = 1; s <= ns; ++s) L.active_start[s] += L.active_start[s - 1];
  L.active_items.resize(n);
  {
    std::vector<std::uint32_t> cursor(L.active_start.begin(), L.active_start.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) L.active_items[cursor[owner_slot[i]]++] = i;
  }

  // Ghost incidences: a shot joins every *other* occupied shard whose frame
  // its halo-bloated bbox overlaps. One pass over the geometry collects
  // (slot, shot) pairs — interior shots (bloated bbox inside the owner
  // shard) take the early-out, boundary shots touch at most a handful of
  // neighbor shards — then a count/prefix/fill turns them into the CSR.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ghost_inc;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Box sb = shots[i].shape.bbox();
    const Coord64 sx0 = std::clamp<Coord64>(
        div_floor(Coord64(sb.lo.x) - L.halo - L.bbox.lo.x, shard), 0, nsx - 1);
    const Coord64 sx1 = std::clamp<Coord64>(
        div_floor(Coord64(sb.hi.x) + L.halo - L.bbox.lo.x, shard), 0, nsx - 1);
    const Coord64 sy0 = std::clamp<Coord64>(
        div_floor(Coord64(sb.lo.y) - L.halo - L.bbox.lo.y, shard), 0, nsy - 1);
    const Coord64 sy1 = std::clamp<Coord64>(
        div_floor(Coord64(sb.hi.y) + L.halo - L.bbox.lo.y, shard), 0, nsy - 1);
    if (sx0 == sx1 && sy0 == sy1) continue;  // interior: owner shard only
    for (Coord64 sy = sy0; sy <= sy1; ++sy) {
      for (Coord64 sx = sx0; sx <= sx1; ++sx) {
        const std::uint64_t key = pack_grid_key(sx, sy);
        if (key == owner[i]) continue;
        const std::size_t slot = slots.slot_of(key);
        if (slot < ns)
          ghost_inc.emplace_back(static_cast<std::uint32_t>(slot), i);
      }
    }
  }
  L.ghost_start.assign(ns + 1, 0);
  for (const auto& [slot, shot] : ghost_inc) ++L.ghost_start[slot + 1];
  for (std::size_t s = 1; s <= ns; ++s) L.ghost_start[s] += L.ghost_start[s - 1];
  L.ghost_items.resize(ghost_inc.size());
  {
    std::vector<std::uint32_t> cursor(L.ghost_start.begin(), L.ghost_start.end() - 1);
    for (const auto& [slot, shot] : ghost_inc) L.ghost_items[cursor[slot]++] = shot;
  }
  return L;
}

struct ShardOutcome {
  std::vector<double> errors;  ///< max error of every sweep (wire::ShardResult)
  int iterations = 0;        ///< Jacobi update steps run this round
  bool updated = false;      ///< any dose actually changed this round
  bool optimistic = false;   ///< exited after an update it did not re-verify
  BlurPerf perf;             ///< this run's evaluator refresh accounting
};

BlurPerf perf_since(const BlurPerf& now, const BlurPerf& then) {
  BlurPerf d = now;
  d.accumulate_ms -= then.accumulate_ms;
  d.blur_ms -= then.blur_ms;
  d.refreshes -= then.refreshes;
  d.skipped_refreshes -= then.skipped_refreshes;
  return d;
}

// Per-shard optimistic exit: with exchange rounds still ahead, a shard whose
// error is already within this factor of tolerance publishes its next Jacobi
// update *without* paying the refresh + sweep to verify it — the following
// round (which re-runs the shard, its own doses being unverified) or the
// final measurement pass performs the check. Convergence certification is
// untouched: only a full round in which no shard changes a dose settles the
// solve, and such a round has verified every shard against the final doses.
constexpr double kOptimisticExitFactor = 20.0;

// Shards solve past the caller's tolerance so that cross-shard residuals
// (the halo doses a shard could not see moving) do not push the globally
// measured error back over it, and so the sharded dose field stays within
// the tolerance of a whole-pattern solve in dose space. A single-shard
// layout has no such residual and keeps the exact tolerance.
constexpr double kShardToleranceSlack = 0.5;

// The wire-format job for one shard of one round — the single description
// every execution path consumes (the local sweep via solve_shard_job
// directly, a pec_worker daemon via the same function). Active and ghost
// lists carry the published doses of the round snapshot.
wire::ShardJob make_job(const ShotList& shots, const Psf& psf,
                        const PecOptions& options, int threads,
                        const ShardLayout& L, std::size_t slot,
                        const std::vector<double>& doses, bool correct,
                        double tol, bool allow_optimistic,
                        std::uint64_t session_id) {
  const std::uint32_t* active = L.active_items.data() + L.active_start[slot];
  const std::size_t na = L.active_start[slot + 1] - L.active_start[slot];
  const std::uint32_t* ghosts = L.ghost_items.data() + L.ghost_start[slot];
  const std::size_t ng = L.ghost_start[slot + 1] - L.ghost_start[slot];

  wire::ShardJob job;
  job.session_id = session_id;
  job.shard_key = slot;  // slots are dense and stable for the whole session
  job.correct = correct;
  job.allow_optimistic = allow_optimistic;
  job.tolerance = tol;
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.max_iterations = options.max_iterations;
  job.target = options.target;
  job.min_dose = options.min_dose;
  job.max_dose = options.max_dose;
  job.resident_shard_budget = options.resident_shard_budget;
  job.exposure = options.exposure;
  job.exposure.threads = threads;
  job.active.reserve(na);
  for (std::size_t k = 0; k < na; ++k)
    job.active.push_back(Shot{shots[active[k]].shape, doses[active[k]]});
  job.ghosts.reserve(ng);
  for (std::size_t k = 0; k < ng; ++k)
    job.ghosts.push_back(Shot{shots[ghosts[k]].shape, doses[ghosts[k]]});
  return job;
}

// Folds one shard's result into the round state. Each slot writes only its
// own shots' doses/flags, so concurrent application over distinct slots is
// deterministic.
ShardOutcome apply_result(const ShardLayout& L, std::size_t slot,
                          const wire::ShardResult& r, std::vector<double>* next,
                          std::vector<std::uint8_t>* changed) {
  const std::uint32_t* active = L.active_items.data() + L.active_start[slot];
  const std::size_t na = L.active_start[slot + 1] - L.active_start[slot];
  ensures(r.doses.size() == na && r.changed.size() == na,
          "sharded: shard result size mismatch");
  ShardOutcome out;
  out.errors = r.errors;
  out.iterations = r.iterations;
  out.updated = r.updated;
  out.optimistic = r.optimistic;
  out.perf = r.perf;
  for (std::size_t k = 0; k < na; ++k) {
    if (next) (*next)[active[k]] = r.doses[k];
    if (changed && r.changed[k]) (*changed)[active[k]] = 1;
  }
  return out;
}

// Density-formula warm start: every shot's initial dose from density_doses
// over its shard + halo (O(shard) memory; the halo is the kernel truncation,
// so the local density is the global one to 1e-6). Ghosts then enter round 1
// near their final doses instead of at the raw input ones. Each shard writes
// only its own shots' doses, so the sweep is deterministic for any thread
// count.
void density_warm_start(const ShotList& shots, const Psf& psf,
                        const PecOptions& options, const ShardLayout& L,
                        std::vector<double>* doses) {
  parallel_for(
      L.count,
      [&](std::size_t s0, std::size_t s1) {
        for (std::size_t slot = s0; slot < s1; ++slot) {
          const std::uint32_t* active = L.active_items.data() + L.active_start[slot];
          const std::size_t na = L.active_start[slot + 1] - L.active_start[slot];
          const std::uint32_t* ghosts = L.ghost_items.data() + L.ghost_start[slot];
          const std::size_t ng = L.ghost_start[slot + 1] - L.ghost_start[slot];
          ShotList local;
          local.reserve(na + ng);
          for (std::size_t k = 0; k < na; ++k) local.push_back(shots[active[k]]);
          for (std::size_t k = 0; k < ng; ++k) local.push_back(shots[ghosts[k]]);
          const std::vector<double> d = density_doses(local, na, psf, options);
          for (std::size_t k = 0; k < na; ++k) (*doses)[active[k]] = d[k];
        }
      },
      options.exposure.threads);
}

// One round sweep (or the final measurement pass) over a run set of shard
// slots.
struct SweepCtx {
  bool correct = true;
  double tol = 0.0;
  bool allow_optimistic = false;
  const std::vector<double>* doses = nullptr;
  std::vector<double>* next = nullptr;            ///< null in measurement pass
  std::vector<std::uint8_t>* changed = nullptr;   ///< null in measurement pass
  std::vector<ShardOutcome>* outcomes = nullptr;  ///< ran slots only
};

// Runs each sweep's shards. On the driver's own threads there is one sweep,
// solve_locally: plan the run set's residency on the driver's ShardPool,
// then solve the shards concurrently on the thread pool. With workers
// (worker_count > 0 or worker_hosts) a sweep goes instead to a supervised
// pool of pec_worker daemon sessions (pec/supervisor.h + pec/transport.h) —
// worker_count daemons spawned on loopback, or daemons already running
// elsewhere (PEC as a service) — and the supervisor hands whatever it
// cannot place once every worker is gone back to solve_locally. Shards
// stick to workers (slot mod W) so each daemon's own ShardPool keeps hitting
// across halo-exchange rounds. The supervisor owns liveness: per-job
// deadlines, crash/disconnect detection, bounded restart/reconnect, and
// reassignment of a failed worker's jobs within the round. Recovery never
// changes a bit: every path runs the identical pure job through
// solve_shard_job, and results land in disjoint per-slot cells regardless
// of which worker (or no worker) produced them.
class ShardExecutor {
 public:
  ShardExecutor(const ShotList& shots, const Psf& psf, const PecOptions& options,
                const ShardLayout& L)
      : shots_(shots), psf_(psf), options_(options), L_(L),
        job_threads_(options.exposure.threads) {
    if (options.worker_count > 0 || !options.worker_hosts.empty()) start_workers();
  }

  ~ShardExecutor() {
    // Error-path teardown; finish() already shut the workers down on success.
    if (supervisor_) supervisor_->terminate_all();
  }

  void sweep(const SweepCtx& ctx, const std::vector<std::size_t>& run) {
    if (run.empty()) return;
    if (!supervisor_) {
      solve_locally(ctx, run);
      return;
    }
    supervisor_->run_batch(
        run.size(),
        // Sticky deterministic assignment: shard slot -> worker slot % W
        // (the supervisor redeals jobs of dead slots).
        [&](std::size_t i) { return run[i]; },
        // Jobs are pure functions of the round-start snapshot, so a retry
        // rebuilds the identical bytes — which is why recovery is bitwise
        // invisible.
        [&](std::size_t i) { return job(ctx, run[i]); },
        // Results apply into per-slot cells (disjoint across concurrent
        // readers, so no synchronization). A wrong-shard result throws,
        // which the supervisor treats as a worker fault.
        [&](std::size_t i, int w, const wire::ShardResult& r) {
          const std::size_t s = run[i];
          if (r.shard_key != s)
            throw DataError("sharded PEC: result for the wrong shard");
          (*ctx.outcomes)[s] = apply_result(L_, s, r, ctx.next, ctx.changed);
          worker_resident_[static_cast<std::size_t>(w)] = r.pool_resident;
          worker_evictions_[static_cast<std::size_t>(w)] = r.pool_evictions;
        },
        // Out of workers: the rest of the round runs here.
        [&](const std::vector<std::size_t>& jobs) {
          std::vector<std::size_t> slots;
          slots.reserve(jobs.size());
          for (const std::size_t i : jobs) slots.push_back(run[i]);
          solve_locally(ctx, slots);
        });
  }

  // Fills the execution-specific PecResult fields (residency, evictions,
  // workers) and shuts the workers down. Called once, on success.
  void finish(PecResult* result) {
    result->resident_shards = static_cast<int>(pool_.resident());
    result->shard_evictions = static_cast<int>(pool_.evictions());
    if (!supervisor_) return;
    result->workers = workers_n_;
    for (const std::uint32_t r : worker_resident_)
      result->resident_shards += static_cast<int>(r);
    for (const std::uint32_t e : worker_evictions_)
      result->shard_evictions += static_cast<int>(e);
    const SupervisorStats& st = supervisor_->stats();
    result->worker_restarts = st.restarts;
    result->reassigned_jobs = st.reassigned_jobs;
    result->degraded_to_inprocess = st.degraded_to_inprocess;
    // Orderly shutdown. Every applied result was CRC-verified on arrival, so
    // a worker that exits dirty *after* its last result is a diagnostic (the
    // supervisor logs it), not a reason to fail a finished solve.
    supervisor_->shutdown();
    supervisor_.reset();
  }

 private:
  wire::ShardJob job(const SweepCtx& ctx, std::size_t slot) const {
    return make_job(shots_, psf_, options_, job_threads_, L_, slot, *ctx.doses,
                    ctx.correct, ctx.tol, ctx.allow_optimistic, session_);
  }

  // The one local sweep: residency for the whole run set is planned before
  // any shard runs, then each shard solves into its own slot.
  void solve_locally(const SweepCtx& ctx, const std::vector<std::size_t>& slots) {
    std::vector<ShardPool::Request> batch;
    batch.reserve(slots.size());
    for (const std::size_t s : slots) {
      batch.push_back({s, L_.active_start[s + 1] - L_.active_start[s],
                       L_.ghost_start[s + 1] - L_.ghost_start[s]});
    }
    const std::vector<ShardPool::Slot*> resident =
        pool_.plan(batch, options_.resident_shard_budget);
    parallel_for(
        slots.size(),
        [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            const std::size_t s = slots[i];
            (*ctx.outcomes)[s] = apply_result(
                L_, s, solve_shard_job(job(ctx, s), resident[i]), ctx.next,
                ctx.changed);
          }
        },
        options_.exposure.threads);
  }

  void start_workers() {
    // One supervisor slot per worker_hosts address (a daemon serves sessions
    // sequentially, so more slots than daemons would serialize, and
    // worker_count is ignored), else worker_count spawned daemons; clamped
    // to the shard count either way.
    std::vector<net::HostPort> hosts;
    const std::string& list = options_.worker_hosts;
    for (std::size_t start = 0; start < list.size();) {
      std::size_t end = list.find(',', start);
      if (end == std::string::npos) end = list.size();
      if (end > start)
        hosts.push_back(net::parse_host_port(list.substr(start, end - start)));
      start = end + 1;
    }
    std::string path;
    if (!list.empty()) {
      if (hosts.empty())
        throw DataError("sharded PEC: worker_hosts lists no addresses");
    } else {
      path = options_.worker_path.empty() ? default_pec_worker_path()
                                          : options_.worker_path;
      if (::access(path.c_str(), X_OK) != 0)
        throw DataError("sharded PEC: pec_worker binary not executable: " + path);
    }
    const int wanted = hosts.empty() ? options_.worker_count
                                     : static_cast<int>(hosts.size());
    workers_n_ = std::max(1, std::min<int>(wanted, static_cast<int>(L_.count)));
    if (!hosts.empty()) hosts.resize(static_cast<std::size_t>(workers_n_));

    // One driver process + N workers share the machine: each worker gets an
    // equal slice of the resolved thread budget (>= 1). Thread count never
    // changes results, only scheduling.
    job_threads_ =
        std::max(1, resolve_threads(options_.exposure.threads) / workers_n_);

    // Session tag: workers drop stale resident evaluators if a long-lived
    // daemon ever sees jobs from two solves, so the tag must be unique
    // across driver processes. Every job carries it, so jobs re-sent after
    // a reconnect find a remote daemon's pool still warm.
    static std::atomic<std::uint64_t> counter{0};
    session_ = (static_cast<std::uint64_t>(::getpid()) << 32) | ++counter;

    SupervisorConfig cfg;
    cfg.factory = make_session_factory(std::move(hosts), std::move(path));
    cfg.workers = workers_n_;
    cfg.timeout_ms = options_.worker_timeout_ms;
    cfg.max_restarts = options_.worker_max_restarts;
    supervisor_ = std::make_unique<WorkerSupervisor>(std::move(cfg));
    worker_resident_.assign(static_cast<std::size_t>(workers_n_), 0);
    worker_evictions_.assign(static_cast<std::size_t>(workers_n_), 0);
  }

  const ShotList& shots_;
  const Psf& psf_;
  const PecOptions& options_;
  const ShardLayout& L_;
  int job_threads_;         ///< threads as put in jobs (per-worker share)
  ShardPool pool_;          ///< the driver's own resident evaluators
  std::uint64_t session_ = 0;
  int workers_n_ = 0;
  std::unique_ptr<WorkerSupervisor> supervisor_;  ///< null: local only
  std::vector<std::uint32_t> worker_resident_;
  std::vector<std::uint32_t> worker_evictions_;
};

// True when any *ghost* dose the shard sees carries a change flag from the
// previous round. Own-dose changes never dirty a shard: only the shard
// itself writes them, and its exit error was measured after its last write.
// Clean shards skip the round — nothing they evaluate against moved, so the
// stored error is still exact — which is what makes late exchange rounds
// cost only the remaining boundary activity.
bool ghosts_dirty(const ShardLayout& L, std::size_t slot,
                  const std::vector<std::uint8_t>& flags) {
  for (std::uint32_t k = L.ghost_start[slot]; k < L.ghost_start[slot + 1]; ++k)
    if (flags[L.ghost_items[k]]) return true;
  return false;
}

}  // namespace

wire::ShardResult solve_shard_job(const wire::ShardJob& job,
                                  std::unique_ptr<ExposureEvaluator>* pool_slot) {
  const auto t0 = std::chrono::steady_clock::now();
  const Psf psf = Psf::from_terms(job.psf_terms);
  const std::size_t na = job.active.size();
  const std::size_t ng = job.ghosts.size();
  expects(na > 0, "solve_shard_job: shard without active shots");

  ExposureEvaluator* eval = nullptr;
  std::unique_ptr<ExposureEvaluator> transient;
  BlurPerf perf0;
  if (pool_slot && *pool_slot) {
    // Resident re-entry: reuse the geometry caches and reset every dose to
    // the job's. reset_doses re-gathers every dose in full unless none moved,
    // so any entry — a few ghosts moved, an optimistic exit, quantized
    // doses, the same job solved again — lands bit-identical to a fresh
    // evaluator.
    eval = pool_slot->get();
    perf0 = eval->blur_perf();
    std::vector<double> all(na + ng);
    for (std::size_t k = 0; k < na; ++k) all[k] = job.active[k].dose;
    for (std::size_t k = 0; k < ng; ++k) all[na + k] = job.ghosts[k].dose;
    eval->reset_doses(all);
  } else {
    ShotList local;
    local.reserve(na + ng);
    local.insert(local.end(), job.active.begin(), job.active.end());
    local.insert(local.end(), job.ghosts.begin(), job.ghosts.end());
    // Centroid queries never leave the shard bbox, so the local long-range
    // map drops its off-pattern sampling margin — on small shards the dead
    // border would otherwise rival the shard itself.
    ExposureOptions eopt = job.exposure;
    eopt.map_margin_sigmas = 0.0;
    transient = std::make_unique<ExposureEvaluator>(std::move(local), na, psf, eopt);
    eval = transient.get();
    if (pool_slot) *pool_slot = std::move(transient);  // granted residency
  }

  std::vector<double> d(na);
  for (std::size_t k = 0; k < na; ++k) d[k] = job.active[k].dose;

  wire::ShardResult out;
  out.shard_key = job.shard_key;
  for (int iter = 0;; ++iter) {
    const std::vector<double> e = eval->exposures_at_centroids();
    double max_err = 0.0;
    for (double ei : e) max_err = std::max(max_err, std::abs(ei / job.target - 1.0));
    out.errors.push_back(max_err);
    if (max_err < job.tolerance || !job.correct || iter >= job.max_iterations)
      break;
    const double update_tol = jacobi_update_tolerance(job.tolerance, max_err);
    for (std::size_t k = 0; k < na; ++k) {
      d[k] = jacobi_updated_dose(d[k], e[k], update_tol, job.target, job.min_dose,
                                 job.max_dose);
    }
    out.iterations = iter + 1;
    if (job.allow_optimistic && job.tolerance > 0 &&
        max_err <= kOptimisticExitFactor * job.tolerance) {
      out.optimistic = true;
      break;
    }
    eval->set_active_doses(d);
  }
  // Exact per-shot change flags: a clamped dose can survive an update step
  // unchanged, and only real changes should dirty the neighbors. Published
  // doses are the evaluator's applied ones (see the function comment) so a
  // resident evaluator whose ghosts did not move skips its re-entry
  // refresh.
  out.doses.resize(na);
  out.changed.assign(na, 0);
  for (std::size_t k = 0; k < na; ++k) {
    const double dk = out.optimistic ? d[k] : eval->shots()[k].dose;
    out.doses[k] = dk;
    if (dk != job.active[k].dose) {
      out.updated = true;
      out.changed[k] = 1;
    }
  }
  out.perf = perf_since(eval->blur_perf(), perf0);
  out.solve_ms = ms_since(t0);
  return out;
}

ShardPool::ShardPool() = default;
ShardPool::~ShardPool() = default;

std::vector<ShardPool::Slot*> ShardPool::plan(const std::vector<Request>& batch,
                                              int budget) {
  std::vector<Slot*> slots(batch.size(), nullptr);
  if (budget <= 0) return slots;
  ++tick_;
  std::vector<std::uint64_t> in_batch;
  in_batch.reserve(batch.size());
  for (const Request& r : batch) in_batch.push_back(r.key);
  std::sort(in_batch.begin(), in_batch.end());

  std::size_t resident = this->resident();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    Entry& e = entries_[r.key];
    if (e.eval && (e.active != r.active || e.ghosts != r.ghosts)) {
      e.eval.reset();  // different geometry under this key: rebuild
      --resident;
    }
    if (!e.eval) {
      while (resident >= static_cast<std::size_t>(budget)) {
        // Evict the least-recently-run resident outside the batch (ties:
        // highest key).
        Entry* victim = nullptr;
        std::uint64_t victim_key = 0;
        for (auto& [key, v] : entries_) {
          if (!v.eval || std::binary_search(in_batch.begin(), in_batch.end(), key))
            continue;
          if (!victim || v.last_used < victim->last_used ||
              (v.last_used == victim->last_used && key > victim_key)) {
            victim = &v;
            victim_key = key;
          }
        }
        if (!victim) break;
        victim->eval.reset();
        ++evictions_;
        --resident;
      }
      if (resident >= static_cast<std::size_t>(budget)) continue;  // transient
      ++resident;  // granted
    }
    e.active = r.active;
    e.ghosts = r.ghosts;
    e.last_used = tick_;
    slots[i] = &e.eval;
  }
  return slots;
}

void ShardPool::clear() { entries_.clear(); }

std::uint32_t ShardPool::resident() const {
  std::uint32_t n = 0;
  for (const auto& [key, e] : entries_) n += e.eval != nullptr;
  return n;
}

std::string default_pec_worker_path() {
  if (const char* env = std::getenv("EBL_PEC_WORKER"); env && env[0] != '\0')
    return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos)
      return self.substr(0, slash + 1) + "pec_worker";
  }
  return "pec_worker";  // fall back to PATH resolution
}

Coord default_shard_size(const Psf& psf) {
  return std::max<Coord>(1, static_cast<Coord>(64.0 * psf.max_sigma()));
}

PecResult correct_proximity(const ShotList& shots, const Psf& psf,
                            const PecOptions& options) {
  expects(!shots.empty(), "correct_proximity: empty shot list");
  expects(options.shard_size >= 0, "correct_proximity: shard_size must be >= 0");
  expects(options.target > 0, "correct_proximity: target must be positive");
  expects(options.max_iterations > 0, "correct_proximity: need >= 1 iteration");
  expects(options.min_dose <= options.max_dose,
          "correct_proximity: min_dose must not exceed max_dose");

  // shard_size 0 is one shard over the whole pattern, unless workers are
  // asked for: then it means default_shard_size, so there are shards to
  // spread over them.
  const bool workers = options.worker_count > 0 || !options.worker_hosts.empty();
  const Coord shard =
      options.shard_size > 0 ? options.shard_size : workers ? default_shard_size(psf) : 0;
  const ShardLayout L = build_layout(shots, shard, kHaloSigmas * psf.max_sigma(),
                                     options.exposure.threads);
  const std::size_t ns = L.count;

  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;

  // Warm start (multi-shard only: a single shard has no frozen halos for the
  // warm start to stabilize, and its first sweep then measures the input
  // doses).
  if (ns > 1) density_warm_start(shots, psf, options, L, &doses);
  std::vector<double> next = doses;

  PecResult result;
  result.shards = static_cast<int>(ns);

  // Execution backend: the thread pool, or (worker_count > 0) a pool of
  // pec_worker daemons speaking the wire format. Both run solve_shard_job
  // on identical jobs, so the choice cannot change a bit of the result.
  ShardExecutor exec(shots, psf, options, L);

  // Correction rounds: every shard solves against the round-start snapshot
  // (Jacobi across shards, so the outcome is independent of execution
  // order), then the snapshot advances. Each outcome lands in its own slot,
  // so the concurrent sweep is deterministic for any thread or worker
  // count. Rounds after the first are lazy: a shard re-runs only if one of
  // its ghost doses changed in the previous round (see ghosts_dirty) or its
  // own last update went unverified (optimistic exit), so late rounds cost
  // what the remaining boundary activity costs, not a full re-solve.
  std::vector<ShardOutcome> outcomes(ns);
  std::vector<double> exit_err(ns, 0.0);
  std::vector<std::uint8_t> changed_prev(shots.size(), 1);
  std::vector<std::uint8_t> changed_cur(shots.size(), 0);
  std::vector<std::uint8_t> self_dirty(ns, 0);
  std::vector<std::size_t> run;  // the sweep's run set, ascending slots
  const double shard_tol =
      ns > 1 ? kShardToleranceSlack * options.tolerance : options.tolerance;
  bool settled = false;  // a round ran and changed nothing
  int total_iterations = 0;
  for (int round = 0; round <= kExchangeRounds; ++round) {
    const auto round_t0 = std::chrono::steady_clock::now();
    next = doses;  // skipped shards keep their slots verbatim
    std::fill(changed_cur.begin(), changed_cur.end(), 0);
    run.clear();
    for (std::size_t s = 0; s < ns; ++s) {
      if (round == 0 || self_dirty[s] || ghosts_dirty(L, s, changed_prev)) {
        run.push_back(s);
      } else {
        outcomes[s] = ShardOutcome{{exit_err[s]}, 0, false, false, {}};
      }
    }
    SweepCtx ctx;
    ctx.correct = true;
    ctx.tol = shard_tol;
    // Optimistic exits are only worth taking while a later round (or the
    // measurement pass) is there to verify them.
    ctx.allow_optimistic = ns > 1;
    ctx.doses = &doses;
    ctx.next = &next;
    ctx.changed = &changed_cur;
    ctx.outcomes = &outcomes;
    exec.sweep(ctx, run);
    std::swap(doses, next);  // publish: halos see fresh doses next round
    std::swap(changed_prev, changed_cur);
    result.rounds = round + 1;

    for (const std::size_t s : run) {
      exit_err[s] = outcomes[s].errors.back();
      self_dirty[s] = outcomes[s].optimistic ? 1 : 0;
    }
    double round_err = 0.0;
    int round_iters = 0;
    bool any_update = false;
    for (const ShardOutcome& o : outcomes) {
      round_err = std::max(round_err, o.errors.front());
      round_iters = std::max(round_iters, o.iterations);
      any_update |= o.updated;
      result.blur.merge(o.perf);
    }
    // One shard exchanges no halo, so its history is every Jacobi sweep.
    if (ns == 1) {
      result.max_error_history = outcomes[0].errors;
    } else {
      result.max_error_history.push_back(round_err);
    }
    total_iterations += round_iters;
    result.round_ms.push_back(ms_since(round_t0));
    if (!any_update) {
      // Every shard met tolerance against its neighbors' published doses
      // without moving: cross-shard convergence is certified.
      settled = true;
      break;
    }
    if (ns == 1) break;  // no cross-shard coupling: one pass is the full solve
  }
  result.iterations = total_iterations;

  result.shots = shots;
  for (std::size_t i = 0; i < shots.size(); ++i) result.shots[i].dose = doses[i];
  bool doses_moved = false;
  if (options.dose_classes > 0) {
    quantize_doses(result.shots, options.dose_classes);
    for (std::size_t i = 0; i < shots.size(); ++i) {
      doses_moved |= result.shots[i].dose != doses[i];
      doses[i] = result.shots[i].dose;
    }
  }

  // A settled round measured every shard at the final doses, and so did a
  // single shard's last sweep; otherwise the error at the delivered doses,
  // halos included, is appended to the history. Shards whose visible doses
  // did not change since their last (verified) evaluation reuse that
  // still-exact error, and only the rest run a measurement-only pass;
  // quantization moves doses globally and forces a full re-measure.
  if (doses_moved || !(settled || ns == 1)) {
    run.clear();
    for (std::size_t s = 0; s < ns; ++s) {
      if (doses_moved || self_dirty[s] || ghosts_dirty(L, s, changed_prev)) {
        run.push_back(s);
      } else {
        outcomes[s] = ShardOutcome{{exit_err[s]}, 0, false, false, {}};
      }
    }
    if (!run.empty()) {
      const auto measure_t0 = std::chrono::steady_clock::now();
      SweepCtx ctx;
      ctx.correct = false;
      ctx.tol = shard_tol;
      ctx.allow_optimistic = false;
      ctx.doses = &doses;
      ctx.outcomes = &outcomes;
      exec.sweep(ctx, run);
      result.measure_ms = ms_since(measure_t0);
    }
    double final_err = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      final_err = std::max(final_err, outcomes[s].errors.back());
      result.blur.merge(outcomes[s].perf);
    }
    result.max_error_history.push_back(final_err);
  }
  result.final_max_error = result.max_error_history.back();
  exec.finish(&result);
  return result;
}

}  // namespace ebl
