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
#include "util/fft.h"
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

// Shard indices are relative to the pattern bbox corner — the packed-key /
// occupied-slot machinery is util/gridkeys.h, shared with the field
// partitioner. Only occupied shards (>= 1 owned shot) materialize, so
// sparse giant extents never allocate a dense shard grid.
struct ShardLayout {
  Box bbox;
  Coord shard = 0;
  Coord64 halo = 0;
  std::size_t count = 0;  ///< occupied shards
  // CSR shard -> owned shot indices (ascending within a shard) and
  // shard -> halo ghost indices, both filled in shot-index order so every
  // list is deterministic.
  std::vector<std::uint32_t> active_start, active_items;
  std::vector<std::uint32_t> ghost_start, ghost_items;
};

ShardLayout build_layout(const ShotList& shots, Coord shard, double halo_dbu,
                         int threads) {
  ShardLayout L;
  L.shard = shard;
  L.halo = static_cast<Coord64>(std::ceil(halo_dbu));
  for (const Shot& s : shots) L.bbox += s.shape.bbox();
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
  double entry_error = 0.0;  ///< max error at round entry (fresh ghost doses)
  double exit_error = 0.0;   ///< max error at the last evaluation of the run
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
  d.delta_accumulate_ms -= then.delta_accumulate_ms;
  d.delta_refreshes -= then.delta_refreshes;
  d.skipped_refreshes -= then.skipped_refreshes;
  d.shots_updated -= then.shots_updated;
  d.windowed_blurs -= then.windowed_blurs;
  d.windowed_blur_ms -= then.windowed_blur_ms;
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
// the tolerance of the monolithic solve's in dose space. A single-shard
// layout has no such residual and keeps the exact tolerance — that
// degenerate case must stay bitwise-identical to the monolithic solve.
constexpr double kShardToleranceSlack = 0.5;

// The wire-format job for one shard of one round — the single description
// both execution paths consume (in-process via solve_shard_job directly,
// distributed via a pec_worker process that calls the same function).
// Active and ghost lists carry the published doses of the round snapshot.
wire::ShardJob make_job(const ShotList& shots, const Psf& psf,
                        const PecOptions& options, const ShardLayout& L,
                        std::size_t slot, const std::vector<double>& doses,
                        bool correct, double tol, bool allow_optimistic,
                        bool reset_all, bool pooled, std::uint64_t session_id) {
  const std::uint32_t* active = L.active_items.data() + L.active_start[slot];
  const std::size_t na = L.active_start[slot + 1] - L.active_start[slot];
  const std::uint32_t* ghosts = L.ghost_items.data() + L.ghost_start[slot];
  const std::size_t ng = L.ghost_start[slot + 1] - L.ghost_start[slot];

  wire::ShardJob job;
  job.session_id = session_id;
  job.shard_key = slot;  // slots are dense and stable for the whole session
  job.correct = correct;
  job.allow_optimistic = allow_optimistic;
  job.reset_all = reset_all;
  job.pooled = pooled;
  job.tolerance = tol;
  job.psf_terms.assign(psf.terms().begin(), psf.terms().end());
  job.options = options;
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
  out.entry_error = r.entry_error;
  out.exit_error = r.exit_error;
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

// One shard's solve for one round, executed in-process: job construction +
// the shared solver + result application. Kept as a thin composition so the
// in-process sweep and a remote worker run literally the same arithmetic.
ShardOutcome run_shard(const ShotList& shots, const Psf& psf,
                       const PecOptions& options, const ShardLayout& L,
                       std::size_t slot, const std::vector<double>& doses,
                       std::vector<double>* next, std::vector<std::uint8_t>* changed,
                       bool correct, double tol, bool allow_optimistic, bool reset_all,
                       std::unique_ptr<ExposureEvaluator>* pool_slot, bool pooled) {
  const wire::ShardJob job = make_job(shots, psf, options, L, slot, doses, correct,
                                      tol, allow_optimistic, reset_all, pooled, 0);
  const wire::ShardResult r = solve_shard_job(job, pool_slot);
  return apply_result(L, slot, r, next, changed);
}

// Density-formula warm start: every shot's initial dose from the closed-form
// equalization d(u) = (1 + 2 eta) / (1 + 2 eta u), with u the local
// backscatter-blurred pattern density computed per shard on a coarse raster
// over shard + halo (O(shard) memory, halo = kernel truncation, so the local
// density equals the global one to the same 1e-6 the halo scheme already
// accepts). Each shard writes only its own shots' doses, so the sweep is
// deterministic for any thread count.
void density_warm_start(const ShotList& shots, const Psf& psf,
                        const PecOptions& options, const ShardLayout& L,
                        std::vector<double>* doses) {
  const double eta = backscatter_eta(psf);
  const double max_sigma = psf.max_sigma();
  const Coord pixel = std::max<Coord>(1, static_cast<Coord>(max_sigma / 4.0));
  const Coord margin = static_cast<Coord>(std::ceil(4.0 * max_sigma));
  parallel_for(
      L.count,
      [&](std::size_t s0, std::size_t s1) {
        for (std::size_t slot = s0; slot < s1; ++slot) {
          const std::uint32_t* active = L.active_items.data() + L.active_start[slot];
          const std::size_t na = L.active_start[slot + 1] - L.active_start[slot];
          const std::uint32_t* ghosts = L.ghost_items.data() + L.ghost_start[slot];
          const std::size_t ng = L.ghost_start[slot + 1] - L.ghost_start[slot];
          Box frame;
          for (std::size_t k = 0; k < na; ++k)
            frame += shots[active[k]].shape.bbox();
          for (std::size_t k = 0; k < ng; ++k)
            frame += shots[ghosts[k]].shape.bbox();
          Raster density(frame.bloated(margin), pixel);
          for (std::size_t k = 0; k < na; ++k)
            density.add_coverage(shots[active[k]].shape, 1.0);
          for (std::size_t k = 0; k < ng; ++k)
            density.add_coverage(shots[ghosts[k]].shape, 1.0);
          gaussian_blur(density, max_sigma, options.exposure.blur_backend,
                        options.exposure.threads);
          for (std::size_t k = 0; k < na; ++k) {
            const Trapezoid& t = shots[active[k]].shape;
            const double cx = 0.25 * (double(t.xl0) + t.xr0 + t.xl1 + t.xr1);
            const double cy = 0.5 * (double(t.y0) + t.y1);
            const double u = std::clamp(density.sample(cx, cy), 0.0, 1.0);
            const double dose = (1.0 + 2.0 * eta) / (1.0 + 2.0 * eta * u);
            (*doses)[active[k]] =
                std::clamp(dose * options.target, options.min_dose, options.max_dose);
          }
        }
      },
      options.exposure.threads);
}

// One round sweep (or the final measurement pass) over the run set. The two
// implementations must be result-equivalent; the in-process one is the
// oracle the distributed one is pinned against (bitwise, see the tests).
struct SweepCtx {
  bool correct = true;
  double tol = 0.0;
  bool allow_optimistic = false;
  bool force_reset = false;  ///< post-quantization measurement: reset every shard
  int round = 0;             ///< recency stamp for the in-process pool
  const std::vector<std::uint8_t>* will_run = nullptr;
  const std::vector<std::uint8_t>* self_dirty = nullptr;
  const std::vector<double>* doses = nullptr;
  std::vector<double>* next = nullptr;            ///< null in measurement pass
  std::vector<std::uint8_t>* changed = nullptr;   ///< null in measurement pass
  std::vector<ShardOutcome>* outcomes = nullptr;  ///< ran slots only
};

class ShardRunner {
 public:
  virtual ~ShardRunner() = default;
  virtual void sweep(const SweepCtx& ctx) = 0;
  /// Fills the runner-specific PecResult fields (residency, evictions,
  /// workers) and performs orderly teardown. Called once, on success.
  virtual void finish(PecResult* result) = 0;
};

// The single-process execution path: shards of a sweep run concurrently on
// the thread pool, sharing a driver-side resident evaluator pool.
class InProcessRunner : public ShardRunner {
 public:
  InProcessRunner(const ShotList& shots, const Psf& psf, const PecOptions& options,
                  const ShardLayout& L)
      : shots_(shots), psf_(psf), options_(options), L_(L) {
    pooled_ = options.resident_shard_budget > 0;
    budget_ = pooled_ ? static_cast<std::size_t>(options.resident_shard_budget) : 0;
    pool_.resize(pooled_ ? L.count : 0);
    last_used_.assign(pooled_ ? L.count : 0, -1);
    grant_.assign(L.count, 0);
  }

  void sweep(const SweepCtx& ctx) override {
    const std::vector<std::uint8_t>& will_run = *ctx.will_run;
    const std::vector<std::uint8_t>& self_dirty = *ctx.self_dirty;
    plan_residency(will_run);
    parallel_for(
        L_.count,
        [&](std::size_t s0, std::size_t s1) {
          for (std::size_t s = s0; s < s1; ++s) {
            if (!will_run[s]) continue;
            auto* slot = pooled_ && (pool_[s] || grant_[s]) ? &pool_[s] : nullptr;
            (*ctx.outcomes)[s] = run_shard(
                shots_, psf_, options_, L_, s, *ctx.doses, ctx.next, ctx.changed,
                ctx.correct, ctx.tol, ctx.allow_optimistic,
                /*reset_all=*/self_dirty[s] != 0 || ctx.force_reset, slot, pooled_);
          }
        },
        options_.exposure.threads);
    // Correction rounds stamp recency for the LRU planner; the measurement
    // pass does not (nothing re-enters after it).
    if (ctx.correct && pooled_) {
      for (std::size_t s = 0; s < L_.count; ++s) {
        if (will_run[s] && pool_[s]) last_used_[s] = ctx.round;
      }
    }
  }

  void finish(PecResult* result) override {
    if (pooled_) {
      for (const auto& p : pool_) result->resident_shards += p != nullptr;
    }
    result->shard_evictions = evictions_;
  }

 private:
  // Resident evaluator pool: one slot per shard, filled up to the budget.
  // Grants and evictions are planned serially before each sweep from the
  // sweep's deterministic run set, so the pool contents never depend on
  // thread scheduling — and since resident re-entry is exact (see
  // solve_shard_job), they could not change results even if they did.
  void plan_residency(const std::vector<std::uint8_t>& will_run) {
    if (!pooled_) return;
    const std::size_t ns = L_.count;
    std::fill(grant_.begin(), grant_.end(), 0);
    std::size_t resident = 0;
    for (std::size_t s = 0; s < ns; ++s) resident += pool_[s] != nullptr;
    for (std::size_t s = 0; s < ns; ++s) {
      if (!will_run[s] || pool_[s]) continue;
      if (resident < budget_) {
        grant_[s] = 1;
        ++resident;
        continue;
      }
      // Evict the least-recently-run resident that is idle this round
      // (ties: highest slot), then grant its place.
      std::size_t victim = ns;
      for (std::size_t v = 0; v < ns; ++v) {
        if (!pool_[v] || will_run[v]) continue;
        if (victim == ns || last_used_[v] < last_used_[victim] ||
            (last_used_[v] == last_used_[victim] && v > victim)) {
          victim = v;
        }
      }
      if (victim == ns) break;  // every resident runs this round: rest transient
      pool_[victim].reset();
      ++evictions_;
      grant_[s] = 1;
    }
  }

  const ShotList& shots_;
  const Psf& psf_;
  const PecOptions& options_;
  const ShardLayout& L_;
  bool pooled_ = false;
  std::size_t budget_ = 0;
  std::vector<std::unique_ptr<ExposureEvaluator>> pool_;
  std::vector<int> last_used_;
  std::vector<std::uint8_t> grant_;
  int evictions_ = 0;
};

// The multi-process execution path: a supervised pool of pec_worker daemon
// sessions (pec/supervisor.h + pec/transport.h) — worker_count daemons
// spawned on loopback, or, with options.worker_hosts set, daemons already
// running elsewhere (PEC as a service). Shards stick to workers (slot mod W)
// so each worker's resident evaluator pool keeps hitting across
// halo-exchange rounds — the set_background_doses refresh protocol, spoken
// over the wire. The supervisor owns liveness: per-job deadlines,
// crash/disconnect detection, bounded restart/reconnect, reassignment of a
// failed worker's jobs within the round, and — when every slot is gone —
// finishing the round in-process. Recovery never changes a bit: every path
// replays the identical pure job (deduplicated daemon-side by job seq), and
// results land in disjoint per-slot cells regardless of which worker (or no
// worker) produced them.
class DistributedRunner : public ShardRunner {
 public:
  DistributedRunner(const ShotList& shots, const Psf& psf, const PecOptions& options,
                    const ShardLayout& L)
      : shots_(shots), psf_(psf), options_(options), L_(L) {
    // One supervisor slot per worker_hosts address (a daemon serves sessions
    // sequentially, so more slots than daemons would serialize, and
    // worker_count is ignored), else worker_count spawned daemons; clamped
    // to the shard count either way.
    std::vector<net::HostPort> hosts;
    for (std::size_t start = 0; start < options.worker_hosts.size();) {
      std::size_t end = options.worker_hosts.find(',', start);
      if (end == std::string::npos) end = options.worker_hosts.size();
      if (end > start)
        hosts.push_back(
            net::parse_host_port(options.worker_hosts.substr(start, end - start)));
      start = end + 1;
    }
    std::string path;
    if (!options.worker_hosts.empty()) {
      if (hosts.empty())
        throw DataError("sharded PEC: worker_hosts lists no addresses");
    } else {
      path = options.worker_path.empty() ? default_pec_worker_path()
                                         : options.worker_path;
      if (::access(path.c_str(), X_OK) != 0)
        throw DataError("sharded PEC: pec_worker binary not executable: " + path);
    }
    const int wanted = hosts.empty() ? options.worker_count
                                     : static_cast<int>(hosts.size());
    workers_n_ = std::max(1, std::min<int>(wanted, static_cast<int>(L.count)));
    if (!hosts.empty()) hosts.resize(static_cast<std::size_t>(workers_n_));

    // One driver process + N workers share the machine: each worker gets an
    // equal slice of the resolved thread budget (>= 1). Thread count never
    // changes results, only scheduling.
    wopt_ = options;
    wopt_.exposure.threads =
        std::max(1, resolve_threads(options.exposure.threads) / workers_n_);

    // Session tag: workers drop stale resident evaluators if a long-lived
    // daemon ever sees jobs from two solves, so the tag must be unique
    // across driver processes. A reconnecting session re-sends the SAME tag,
    // keeping a remote daemon's pool warm across connection faults.
    static std::atomic<std::uint64_t> counter{0};
    session_ = (static_cast<std::uint64_t>(::getpid()) << 32) | ++counter;

    SupervisorConfig cfg;
    cfg.factory = make_session_factory(std::move(hosts), std::move(path), session_);
    cfg.workers = workers_n_;
    cfg.timeout_ms = options.worker_timeout_ms;
    cfg.max_restarts = options.worker_max_restarts;
    cfg.fallback_threads = options.exposure.threads;
    supervisor_ = std::make_unique<WorkerSupervisor>(std::move(cfg));
    worker_resident_.assign(static_cast<std::size_t>(workers_n_), 0);
    worker_evictions_.assign(static_cast<std::size_t>(workers_n_), 0);
  }

  ~DistributedRunner() override {
    // Error-path teardown; finish() already shut the pool down on success.
    if (supervisor_) supervisor_->terminate_all();
  }

  void sweep(const SweepCtx& ctx) override {
    const std::vector<std::uint8_t>& will_run = *ctx.will_run;
    const std::vector<std::uint8_t>& self_dirty = *ctx.self_dirty;
    std::vector<std::size_t> slots;
    for (std::size_t s = 0; s < L_.count; ++s)
      if (will_run[s]) slots.push_back(s);
    if (slots.empty()) return;

    supervisor_->run_batch(
        slots.size(),
        // Sticky deterministic assignment: shard slot -> worker slot % W
        // (the supervisor redeals jobs of dead slots).
        [&](std::size_t i) { return slots[i]; },
        // Jobs are pure functions of the round-start snapshot, so a retry
        // rebuilds the identical bytes — which is why recovery is bitwise
        // invisible.
        [&](std::size_t i) {
          const std::size_t s = slots[i];
          return make_job(shots_, psf_, wopt_, L_, s, *ctx.doses, ctx.correct,
                          ctx.tol, ctx.allow_optimistic,
                          /*reset_all=*/self_dirty[s] != 0 || ctx.force_reset,
                          wopt_.resident_shard_budget > 0, session_);
        },
        // Results apply into per-slot cells (disjoint across concurrent
        // readers, so no synchronization). A wrong-shard result throws,
        // which the supervisor treats as a worker fault.
        [&](std::size_t i, int w, const wire::ShardResult& r) {
          const std::size_t s = slots[i];
          if (r.shard_key != s)
            throw DataError("sharded PEC: result for the wrong shard");
          (*ctx.outcomes)[s] = apply_result(L_, s, r, ctx.next, ctx.changed);
          if (w >= 0) {
            worker_resident_[static_cast<std::size_t>(w)] = r.pool_resident;
            worker_evictions_[static_cast<std::size_t>(w)] = r.pool_evictions;
          }
        });
  }

  void finish(PecResult* result) override {
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
  const ShotList& shots_;
  const Psf& psf_;
  const PecOptions& options_;
  const ShardLayout& L_;
  PecOptions wopt_;  ///< options as sent to workers (per-worker threads)
  int workers_n_ = 0;
  std::uint64_t session_ = 0;
  std::unique_ptr<WorkerSupervisor> supervisor_;
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
  const PecOptions& options = job.options;
  const std::size_t na = job.active.size();
  const std::size_t ng = job.ghosts.size();
  expects(na > 0, "solve_shard_job: shard without active shots");

  ExposureEvaluator* eval = nullptr;
  std::unique_ptr<ExposureEvaluator> transient;
  BlurPerf perf0;
  if (pool_slot && *pool_slot) {
    // Resident re-entry: reuse the geometry caches, reset the dose state
    // exactly. Ghost doses always come in fresh; the shard's own doses are
    // re-applied too when they are not known to match the evaluator
    // (optimistic exit last round, or post-quantization measurement).
    eval = pool_slot->get();
    perf0 = eval->blur_perf();
    if (job.reset_all) {
      std::vector<double> all(na + ng);
      for (std::size_t k = 0; k < na; ++k) all[k] = job.active[k].dose;
      for (std::size_t k = 0; k < ng; ++k) all[na + k] = job.ghosts[k].dose;
      eval->reset_doses(all);
    } else {
      std::vector<double> bg(ng);
      for (std::size_t k = 0; k < ng; ++k) bg[k] = job.ghosts[k].dose;
      eval->set_background_doses(bg);
    }
  } else {
    ShotList local;
    local.reserve(na + ng);
    local.insert(local.end(), job.active.begin(), job.active.end());
    local.insert(local.end(), job.ghosts.begin(), job.ghosts.end());
    // Centroid queries never leave the shard bbox, so the local long-range
    // map drops its off-pattern sampling margin — on small shards the dead
    // border would otherwise rival the shard itself. Without the resident
    // pool, measurement-only runs also skip the splat cache (one direct
    // rasterization instead of a cache that would never be re-weighted);
    // with it they keep the cache so a pooled and an unpooled measurement
    // run the same arithmetic.
    ExposureOptions eopt = options.exposure;
    eopt.map_margin_sigmas = 0.0;
    if (!job.correct && !job.pooled) eopt.splat_cache = false;
    transient = std::make_unique<ExposureEvaluator>(std::move(local), na, psf, eopt);
    eval = transient.get();
    if (pool_slot) *pool_slot = std::move(transient);  // granted residency
  }

  std::vector<double> d(na);
  for (std::size_t k = 0; k < na; ++k) d[k] = job.active[k].dose;

  const bool delta_mode = options.exposure.delta_threshold > 0;
  wire::ShardResult out;
  out.shard_key = job.shard_key;
  for (int iter = 0;; ++iter) {
    const std::vector<double> e = eval->exposures_at_centroids();
    double max_err = 0.0;
    for (double ei : e) max_err = std::max(max_err, std::abs(ei / options.target - 1.0));
    if (iter == 0) out.entry_error = max_err;
    out.exit_error = max_err;
    if (max_err < job.tolerance || !job.correct || iter >= options.max_iterations)
      break;
    const double update_tol =
        jacobi_update_tolerance(delta_mode, job.tolerance, max_err);
    for (std::size_t k = 0; k < na; ++k) {
      d[k] = jacobi_updated_dose(d[k], e[k], update_tol, options);
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
  // resident evaluator re-entering through set_background_doses is exactly
  // at the published state.
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

Coord default_shard_size(const Psf& psf, const PecOptions& options) {
  const Coord base = default_shard_size(psf);
  double sigma_min_long = 0.0;
  for (const PsfTerm& t : psf.terms()) {
    if (t.sigma >= options.exposure.long_range_threshold &&
        (sigma_min_long == 0.0 || t.sigma < sigma_min_long)) {
      sigma_min_long = t.sigma;
    }
  }
  if (sigma_min_long == 0.0) return base;  // all-short PSF: nothing to pad

  // Reproduce the evaluator's map sizing: pixel from the finest long term,
  // kernel radius from the widest, margin-0 maps (2 px each side), plus
  // slack for shot bboxes overhanging the shard + halo frame. The FFT pads
  // to the next power of two past map + radius; size the shard so an
  // interior shard's map fills that grid instead of wasting up to 4x the
  // padded area on it.
  const Coord pixel = std::max<Coord>(
      1, static_cast<Coord>(sigma_min_long / options.exposure.pixels_per_sigma));
  const int radius = std::max(
      1, static_cast<int>(std::ceil(4.0 * psf.max_sigma() / double(pixel))));
  const Coord64 halo =
      static_cast<Coord64>(std::ceil(options.halo_factor * psf.max_sigma()));
  constexpr Coord64 kSlackPx = 48;  // sampling margin + shot-overhang allowance
  const double base_side =
      double(base + 2 * halo) / double(pixel) + double(radius) + double(kSlackPx);
  // Keep the pow2 growth policy even though the mixed-radix planner accepts
  // any even 5-smooth size: shrinking shards to the nearest fast size yields
  // more shards, and the extra per-shard refresh/halo overhead costs more
  // than the snugger transforms save. A power of two is itself 5-smooth, so
  // the plan stays snug on this grid.
  std::size_t padded = fft_next_pow2(static_cast<std::size_t>(std::ceil(base_side)));
  for (;;) {
    const Coord64 snug =
        (Coord64(padded) - radius - kSlackPx) * pixel - 2 * halo;
    if (snug >= base) return static_cast<Coord>(std::min<Coord64>(snug, 2000000000));
    padded *= 2;
  }
}

PecResult correct_proximity_sharded(const ShotList& shots, const Psf& psf,
                                    const PecOptions& options) {
  expects(!shots.empty(), "correct_proximity_sharded: empty shot list");
  expects(options.shard_size > 0, "correct_proximity_sharded: shard_size must be > 0");
  expects(options.target > 0, "correct_proximity_sharded: target must be positive");
  expects(options.max_iterations > 0,
          "correct_proximity_sharded: need >= 1 iteration");
  expects(options.halo_factor >= 0,
          "correct_proximity_sharded: halo_factor must be >= 0");

  const ShardLayout L = build_layout(shots, options.shard_size,
                                     options.halo_factor * psf.max_sigma(),
                                     options.exposure.threads);
  const std::size_t ns = L.count;

  std::vector<double> doses(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) doses[i] = shots[i].dose;

  // Warm start (multi-shard only: the single-shard degenerate case is the
  // bitwise reference against the monolithic solve, and has no frozen halos
  // for the warm start to stabilize).
  if (options.density_warm_start && ns > 1) {
    density_warm_start(shots, psf, options, L, &doses);
  }
  std::vector<double> next = doses;

  PecResult result;
  result.shards = static_cast<int>(ns);

  // Execution backend: the thread pool, or (worker_count > 0) a pool of
  // pec_worker processes speaking the wire format. Both run solve_shard_job
  // on identical jobs, so the choice cannot change a bit of the result.
  std::unique_ptr<ShardRunner> runner;
  if (options.worker_count > 0 || !options.worker_hosts.empty()) {
    runner = std::make_unique<DistributedRunner>(shots, psf, options, L);
  } else {
    runner = std::make_unique<InProcessRunner>(shots, psf, options, L);
  }

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
  std::vector<std::uint8_t> will_run(ns, 0);
  std::vector<std::uint8_t> self_dirty(ns, 0);
  const double shard_tol =
      ns > 1 ? kShardToleranceSlack * options.tolerance : options.tolerance;
  const int max_rounds = 1 + std::max(0, options.exchange_rounds);
  bool settled = false;  // a round ran and changed nothing
  int total_iterations = 0;
  for (int round = 0; round < max_rounds; ++round) {
    const auto round_t0 = std::chrono::steady_clock::now();
    next = doses;  // skipped shards keep their slots verbatim
    std::fill(changed_cur.begin(), changed_cur.end(), 0);
    for (std::size_t s = 0; s < ns; ++s) {
      will_run[s] =
          round == 0 || self_dirty[s] || ghosts_dirty(L, s, changed_prev);
      if (!will_run[s])
        outcomes[s] = ShardOutcome{exit_err[s], exit_err[s], 0, false, false, {}};
    }
    SweepCtx ctx;
    ctx.correct = true;
    ctx.tol = shard_tol;
    // Optimistic exits are only worth taking while a later round (or the
    // measurement pass) is there to verify them.
    ctx.allow_optimistic = ns > 1;
    ctx.round = round;
    ctx.will_run = &will_run;
    ctx.self_dirty = &self_dirty;
    ctx.doses = &doses;
    ctx.next = &next;
    ctx.changed = &changed_cur;
    ctx.outcomes = &outcomes;
    runner->sweep(ctx);
    std::swap(doses, next);  // publish: halos see fresh doses next round
    std::swap(changed_prev, changed_cur);
    result.rounds = round + 1;

    double round_err = 0.0;
    int round_iters = 0;
    bool any_update = false;
    for (std::size_t s = 0; s < ns; ++s) {
      const ShardOutcome& o = outcomes[s];
      round_err = std::max(round_err, o.entry_error);
      round_iters = std::max(round_iters, o.iterations);
      any_update |= o.updated;
      if (will_run[s]) {
        exit_err[s] = o.exit_error;
        self_dirty[s] = o.optimistic ? 1 : 0;
      }
      result.blur.merge(o.perf);
    }
    result.max_error_history.push_back(round_err);
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

  if (settled && !doses_moved) {
    // The last round measured every shard at the final doses already.
    result.final_max_error = result.max_error_history.back();
  } else {
    // Measurement-only pass with the delivered doses everywhere, halos
    // included — comparable to the global corrector's final error up to the
    // halo truncation. Shards whose visible doses did not change since their
    // last (verified) evaluation reuse that still-exact error; quantization
    // moves doses globally and forces a full re-measure.
    const auto measure_t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < ns; ++s) {
      will_run[s] = doses_moved || self_dirty[s] || ghosts_dirty(L, s, changed_prev);
      if (!will_run[s])
        outcomes[s] = ShardOutcome{exit_err[s], exit_err[s], 0, false, false, {}};
    }
    SweepCtx ctx;
    ctx.correct = false;
    ctx.tol = shard_tol;
    ctx.allow_optimistic = false;
    ctx.force_reset = doses_moved;
    ctx.round = result.rounds;
    ctx.will_run = &will_run;
    ctx.self_dirty = &self_dirty;
    ctx.doses = &doses;
    ctx.next = nullptr;
    ctx.changed = nullptr;
    ctx.outcomes = &outcomes;
    runner->sweep(ctx);
    double final_err = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      final_err = std::max(final_err, outcomes[s].entry_error);
      result.blur.merge(outcomes[s].perf);
    }
    result.final_max_error = final_err;
    result.max_error_history.push_back(final_err);
    result.measure_ms = ms_since(measure_t0);
  }
  runner->finish(&result);
  return result;
}

PecResult correct_proximity_distributed(const ShotList& shots, const Psf& psf,
                                        const PecOptions& options) {
  expects(options.worker_count > 0 || !options.worker_hosts.empty(),
          "correct_proximity_distributed: need worker_count > 0 or "
          "worker_hosts");
  PecOptions opt = options;
  if (opt.shard_size == 0) opt.shard_size = default_shard_size(psf, opt);
  return correct_proximity_sharded(shots, psf, opt);
}

}  // namespace ebl
