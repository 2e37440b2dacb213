// Worker supervision for the distributed sharded-PEC driver: deadlines,
// crash/hang detection, bounded restart, shard-job reassignment, and graceful
// degradation to in-process solving.
//
// The distributed solve's correctness story (src/pec/sharded.h) is that every
// execution path — in-process thread pool, worker process, or retry — runs
// the SAME pure function solve_shard_job on the SAME wire::ShardJob built
// from the round-start snapshot, and each result lands in its own disjoint
// per-shard cells. That makes fault recovery free of correctness risk by
// construction: replaying a job on a respawned worker, a surviving worker, or
// the driver's own threads produces bitwise-identical doses. What the
// supervisor adds is the *liveness* half of the contract:
//
//   - per-job deadlines (wall-clock, scaled by shard size) catch workers that
//     wedge without exiting — the one failure EOF detection cannot see;
//   - heartbeat probes and EOF on the result stream catch crashes;
//   - CRC/decode failures on a result frame are treated as a worker fault
//     (kill + restart), not a solve abort — a flaky worker must not take the
//     whole solve down;
//   - each worker slot carries a bounded restart budget with exponential
//     backoff; a respawned worker inherits the slot cold (its resident
//     evaluator pool is empty, and a cold solve_shard_job entry rebuilds
//     everything from the job, which is exact);
//   - unfinished jobs of a failed worker are re-enqueued in the same round:
//     first to the respawned worker or the surviving ones, and — once every
//     slot is dead and out of restart budget — to the driver's own threads,
//     through the caller's local sweep (degraded_to_inprocess), so restart
//     exhaustion slows the solve down instead of failing it.
//
// A worker slot is whatever its SessionFactory builds (src/pec/transport.h):
// a TCP session on a pec_worker daemon, spawned on loopback or reached at a
// remote address. "Restart" means "discard the session and ask the factory
// again", which respawns a spawned daemon and reconnects to a remote one
// (with exponential backoff; a refused connection consumes restart budget
// and is retried). A re-sent job is the same pure job, so a daemon that
// already solved it before the fault solves it again to the same bits.
//
// Each sweep runs one writer/reader thread pair per busy worker (results
// stream back while later jobs serialize; no socket-buffer deadlock), with
// every read and write deadline-aware. Thread teardown is exception-safe:
// every attempt joins its threads before the supervisor decides anything,
// so no code path can unwind with a detached writer still holding a socket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pec/transport.h"

namespace ebl {

namespace wire {
struct ShardJob;
struct ShardResult;
}  // namespace wire

/// Resolves PecOptions::worker_timeout_ms to the effective base deadline:
/// > 0 is taken as-is; 0 reads $EBL_WORKER_TIMEOUT_MS, defaulting to 60000;
/// < 0 disables deadlines (returns a negative value).
double resolve_worker_timeout_ms(double option_value);

/// What fault handling did during one solve — folded into PecResult by the
/// distributed runner.
struct SupervisorStats {
  int restarts = 0;         ///< worker slots respawned / reconnected
  int reassigned_jobs = 0;  ///< jobs re-enqueued after their worker failed
  bool degraded_to_inprocess = false;  ///< ran out of workers; solved locally
};

struct SupervisorConfig {
  /// Builds (and rebuilds, after a fault) the session for each worker slot.
  SessionFactory factory;
  int workers = 1;  ///< pool width (slot count)
  /// Raw PecOptions::worker_timeout_ms — resolved internally via
  /// resolve_worker_timeout_ms.
  double timeout_ms = 0.0;
  int max_restarts = 2;  ///< per-slot restart/reconnect budget
};

/// A supervised pool of pec_worker daemon sessions. run_batch is the whole
/// interface: hand it the round's jobs and it guarantees every one of them is
/// applied exactly once, surviving worker crashes, hangs, and corrupt result
/// frames along the way.
class WorkerSupervisor {
 public:
  /// Builds job @p i. Called once per delivery *attempt* (a reassigned job is
  /// rebuilt, identically — jobs are pure functions of the round snapshot).
  /// Must be callable from worker writer threads and, for distinct jobs,
  /// concurrently.
  using MakeJob = std::function<wire::ShardJob(std::size_t)>;
  /// Consumes job @p i's result from the worker in @p worker_slot. Called
  /// at most once per job, only for results a worker delivered; may be
  /// called concurrently for distinct jobs (results land in disjoint state).
  /// Throwing marks the delivering worker faulty.
  using Apply =
      std::function<void(std::size_t, int worker_slot, const wire::ShardResult&)>;
  /// Preferred (sticky) slot for job @p i, any size_t — taken mod the pool
  /// width. Keeps shard->worker affinity so worker resident-evaluator pools
  /// hit across rounds; a job whose preferred slot is dead is dealt
  /// round-robin to the live ones.
  using Prefer = std::function<std::size_t(std::size_t)>;
  /// Solves and applies the given jobs on the driver's own threads — the
  /// degraded path once no worker is left. Receives the jobs no worker
  /// finished, and must finish every one of them.
  using SolveLocally = std::function<void(const std::vector<std::size_t>&)>;

  /// Builds the pool (factory once per slot). Throws when an initial build
  /// fails — a pool that never existed is a configuration error, not a fault
  /// to absorb; reconnect/restart resilience starts after construction.
  explicit WorkerSupervisor(SupervisorConfig config);
  ~WorkerSupervisor();  ///< kills and reaps anything still running

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  int workers() const { return static_cast<int>(sessions_.size()); }
  const SupervisorStats& stats() const { return stats_; }

  /// Runs jobs 0..n-1 to completion (every job applied exactly once, by
  /// Apply or by solve_locally), restarting / reassigning / degrading as
  /// needed. Exceptions thrown by worker I/O or a worker's Apply are absorbed
  /// as worker faults; only driver-side failures (make_job, solve_locally,
  /// restart bookkeeping) propagate — and never with an attempt thread still
  /// running.
  void run_batch(std::size_t n, const Prefer& prefer, const MakeJob& make_job,
                 const Apply& apply, const SolveLocally& solve_locally);

  /// Orderly shutdown: end every live session (half-close, stop a spawned
  /// daemon), give the pool a few seconds to drain and exit, hard-stop
  /// stragglers. A dirty end after all results were
  /// delivered (and CRC-checked) is logged, not thrown — by then it cannot
  /// have corrupted the solve.
  void shutdown();

  /// Error-path teardown: close every session, SIGKILL + reap every spawned
  /// daemon.
  void terminate_all();

 private:
  struct Attempt;

  /// Effective deadline for one job: the base timeout grown linearly with the
  /// job's shot count (active + ghosts), so big shards get proportionally
  /// more wall-clock before being declared hung.
  double timeout_for_ms(std::size_t job_shots) const;

  /// poll_fault (heartbeat ping/pong) probe of every live slot; a slot whose
  /// channel already died (e.g. crashed or dropped between rounds) goes
  /// through the failure path before any job is dealt to it.
  void probe_liveness();

  /// Post-attempt accounting for a faulty slot: tear the channel down, then
  /// rebuild it via the factory — with exponential backoff, charging every
  /// attempt (including ones where the factory itself throws, e.g. a
  /// refused reconnect) against the slot's restart budget — or retire the
  /// slot once the budget is spent.
  void handle_failure(std::size_t w, const std::string& error);

  std::size_t live_count() const;

  SessionFactory factory_;
  std::vector<std::unique_ptr<WorkerSession>> sessions_;
  std::vector<std::uint8_t> alive_;
  std::vector<int> restarts_used_;
  double timeout_ms_ = 0.0;  ///< resolved base; <= 0 means deadlines disabled
  int max_restarts_ = 0;
  bool degraded_ = false;  ///< latches: once out of workers, stay in-process
  SupervisorStats stats_;
};

}  // namespace ebl
