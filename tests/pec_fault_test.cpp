// Fault-tolerance tests for the distributed sharded-PEC supervisor
// (src/pec/supervisor.h) against real, deliberately misbehaving pec_worker
// processes (tools/pec_worker.cpp fault injection).
//
// Every test pins the same property: a solve that suffers worker crashes,
// hangs, truncated or corrupted result frames, or total restart exhaustion
// still finishes — and its doses are bitwise-identical to the in-process
// sharded solve, because recovery only ever replays the identical pure shard
// jobs. The baselines here are computed in-process (worker_count = 0), so an
// ambient EBL_FAULT_PLAN — the chaos CI job exports one — cannot perturb
// them; each test then pins its own plan via the environment the spawned
// workers inherit.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "core/job.h"
#include "core/patterns.h"
#include "fracture/fracture.h"
#include "pec/correction.h"
#include "pec/sharded.h"
#include "pec/supervisor.h"
#include "util/contracts.h"

namespace ebl {
namespace {

Psf test_psf() { return Psf::double_gaussian(50.0, 3000.0, 0.7); }

ShotList dense_grid_shots(Coord side) {
  PolygonSet s = checkerboard(Box{0, 0, side, side}, 2000);
  return fracture(s, {.max_shot_size = 2000}).shots;
}

bool worker_available() {
  return ::access(default_pec_worker_path().c_str(), X_OK) == 0;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Scoped environment override that restores the previous value (or absence)
// on destruction, so a test's fault plan or timeout cannot leak into the
// next test — or fight the chaos CI job's ambient settings beyond its scope.
class EnvGuard {
 public:
  EnvGuard(std::string name, const char* value) : name_(std::move(name)) {
    const char* old = std::getenv(name_.c_str());
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

// The shared scenario: a 2x2 shard grid solved by 2 workers, so every sweep
// deals each worker ~2 jobs and shard->worker reassignment has somewhere to
// go. Baseline is the in-process solve of the same layout.
PecOptions base_options() {
  PecOptions opt;
  opt.shard_size = 20000;
  opt.max_iterations = 10;
  return opt;
}

void expect_bitwise(const PecResult& got, const PecResult& want) {
  ASSERT_EQ(got.shots.size(), want.shots.size());
  for (std::size_t i = 0; i < want.shots.size(); ++i)
    EXPECT_EQ(bits(got.shots[i].dose), bits(want.shots[i].dose)) << "shot " << i;
  EXPECT_EQ(bits(got.final_max_error), bits(want.final_max_error));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.max_error_history.size(), want.max_error_history.size());
  for (std::size_t i = 0; i < want.max_error_history.size(); ++i)
    EXPECT_EQ(bits(got.max_error_history[i]), bits(want.max_error_history[i]));
}

// Distributed run of `opt` under a given fault plan (set for the spawned
// workers via the environment).
PecResult run_with_fault(const ShotList& shots, const PecOptions& opt,
                         const char* plan) {
  EnvGuard fault("EBL_FAULT_PLAN", plan);
  return correct_proximity(shots, test_psf(), opt);
}

TEST(PecFault, CrashMidRoundRecoversBitwise) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);
  ASSERT_GE(local.shards, 4);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 8;
  // Each worker incarnation serves 2 jobs, then dies on the next receipt:
  // the first sweep completes, every later sweep starts with both workers
  // crashing and their jobs reassigned to the respawned ones.
  const PecResult dist = run_with_fault(shots, dopt, "crash-after=2");

  EXPECT_GE(dist.worker_restarts, 1);
  EXPECT_GE(dist.reassigned_jobs, 1);
  EXPECT_FALSE(dist.degraded_to_inprocess);
  expect_bitwise(dist, local);
}

TEST(PecFault, HangRecoversViaDeadline) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 10;
  // A hung worker produces no EOF — only the per-job deadline can catch it.
  // Short timeout keeps the test quick; these shard solves run in
  // milliseconds, so 750 ms cannot false-positive on a healthy worker.
  dopt.worker_timeout_ms = 750.0;
  const PecResult dist = run_with_fault(shots, dopt, "hang-after=2");

  EXPECT_GE(dist.worker_restarts, 1);
  EXPECT_GE(dist.reassigned_jobs, 1);
  expect_bitwise(dist, local);
}

TEST(PecFault, TruncatedResultFrameRecovers) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 8;
  // Half a result frame then death: the driver must treat the mid-record
  // EOF as a worker fault and replay the job, never apply a partial result.
  const PecResult dist = run_with_fault(shots, dopt, "truncate-after=2");

  EXPECT_GE(dist.worker_restarts, 1);
  expect_bitwise(dist, local);
}

TEST(PecFault, CorruptPayloadRejectedByCrcAndRecovered) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 8;
  // A flipped payload byte under an honest header: only the CRC-32 trailer
  // stands between this and bitwise-wrong doses.
  const PecResult dist = run_with_fault(shots, dopt, "corrupt-after=2");

  EXPECT_GE(dist.worker_restarts, 1);
  expect_bitwise(dist, local);
}

TEST(PecFault, SlowStartWithinDeadlineNeedsNoRestart) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  // Slow but healthy must not be punished: 100 ms of startup lag against
  // the default 60 s deadline is a working worker, not a fault.
  const PecResult dist = run_with_fault(shots, dopt, "slow-start=100");

  EXPECT_EQ(dist.worker_restarts, 0);
  EXPECT_EQ(dist.reassigned_jobs, 0);
  EXPECT_FALSE(dist.degraded_to_inprocess);
  expect_bitwise(dist, local);
}

TEST(PecFault, RestartExhaustionDegradesToInProcessBitwise) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 1;
  // Every incarnation dies on its first job: each slot burns its single
  // restart, the pool empties, and the solve must finish in-process instead
  // of throwing — graceful degradation, not an error.
  const PecResult dist = run_with_fault(shots, dopt, "crash-after=0");

  EXPECT_TRUE(dist.degraded_to_inprocess);
  EXPECT_EQ(dist.worker_restarts, 2);  // one respawn per slot, then give up
  EXPECT_GE(dist.reassigned_jobs, 1);
  expect_bitwise(dist, local);
}

TEST(PecFault, TimeoutDisabledStillRecoversCrashViaEof) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  const PecOptions opt = base_options();
  const PecResult local = correct_proximity(shots, test_psf(), opt);

  PecOptions dopt = opt;
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 16;
  dopt.worker_timeout_ms = -1.0;  // deadlines off: crashes must still be seen
  const PecResult dist = run_with_fault(shots, dopt, "crash-after=1");

  EXPECT_GE(dist.worker_restarts, 1);
  expect_bitwise(dist, local);
}

// Spawned daemons belong to the solve: a clean solve drains and reaps them,
// a faulted one kills and reaps every incarnation it replaced. With no other
// children alive, waitpid(-1) must then find nothing at all.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "a pec_worker outlived its solve";
}

TEST(PecFault, NoWorkerOutlivesASolve) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  const ShotList shots = dense_grid_shots(40000);
  PecOptions dopt = base_options();
  dopt.worker_count = 2;
  dopt.worker_max_restarts = 10;
  dopt.worker_timeout_ms = 750.0;

  const PecResult clean = run_with_fault(shots, dopt, "");
  EXPECT_EQ(clean.workers, 2);
  expect_no_children();

  const PecResult hung = run_with_fault(shots, dopt, "hang-after=2");
  EXPECT_GE(hung.worker_restarts, 1);
  expect_no_children();
}

TEST(PecFault, WorkerTimeoutResolution) {
  {
    EnvGuard env("EBL_WORKER_TIMEOUT_MS", nullptr);
    EXPECT_EQ(resolve_worker_timeout_ms(0.0), 60000.0);
    EXPECT_EQ(resolve_worker_timeout_ms(1234.5), 1234.5);
    EXPECT_EQ(resolve_worker_timeout_ms(-1.0), -1.0);
  }
  {
    EnvGuard env("EBL_WORKER_TIMEOUT_MS", "2500");
    EXPECT_EQ(resolve_worker_timeout_ms(0.0), 2500.0);
    EXPECT_EQ(resolve_worker_timeout_ms(500.0), 500.0);  // option wins
  }
}

TEST(PecFault, PipelineSurfacesFaultStats) {
  if (!worker_available()) GTEST_SKIP() << "pec_worker binary not built";
  PolygonSet s = checkerboard(Box{0, 0, 40000, 40000}, 2000);

  PrepOptions popt;
  popt.fracture.max_shot_size = 2000;
  popt.pec_psf = test_psf();
  popt.pec = base_options();
  const PrepResult local = run_data_prep(s, popt);

  PrepOptions dpopt = popt;
  dpopt.pec.worker_count = 2;
  dpopt.pec.worker_max_restarts = 8;
  EnvGuard fault("EBL_FAULT_PLAN", "crash-after=2");
  const PrepResult dist = run_data_prep(s, dpopt);

  EXPECT_EQ(dist.pec_workers, 2);
  EXPECT_GE(dist.pec_worker_restarts, 1);
  EXPECT_GE(dist.pec_reassigned_jobs, 1);
  EXPECT_FALSE(dist.pec_degraded_to_inprocess);
  ASSERT_EQ(dist.shots.size(), local.shots.size());
  for (std::size_t i = 0; i < local.shots.size(); ++i)
    EXPECT_EQ(bits(dist.shots[i].dose), bits(local.shots[i].dose)) << "shot " << i;
}

}  // namespace
}  // namespace ebl
