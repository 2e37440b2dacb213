#include "pec/supervisor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "pec/wire.h"
#include "util/contracts.h"

namespace ebl {
namespace {

using clock_t_ = std::chrono::steady_clock;

clock_t_::time_point deadline_after(clock_t_::time_point from, double ms) {
  if (ms <= 0) return clock_t_::time_point::max();
  return from + std::chrono::duration_cast<clock_t_::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

double resolve_worker_timeout_ms(double option_value) {
  if (option_value != 0.0) return option_value;
  if (const char* env = std::getenv("EBL_WORKER_TIMEOUT_MS")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0') return v;
  }
  return 60000.0;
}

// Per-worker, per-attempt shared state between the writer thread, the reader
// thread, and the post-join accounting. `sent` is the release/acquire
// handoff: the writer publishes sent_at[k] and timeout_ms[k] before bumping
// it, so the reader may read both for any k < sent without locks.
struct WorkerSupervisor::Attempt {
  std::vector<std::size_t> jobs;  ///< batch job indices, send order
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> failed{false};
  std::vector<clock_t_::time_point> sent_at;
  std::vector<double> timeout_ms;
  std::mutex mu;
  std::string error;  ///< first failure wins; guarded by mu

  explicit Attempt(std::vector<std::size_t> j)
      : jobs(std::move(j)), sent_at(jobs.size()), timeout_ms(jobs.size(), 0.0) {}

  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (!failed.exchange(true)) error = what;
  }

  std::string first_error() {
    std::lock_guard<std::mutex> lock(mu);
    return error;
  }
};

WorkerSupervisor::WorkerSupervisor(SupervisorConfig config)
    : factory_(std::move(config.factory)),
      timeout_ms_(resolve_worker_timeout_ms(config.timeout_ms)),
      max_restarts_(std::max(0, config.max_restarts)) {
  expects(static_cast<bool>(factory_), "WorkerSupervisor: no session factory");
  expects(config.workers > 0, "WorkerSupervisor: need at least one worker");
  sessions_.reserve(static_cast<std::size_t>(config.workers));
  for (int i = 0; i < config.workers; ++i)
    sessions_.push_back(factory_(static_cast<std::size_t>(i)));
  alive_.assign(sessions_.size(), 1);
  restarts_used_.assign(sessions_.size(), 0);
}

WorkerSupervisor::~WorkerSupervisor() { terminate_all(); }

double WorkerSupervisor::timeout_for_ms(std::size_t job_shots) const {
  if (timeout_ms_ <= 0) return 0.0;  // deadlines disabled
  return timeout_ms_ * (1.0 + static_cast<double>(job_shots) / 50000.0);
}

std::size_t WorkerSupervisor::live_count() const {
  std::size_t n = 0;
  for (const std::uint8_t a : alive_) n += a;
  return n;
}

void WorkerSupervisor::probe_liveness() {
  for (std::size_t w = 0; w < sessions_.size(); ++w) {
    if (!alive_[w]) continue;
    std::string why;
    if (sessions_[w]->poll_fault(&why)) handle_failure(w, why);
  }
}

void WorkerSupervisor::handle_failure(std::size_t w, const std::string& error) {
  std::fprintf(stderr,
               "sharded PEC: worker slot %zu [%s] failed (%s); restarts used "
               "%d/%d\n",
               w, sessions_[w]->describe().c_str(), error.c_str(),
               restarts_used_[w], max_restarts_);
  // Tear the channel down completely (close the socket, kill and reap a
  // spawned daemon). hard_stop is a no-op on whatever part already died.
  sessions_[w]->hard_stop();
  // Rebuild the channel, charging every attempt against the slot's budget —
  // including attempts where the factory itself throws: a refused reconnect
  // to a restarting daemon is a transient fault to retry with backoff, not
  // an instant retirement. Exponential backoff so a worker dying instantly
  // (bad node, OOM loop, dead daemon) cannot turn the supervisor into a
  // fork/connect bomb. The per-attempt cap is tunable via
  // EBL_RECONNECT_BACKOFF_MS (default 1000): chaos tests that inject dozens
  // of transient faults per solve pace recovery in tens of milliseconds,
  // and an operator fronting slow-restarting daemons can stretch it.
  long backoff_cap_ms = 1000;
  if (const char* env = std::getenv("EBL_RECONNECT_BACKOFF_MS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0) backoff_cap_ms = v;
  }
  while (restarts_used_[w] < max_restarts_) {
    const int shift = std::min(restarts_used_[w], 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<long>(10L << shift, backoff_cap_ms)));
    ++restarts_used_[w];
    try {
      sessions_[w] = factory_(w);
      ++stats_.restarts;
      return;
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "sharded PEC: restart %d/%d of worker slot %zu failed "
                   "(%s)\n",
                   restarts_used_[w], max_restarts_, w, e.what());
    }
  }
  alive_[w] = 0;
}

void WorkerSupervisor::run_batch(std::size_t n, const Prefer& prefer,
                                 const MakeJob& make_job, const Apply& apply,
                                 const SolveLocally& solve_locally) {
  const std::size_t nw = sessions_.size();
  std::vector<std::uint8_t> done(n, 0);
  std::vector<std::size_t> remaining;
  remaining.reserve(n);
  for (std::size_t i = 0; i < n; ++i) remaining.push_back(i);
  // Sequence numbers are assigned ONCE, at batch entry: a job re-dealt after
  // a fault carries the SAME seq on every delivery attempt, which is what
  // lets a daemon recognize a replay. (The solver never reads seq, so the
  // stamp cannot change a bit of any result.)
  std::vector<std::uint64_t> seqs(n);
  for (std::uint64_t& seq : seqs) seq = ++next_seq_;

  while (!remaining.empty()) {
    if (!degraded_) probe_liveness();
    if (degraded_ || live_count() == 0) {
      // Out of workers: finish the round on the driver's own threads. The
      // jobs are the same pure jobs — slower, never different.
      if (!degraded_) {
        degraded_ = true;
        stats_.degraded_to_inprocess = true;
        std::fprintf(stderr,
                     "sharded PEC: no live workers left; degrading %zu "
                     "job(s) to in-process solves\n",
                     remaining.size());
      }
      solve_locally(remaining);
      return;
    }

    // Deal the remaining jobs: sticky preferred slot when it is live, else
    // round-robin over the live slots in job order (deterministic — though
    // determinism of the *doses* never depends on placement).
    std::vector<std::size_t> live_slots;
    for (std::size_t w = 0; w < nw; ++w)
      if (alive_[w]) live_slots.push_back(w);
    std::vector<std::vector<std::size_t>> batch(nw);
    std::size_t rr = 0;
    for (const std::size_t i : remaining) {
      std::size_t w = prefer(i) % nw;
      if (!alive_[w]) w = live_slots[rr++ % live_slots.size()];
      batch[w].push_back(i);
    }

    // One writer + one reader thread per busy worker, exactly as the
    // fault-oblivious driver ran them — results stream while later jobs
    // serialize — but with every read under a deadline and every exception
    // absorbed into the attempt instead of thrown through a running thread.
    std::vector<std::unique_ptr<Attempt>> attempts(nw);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < nw; ++w) {
      if (batch[w].empty()) continue;
      attempts[w] = std::make_unique<Attempt>(std::move(batch[w]));
      Attempt& at = *attempts[w];
      WorkerSession& session = *sessions_[w];

      threads.emplace_back([&at, &session, &make_job, &seqs, this] {
        try {
          for (std::size_t k = 0; k < at.jobs.size(); ++k) {
            if (at.failed.load(std::memory_order_acquire)) break;
            wire::ShardJob job = make_job(at.jobs[k]);
            job.seq = seqs[at.jobs[k]];
            at.timeout_ms[k] =
                timeout_for_ms(job.active.size() + job.ghosts.size());
            at.sent_at[k] = clock_t_::now();
            session.send_job(job, deadline_after(at.sent_at[k], at.timeout_ms[k]));
            at.sent.store(k + 1, std::memory_order_release);
          }
        } catch (const std::exception& e) {
          at.fail(std::string("sending a job: ") + e.what());
          // Unblock the paired reader: half-closing the job stream makes a
          // healthy worker finish its queue and end the result stream.
          session.finish_jobs();
        }
      });

      threads.emplace_back([&at, &session, &apply, &done, w, this] {
        try {
          // `progress` is when this worker last gave evidence of life: the
          // attempt start, then each result. Job k's processing cannot begin
          // before both its send completed and job k-1's result came back,
          // so its deadline runs from whichever is later.
          clock_t_::time_point progress = clock_t_::now();
          for (std::size_t k = 0; k < at.jobs.size(); ++k) {
            while (at.sent.load(std::memory_order_acquire) <= k) {
              if (at.failed.load(std::memory_order_acquire)) return;
              if (timeout_ms_ > 0 &&
                  clock_t_::now() > deadline_after(progress, timeout_ms_))
                throw TimeoutError(
                    "worker stopped accepting jobs (job stream stalled)");
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            const auto deadline = deadline_after(
                std::max(progress, at.sent_at[k]), at.timeout_ms[k]);
            wire::Frame frame;
            if (!session.read_result(&frame, deadline))
              throw DataError("worker ended the result stream mid-round");
            if (frame.type != wire::MsgType::kShardResult)
              throw DataError("expected a shard result frame");
            const wire::ShardResult r = wire::decode_shard_result(frame.payload);
            apply(at.jobs[k], static_cast<int>(w), r);
            done[at.jobs[k]] = 1;
            progress = clock_t_::now();
          }
        } catch (const std::exception& e) {
          at.fail(std::string("reading a result: ") + e.what());
          // Break the paired writer out of a blocked send by shutting the
          // socket down both ways. Channel teardown stays with the post-join
          // failure path (no cross-thread teardown races).
          session.unblock_writer();
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (std::size_t w = 0; w < nw; ++w) {
      if (!attempts[w] || !attempts[w]->failed.load()) continue;
      int lost = 0;
      for (const std::size_t i : attempts[w]->jobs) lost += done[i] ? 0 : 1;
      stats_.reassigned_jobs += lost;
      handle_failure(w, attempts[w]->first_error());
    }

    std::vector<std::size_t> still;
    for (const std::size_t i : remaining)
      if (!done[i]) still.push_back(i);
    remaining = std::move(still);
  }
}

void WorkerSupervisor::shutdown() {
  // Two phases: end every session first (half-close, stop a spawned daemon)
  // so all workers wind down concurrently, then drain each with a shared
  // deadline. A worker that ignores the stop must not stall the solve's
  // epilogue — all results were already delivered and CRC-checked, so a
  // dirty end here is diagnostic, not a correctness problem: log it and
  // move on.
  for (std::size_t w = 0; w < sessions_.size(); ++w)
    if (alive_[w]) sessions_[w]->end_session();
  const auto deadline = deadline_after(clock_t_::now(), 5000.0);
  for (std::size_t w = 0; w < sessions_.size(); ++w) {
    if (!alive_[w]) continue;
    const std::string dirty = sessions_[w]->drain(deadline);
    if (!dirty.empty())
      std::fprintf(stderr, "sharded PEC: worker slot %zu at shutdown: %s\n", w,
                   dirty.c_str());
    alive_[w] = 0;
  }
  sessions_.clear();
  alive_.clear();
}

void WorkerSupervisor::terminate_all() {
  for (std::unique_ptr<WorkerSession>& s : sessions_) s->hard_stop();
  sessions_.clear();
  alive_.clear();
}

}  // namespace ebl
