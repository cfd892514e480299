// In-tree fork-join thread team shared by the deterministic parallel
// kernels (neighbor build, environment-matrix build, force/virial fold).
//
// The team size follows OpenMP (`omp_get_max_threads()`, so OMP_NUM_THREADS
// and omp_set_num_threads behave exactly as they would for a `parallel`
// region), but dispatch and barriers are built on dp::Mutex / dp::CondVar
// (std primitives under capability annotations) rather than libgomp: the
// repo's sanitizer floor
// requires TSan-green with ZERO suppressions, and libgomp's futex-based
// pool handoff and barriers are invisible to TSan (the runtime is not
// instrumented), so a pooled `#pragma omp parallel` region with mid-job
// barriers reports unfixable false races on its own capture struct. Mirrors
// the minimpi move: the in-tree primitive keeps every happens-before edge
// visible. See docs/STATIC_ANALYSIS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace dp {

/// Non-owning callable handed to the team: the lambda lives in the caller's
/// frame for the whole dispatch, so no std::function allocation ever happens
/// on a hot path.
struct BodyRef {
  void* ctx;
  void (*fn)(void*, int, int);
  template <class F, class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, BodyRef>>>
  explicit BodyRef(F& f)
      : ctx(&f), fn([](void* c, int t, int T) { (*static_cast<F*>(c))(t, T); }) {}
  void operator()(int t, int T) const { fn(ctx, t, T); }
};

/// Contiguous, ascending split of [0, n) for thread t of T. Contiguity in
/// thread order is load-bearing: it makes "(thread, position in chunk)"
/// order equal global index order, which is what keeps the parallel
/// counting sorts and the slab copies byte-identical to the serial path.
inline std::size_t chunk_bound(std::size_t n, int t, int T) {
  return n * static_cast<std::size_t>(t) / static_cast<std::size_t>(T);
}

/// Persistent fork-join team, one per master thread (rank threads in the
/// distributed driver each get their own — the same per-rank ownership the
/// neighbor list follows).
///
/// Happens-before: the master publishes the job (body pointer, T) under
/// `mu_` and workers read it under `mu_` — lock hand-off edge in; workers
/// bump `done_` under `mu_` and the master waits for all of them — edge
/// out. barrier() is the minimpi generation barrier. Discipline: one
/// master per team (thread_local singleton via team()), and every one of
/// the T participants of a job must execute the same sequence of barrier()
/// calls, which each caller's phase structure must guarantee.
///
/// A participant that throws aborts the job instead of stranding the
/// others in a barrier it will never reach: its exception is kept, the
/// participants still in the job unwind at their next barrier(), and run()
/// rethrows the first exception on the caller once every participant has
/// checked in. A body must let that unwinding pass (no catch (...) that
/// swallows it). The team stays usable for the next job.
class BuildTeam {
 public:
  ~BuildTeam() {
    {
      MutexLock lk(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  /// Runs body(t, T) on T threads; the caller executes t = 0. Returns after
  /// every worker (participant or not) has checked in, or rethrows the
  /// first exception a participant threw.
  void run(int T, BodyRef body) {
    if (T <= 1 && workers_.empty()) {
      {
        // No workers exist yet, so no other thread can touch team state —
        // but the published width is mutex-guarded state everywhere else,
        // and the discipline is uniform: never write it unlocked.
        MutexLock lk(mu_);
        T_ = 1;
      }
      body(0, 1);
      return;
    }
    if (static_cast<int>(workers_.size()) < T - 1) {
      // A worker spawned now must wait for THIS job, not take the retired
      // one still published as job_gen_: a stale check-in would count
      // toward this job's done_ and let run() return while a participant
      // is still inside the body.
      std::uint64_t retired = 0;
      {
        MutexLock lk(mu_);
        retired = job_gen_;
      }
      while (static_cast<int>(workers_.size()) < T - 1)
        workers_.emplace_back(&BuildTeam::worker, this,
                              static_cast<int>(workers_.size()) + 1, retired);
    }
    {
      MutexLock lk(mu_);
      body_ = &body;
      T_ = T;
      done_ = 0;
      bar_count_ = 0;
      ++job_gen_;
    }
    job_cv_.notify_all();
    participate(body, 0, T);
    std::exception_ptr error;
    {
      MutexUniqueLock lk(mu_);
      while (done_ != workers_.size()) done_cv_.wait(lk);
      body_ = nullptr;
      error = std::exchange(error_, nullptr);
      aborted_ = false;
    }
    if (error) std::rethrow_exception(error);
  }

  /// Generation barrier across the T participants of the current job. In
  /// an aborted job it unwinds its caller instead.
  void barrier() {
    MutexUniqueLock lk(mu_);
    if (aborted_) throw JobAborted{};
    const std::uint64_t gen = bar_gen_;
    if (++bar_count_ == T_) {
      bar_count_ = 0;
      ++bar_gen_;
      bar_cv_.notify_all();
    } else {
      // Explicit loop, not wait(pred): keeps the guarded generation read in
      // this annotated body where the capability analysis can see it.
      while (bar_gen_ == gen && !aborted_) bar_cv_.wait(lk);
      if (bar_gen_ == gen) throw JobAborted{};
    }
  }

  /// The calling thread's persistent team, created on first use and torn
  /// down at thread exit. thread_local keeps the one-master discipline by
  /// construction; sequential kernels on one master share the same team.
  static BuildTeam& team() {
    static thread_local BuildTeam instance;
    return instance;
  }

 private:
  /// What barrier() throws to unwind a participant of an aborted job.
  struct JobAborted {};

  /// body(t, T); an exception it throws aborts the job instead of leaving
  /// this thread. The first one is kept for run().
  void participate(const BodyRef& body, int t, int T) {
    try {
      body(t, T);
    } catch (const JobAborted&) {
      // Unwound by barrier(): the job's first exception is already kept.
    } catch (...) {
      MutexLock lk(mu_);
      if (!error_) error_ = std::current_exception();
      aborted_ = true;
      bar_cv_.notify_all();
    }
  }

  void worker(int idx, std::uint64_t seen) {
    for (;;) {
      const BodyRef* body = nullptr;
      int T = 0;
      {
        MutexUniqueLock lk(mu_);
        while (!stop_ && job_gen_ == seen) job_cv_.wait(lk);
        if (stop_) return;
        seen = job_gen_;
        body = body_;
        T = T_;
      }
      // Workers beyond the current T (left over from a wider earlier job)
      // skip the body but still check in, so run() can retire the job.
      if (idx < T) participate(*body, idx, T);
      {
        MutexLock lk(mu_);
        ++done_;
      }
      done_cv_.notify_one();
    }
  }

  Mutex mu_;
  CondVar job_cv_, done_cv_, bar_cv_;
  std::vector<std::thread> workers_;  // master-only: grown and joined by the owner
  const BodyRef* body_ DP_GUARDED_BY(mu_) = nullptr;
  int T_ DP_GUARDED_BY(mu_) = 1;
  std::size_t done_ DP_GUARDED_BY(mu_) = 0;
  std::uint64_t job_gen_ DP_GUARDED_BY(mu_) = 0;
  std::uint64_t bar_gen_ DP_GUARDED_BY(mu_) = 0;
  int bar_count_ DP_GUARDED_BY(mu_) = 0;
  bool stop_ DP_GUARDED_BY(mu_) = false;
  // Abort state of the current job. Happens-before: a throwing participant
  // stores its exception and sets aborted_ under mu_, then wakes bar_cv_;
  // barrier waiters re-read aborted_ under mu_. run() takes error_ under
  // mu_ only after done_ counts every worker, and each check-in is a later
  // critical section of mu_ than that worker's store, so the rethrow sees
  // every participant's outcome and no participant still runs the body.
  // run() clears both before it returns or rethrows.
  std::exception_ptr error_ DP_GUARDED_BY(mu_);
  bool aborted_ DP_GUARDED_BY(mu_) = false;
};

}  // namespace dp
