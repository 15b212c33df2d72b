//===- parallel/ThreadPool.h - Shared-index worker pool ---------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool built for the LIR evaluator's parallel loops:
/// N-1 persistent worker threads plus the calling thread, and a single
/// blocking entry point `parallelFor` that acts as a barrier — it
/// returns only once every task has finished. Each call publishes one
/// job record holding the closure, the task count, a shared claim index
/// and a completion count; every thread claims the next index until
/// none are left. The evaluator submits a few equal-sized chunks per
/// loop, so one shared index balances them without per-worker queues.
///
/// Tasks must not throw; error reporting happens through whatever state
/// the task closure captures (the evaluator records the lexically first
/// failing iteration under its own mutex).
///
//===----------------------------------------------------------------------===//

#ifndef HAC_PARALLEL_THREADPOOL_H
#define HAC_PARALLEL_THREADPOOL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace hac {
namespace par {

/// One worker's utilization counters, monotonic since pool construction
/// or the last resetStats().
struct WorkerStats {
  uint64_t Tasks = 0;     ///< tasks executed by this worker
  uint64_t IdleNanos = 0; ///< time spent blocked waiting for work
};

/// A consistent-enough snapshot of the pool's utilization counters.
/// Individual counters are exact; cross-counter relations (e.g. Tasks
/// vs Jobs) are only guaranteed when no job is in flight.
struct PoolStats {
  uint64_t Jobs = 0;  ///< parallelFor calls that ran tasks
  uint64_t Tasks = 0; ///< sum of Workers[i].Tasks
  std::vector<WorkerStats> Workers;
};

class ThreadPool {
public:
  /// Creates a pool of \p Threads total workers (the calling thread
  /// counts as one, so Threads - 1 OS threads are spawned). Threads == 0
  /// is treated as defaultThreads().
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total worker count, including the caller.
  unsigned threads() const;

  /// Runs Fn(Task) for every Task in [0, NumTasks), each worker claiming
  /// the next unclaimed index; the caller participates and the call
  /// returns only when all tasks are done (a barrier). Not reentrant:
  /// Fn must not call parallelFor on the same pool.
  void parallelFor(size_t NumTasks, const std::function<void(size_t)> &Fn);

  /// Enqueues \p Fn on the pool's detached background lane and returns
  /// immediately. Background tasks run FIFO on one dedicated thread
  /// (created lazily on first submit) so they never contend with
  /// parallelFor's barrier workers — the JIT uses this for async kernel
  /// compilation while the evaluator keeps running. Tasks must not
  /// throw. The destructor drains the lane before joining.
  void submit(std::function<void()> Fn);

  /// Blocks until every submitted background task has finished. A no-op
  /// when nothing was ever submitted.
  void waitBackground();

  /// Background tasks still queued or running.
  size_t pendingBackground() const;

  /// Snapshots the utilization counters (relaxed atomic loads — callable
  /// at any time, including while a job runs).
  PoolStats stats() const;

  /// Zeroes all utilization counters.
  void resetStats();

  /// The pool lane index of the calling thread: 0 for the thread that
  /// invoked parallelFor (and for any thread outside a pool), 1..N-1 for
  /// the pool's own workers. Timeline spans use this as their lane id.
  static unsigned currentWorker();

  /// The HAC_THREADS environment override when set to a positive number,
  /// otherwise std::thread::hardware_concurrency() (at least 1).
  static unsigned defaultThreads();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace par
} // namespace hac

#endif // HAC_PARALLEL_THREADPOOL_H
