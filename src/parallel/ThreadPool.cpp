//===- parallel/ThreadPool.cpp - Shared-index worker pool -----------------===//

#include "parallel/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace hac;
using namespace hac::par;

namespace {

/// One parallelFor call. Workers claim task indices through Next and
/// report completions through Done. The record is shared-owned so that
/// a worker waking after the call returned still holds valid counters:
/// its claim lands at or past N and it never dereferences Fn, which the
/// caller owns and may already have destroyed.
struct Job {
  Job(const std::function<void(size_t)> &Fn, size_t N) : Fn(&Fn), N(N) {}
  const std::function<void(size_t)> *Fn;
  size_t N;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
};

/// One worker's utilization counters. All relaxed: each counter is an
/// independent monotonic tally, and readers (stats()) only need eventual
/// per-counter values, not cross-counter ordering. Cache-line padded so
/// workers never bounce each other's counters.
struct alignas(64) WStats {
  std::atomic<uint64_t> Tasks{0};
  std::atomic<uint64_t> IdleNanos{0};
};

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calling thread's lane within its pool (0 outside a pool).
thread_local unsigned CurWorker = 0;

} // namespace

struct ThreadPool::Impl {
  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<WStats>> Stats;
  std::atomic<uint64_t> Jobs{0};

  std::mutex JobM;
  std::condition_variable JobCV;  // workers wait here for a new Cur
  std::condition_variable DoneCV; // parallelFor waits here for the barrier
  std::shared_ptr<Job> Cur;       // the latest job; guarded by JobM
  bool Shutdown = false;

  // The detached background lane: one dedicated thread, FIFO queue,
  // created lazily by the first submit() so pools that never compile
  // anything pay nothing.
  mutable std::mutex BgM;
  std::condition_variable BgCV;     // the background thread waits here
  std::condition_variable BgIdleCV; // waitBackground() waits here
  std::deque<std::function<void()>> BgQueue;
  std::thread BgThread;
  size_t BgPending = 0; // queued + running
  bool BgShutdown = false;

  void backgroundLoop() {
    for (;;) {
      std::function<void()> Fn;
      {
        std::unique_lock<std::mutex> Lock(BgM);
        BgCV.wait(Lock, [&] { return BgShutdown || !BgQueue.empty(); });
        if (BgQueue.empty())
          return; // shutdown with a drained queue
        Fn = std::move(BgQueue.front());
        BgQueue.pop_front();
      }
      Fn();
      {
        std::lock_guard<std::mutex> Lock(BgM);
        --BgPending;
        if (BgPending == 0)
          BgIdleCV.notify_all();
      }
    }
  }

  /// Runs task \p T of \p J on lane \p Self, then every further task it
  /// can claim, waking the caller when the last task finishes. Tallies
  /// are bumped before Done so the caller's stats() sees them after the
  /// barrier.
  void work(Job &J, unsigned Self, size_t T) {
    for (; T < J.N; T = J.Next.fetch_add(1, std::memory_order_relaxed)) {
      (*J.Fn)(T);
      Stats[Self]->Tasks.fetch_add(1, std::memory_order_relaxed);
      if (J.Done.fetch_add(1, std::memory_order_acq_rel) + 1 == J.N) {
        std::lock_guard<std::mutex> Lock(JobM);
        DoneCV.notify_all();
      }
    }
  }

  void workerLoop(unsigned Self) {
    CurWorker = Self;
    // Holding the last job keeps its address from being reused, so a
    // pointer comparison is enough to spot the next one.
    std::shared_ptr<Job> Mine;
    uint64_t IdleSince = nowNanos();
    for (;;) {
      {
        std::unique_lock<std::mutex> Lock(JobM);
        JobCV.wait(Lock, [&] { return Shutdown || Cur != Mine; });
        if (Shutdown)
          return;
        Mine = Cur;
      }
      // A worker that wakes after every task was claimed stays idle and
      // charges nothing, so no idle time lands after the barrier opened.
      size_t T = Mine->Next.fetch_add(1, std::memory_order_relaxed);
      if (T >= Mine->N)
        continue;
      Stats[Self]->IdleNanos.fetch_add(nowNanos() - IdleSince,
                                       std::memory_order_relaxed);
      work(*Mine, Self, T);
      IdleSince = nowNanos();
    }
  }
};

ThreadPool::ThreadPool(unsigned Threads) : P(std::make_unique<Impl>()) {
  if (Threads == 0)
    Threads = defaultThreads();
  P->NumThreads = Threads;
  P->Stats.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    P->Stats.push_back(std::make_unique<WStats>());
  // Worker 0 is the calling thread.
  for (unsigned I = 1; I != Threads; ++I)
    P->Workers.emplace_back([this, I] { P->workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(P->JobM);
    P->Shutdown = true;
    P->JobCV.notify_all();
  }
  for (std::thread &T : P->Workers)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(P->BgM);
    P->BgShutdown = true;
    P->BgCV.notify_all();
  }
  if (P->BgThread.joinable())
    P->BgThread.join();
}

void ThreadPool::submit(std::function<void()> Fn) {
  std::lock_guard<std::mutex> Lock(P->BgM);
  if (!P->BgThread.joinable())
    P->BgThread = std::thread([this] { P->backgroundLoop(); });
  P->BgQueue.push_back(std::move(Fn));
  ++P->BgPending;
  P->BgCV.notify_one();
}

void ThreadPool::waitBackground() {
  std::unique_lock<std::mutex> Lock(P->BgM);
  P->BgIdleCV.wait(Lock, [&] { return P->BgPending == 0; });
}

size_t ThreadPool::pendingBackground() const {
  std::lock_guard<std::mutex> Lock(P->BgM);
  return P->BgPending;
}

unsigned ThreadPool::threads() const { return P->NumThreads; }

void ThreadPool::parallelFor(size_t NumTasks,
                             const std::function<void(size_t)> &Fn) {
  if (NumTasks == 0)
    return;
  P->Jobs.fetch_add(1, std::memory_order_relaxed);
  if (P->NumThreads == 1 || NumTasks == 1) {
    for (size_t T = 0; T != NumTasks; ++T)
      Fn(T);
    P->Stats[0]->Tasks.fetch_add(NumTasks, std::memory_order_relaxed);
    return;
  }
  auto J = std::make_shared<Job>(Fn, NumTasks);
  {
    std::lock_guard<std::mutex> Lock(P->JobM);
    P->Cur = J;
    P->JobCV.notify_all();
  }
  // The caller works too, then waits out the barrier.
  P->work(*J, 0, J->Next.fetch_add(1, std::memory_order_relaxed));
  uint64_t T0 = nowNanos();
  std::unique_lock<std::mutex> Lock(P->JobM);
  P->DoneCV.wait(Lock, [&] {
    return J->Done.load(std::memory_order_acquire) == NumTasks;
  });
  P->Stats[0]->IdleNanos.fetch_add(nowNanos() - T0,
                                   std::memory_order_relaxed);
}

PoolStats ThreadPool::stats() const {
  PoolStats S;
  S.Jobs = P->Jobs.load(std::memory_order_relaxed);
  S.Workers.reserve(P->NumThreads);
  for (const auto &W : P->Stats) {
    WorkerStats WS;
    WS.Tasks = W->Tasks.load(std::memory_order_relaxed);
    WS.IdleNanos = W->IdleNanos.load(std::memory_order_relaxed);
    S.Tasks += WS.Tasks;
    S.Workers.push_back(WS);
  }
  return S;
}

void ThreadPool::resetStats() {
  P->Jobs.store(0, std::memory_order_relaxed);
  for (const auto &W : P->Stats) {
    W->Tasks.store(0, std::memory_order_relaxed);
    W->IdleNanos.store(0, std::memory_order_relaxed);
  }
}

unsigned ThreadPool::currentWorker() { return CurWorker; }

unsigned ThreadPool::defaultThreads() {
  if (const char *Env = std::getenv("HAC_THREADS"); Env && *Env) {
    char *End = nullptr;
    errno = 0;
    long N = std::strtol(Env, &End, 10);
    if (errno != 0 || End == Env || *End != '\0') {
      // Garbage is refused, not silently treated as 0 threads.
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS='%s' is not an integer; "
                   "using hardware concurrency\n",
                   Env);
    } else if (N < 1) {
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS=%ld clamped to 1\n", N);
      return 1;
    } else if (N > 4096) {
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS=%ld clamped to 4096\n", N);
      return 4096;
    } else {
      return static_cast<unsigned>(N);
    }
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}
