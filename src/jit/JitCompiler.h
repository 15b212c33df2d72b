//===- jit/JitCompiler.h - Tiered kernel compilation ------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the evaluator's post-pass LIR programs into loaded native
/// kernels, asynchronously when asked: `acquire` returns a KernelEntry
/// immediately (Pending while cc runs on the pool's background lane),
/// and the Executor keeps interpreting until the entry flips to Ready —
/// the tier swap. Kernels are deduplicated twice: an in-memory table
/// keyed by the content hash for this process, and the on-disk
/// KernelCache across processes (a warm cache never spawns cc at all).
///
/// The compiler is process-global by design (`JitCompiler::global()`):
/// two Executors running the same plan share one kernel and one
/// compile. Tests construct private instances against scratch cache
/// directories instead.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_JIT_JITCOMPILER_H
#define HAC_JIT_JITCOMPILER_H

#include "jit/Jit.h"
#include "jit/KernelCache.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace hac {

namespace lir {
struct LIRProgram;
}
namespace par {
class ThreadPool;
}

namespace jit {

/// One kernel's lifecycle. Created Pending; a compile (or disk-cache
/// load) flips it to Ready with Fn set, or Failed with Error set.
/// Publication is release/acquire through St, so a reader that observes
/// Ready/Failed may read Fn/Error without further synchronization.
struct KernelEntry {
  enum State : int { Pending = 0, Ready = 1, Failed = 2 };

  std::atomic<int> St{Pending};
  std::atomic<KernelFn> Fn{nullptr};
  /// lir::canFail of the program (a check.idx, check.nonzero or
  /// check.collision can fire): callers must snapshot the target before a native
  /// run so a nonzero rc can restore and re-run through the evaluator
  /// for the exact error message.
  bool CanFail = false;
  std::string KeyHex;  ///< content hash, for telemetry and -dump-lir
  std::string Error;   ///< Failed only: emission or cc diagnostics
  bool FromDisk = false; ///< Ready via warm disk cache (no cc spawned)

  State state() const {
    return static_cast<State>(St.load(std::memory_order_acquire));
  }
};

/// Monotonic counters, mirrored onto jit.* trace counters as they
/// happen.
struct JitStats {
  uint64_t Compiles = 0;       ///< cc invocations that produced a kernel
  uint64_t CompileFailures = 0;
  uint64_t CacheHits = 0;      ///< memory-table + disk reuses
  uint64_t CacheMisses = 0;
  uint64_t Evictions = 0;      ///< disk entries removed by the size cap
  uint64_t Corrupt = 0;        ///< disk entries unlinked as unusable
  uint64_t CompileNanos = 0;   ///< wall time inside cc + emission
};

class JitCompiler {
public:
  struct Config {
    std::string CacheDir;            ///< on-disk cache location
    uint64_t CacheBytes = 256ull << 20;
  };

  explicit JitCompiler(Config C);
  ~JitCompiler();

  JitCompiler(const JitCompiler &) = delete;
  JitCompiler &operator=(const JitCompiler &) = delete;

  /// The process-wide instance, configured from HAC_JIT_CACHE /
  /// HAC_JIT_CACHE_MB on first use.
  static JitCompiler &global();

  /// Returns the kernel entry for \p EvalProg — the evaluator's own
  /// post-pass (optimized, sealed, eval-legalized) program. The
  /// compiler copies it, re-legalizes the copy under the stricter JIT
  /// parallel rules when \p Threads > 1, and keys the result by
  /// content. A known kernel returns its existing entry (any state).
  /// Otherwise: with \p Async and a \p Pool, compilation is enqueued on
  /// the pool's background lane and the entry returns Pending; without,
  /// it compiles before returning (Ready or Failed).
  std::shared_ptr<KernelEntry> acquire(const lir::LIRProgram &EvalProg,
                                       unsigned Threads, bool Async,
                                       par::ThreadPool *Pool);

  /// Blocks until no acquire-spawned compile is in flight. Async tests
  /// and deterministic shutdown use this.
  void waitIdle();

  JitStats stats() const;
  const std::string &cacheDir() const { return Cache.dir(); }

private:
  struct PendingGuard;
  void compileEntry(std::shared_ptr<KernelEntry> Entry,
                    std::shared_ptr<lir::LIRProgram> Prog,
                    const KernelKey &Key, unsigned Threads, bool OpenMP);

  mutable std::mutex M;      ///< table, stats, in-flight count
  std::mutex CacheM;         ///< on-disk cache metadata
  std::condition_variable IdleCV;
  std::map<uint64_t, std::shared_ptr<KernelEntry>> Table;
  KernelCache Cache;
  JitStats Stats;
  uint64_t InFlight = 0;
};

} // namespace jit
} // namespace hac

#endif // HAC_JIT_JITCOMPILER_H
