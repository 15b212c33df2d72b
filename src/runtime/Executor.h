//===- runtime/Executor.h - LIR plan execution ------------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes ExecPlans against flat DoubleArray storage: the thunkless
/// evaluation path. Each plan is lowered once to the unified Loop IR
/// (src/lir/), optimized, and cached; the hot path is then the compact
/// LIREval register machine — no per-element AST dispatch, no name
/// lookups, no re-derived multiply chains. Semantics (evaluation order,
/// runtime error messages, ExecStats counters) match the seed
/// tree-walking executor.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_RUNTIME_EXECUTOR_H
#define HAC_RUNTIME_EXECUTOR_H

#include "codegen/ExecPlan.h"
#include "jit/Jit.h"
#include "runtime/DoubleArray.h"
#include "runtime/ExecStats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hac {

namespace par {
class ThreadPool;
}
namespace jit {
class JitCompiler;
}

struct LIRCacheImpl;

/// Per-executor tallies of the tiered-execution decisions (mirrored
/// onto the jit.* trace counters as they happen).
struct JitExecStats {
  uint64_t NativeRuns = 0; ///< runs executed by a compiled kernel
  uint64_t InterpRuns = 0; ///< runs executed by the LIR evaluator
  uint64_t TierSwaps = 0;  ///< plans that interpreted first, then went native
  uint64_t Fallbacks = 0;  ///< kernels that failed to build (warned once each)
};

/// Counters of the per-executor lowered-LIR cache (mirrored onto the
/// trace counters `lir.cache.{hits,misses,evictions}`).
struct LIRCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0;
  size_t Capacity = 0;
};

/// Executes plans. One executor may run many plans; stats accumulate
/// until reset. Lowered LIR is cached per (plan, shapes, mode) inside
/// the executor instance.
class Executor {
public:
  explicit Executor(ParamEnv Params = {});

  /// Makes an input array visible to clause values under \p Name.
  void bindInput(const std::string &Name, const DoubleArray *Array);

  /// Forgets every bound input. Module evaluation rebinds arrays into
  /// pool storage each run; stale bindings from an earlier run would
  /// dangle once that run's pool is destroyed.
  void clearInputs() { Inputs.clear(); }

  /// When set, every read of the target array checks the defined bitmap —
  /// a validation mode used by the schedule-safety property tests.
  void setValidateReads(bool V) { ValidateReads = V; }

  /// Disables the LIR optimization passes (lir::optimize: LICM, strength
  /// reduction, check hoisting, IV coalescing, DCE, counter folding). On
  /// by default; bench_lir flips this for the passes-off ablation.
  void setLIROptimize(bool V) { LIROptimize = V; }

  /// Disables the abstract-interpretation second-chance check
  /// elimination that runs after the optimization passes. On by
  /// default; bench_checks flips this to measure residual checks.
  void setLIRSecondChance(bool V) { LIRSecondChance = V; }

  /// Sets the worker count for parallel loop execution; 1 (the default)
  /// runs every loop serially. The cached LIR serves every count, so a
  /// change drops only each plan's native kernel (pinned to one count).
  /// 0 picks the HAC_THREADS environment override or else
  /// std::thread::hardware_concurrency(). The lazily created thread pool
  /// is shared across runs of this executor.
  void setNumThreads(unsigned N);
  unsigned numThreads() const { return Threads; }

  /// Execution-tier policy (default: the HAC_JIT environment policy,
  /// i.e. Off unless HAC_JIT=sync|async). Sync compiles a native kernel
  /// before a plan's first run; Async keeps interpreting while cc runs
  /// on the pool's background lane and hot-swaps once the kernel is
  /// ready. Either way results are bit-identical to the evaluator:
  /// kernels render the same post-pass LIR, execute the same residual
  /// checks, and report the same ExecStats counter block. Plans without
  /// a builder Id (not LIR-cacheable) and validate-reads runs always
  /// interpret.
  void setJitMode(jit::JitMode M) { JitM = M; }
  jit::JitMode jitMode() const { return JitM; }

  /// Overrides the kernel compiler (default: JitCompiler::global()).
  /// Tests inject instances pointed at scratch cache directories; the
  /// pointer is borrowed and must outlive the executor's runs.
  void setJitCompiler(jit::JitCompiler *C) { JitC = C; }

  /// Tier decisions made so far (native vs interpreted runs, hot swaps,
  /// build-failure fallbacks).
  const JitExecStats &jitStats() const { return JitE; }

  /// Runs \p Plan against \p Target. For construction plans the target
  /// must have Plan.Dims' shape (with a defined bitmap, all clear, when
  /// the plan checks collisions or empties); its element values do not
  /// matter. A run whose coverage is proven writes every element once,
  /// so the executor prefills the target only when the plan is an
  /// accumArray (with ExecPlan::AccumInit), sweeps for empties, or can
  /// fail mid-run (lir::canFail; with zero, so a failed run leaves the
  /// same state whatever the target held). For in-place plans the target
  /// holds the old contents and is never prefilled. Returns false with
  /// \p Err set on a runtime error (failed check, unsupported
  /// expression, ...).
  bool run(const ExecPlan &Plan, DoubleArray &Target, std::string &Err);

  ExecStats &stats() { return Stats; }
  const ExecStats &stats() const { return Stats; }
  void resetStats() { Stats = ExecStats(); }

  /// Hit/miss/eviction counters of the LIR cache. The capacity comes
  /// from HAC_PLAN_CACHE (default 64, minimum 1); module runs compile
  /// many plans, so the cache is LRU-bounded instead of unbounded.
  LIRCacheStats lirCacheStats() const;

private:
  bool runImpl(const ExecPlan &Plan, DoubleArray &Target, std::string &Err);

  ParamEnv Params;
  std::map<std::string, const DoubleArray *> Inputs;
  ExecStats Stats;
  bool ValidateReads = false;
  bool LIROptimize = true;
  bool LIRSecondChance = true;
  unsigned Threads = 1;
  jit::JitMode JitM;
  jit::JitCompiler *JitC = nullptr; ///< null means JitCompiler::global()
  JitExecStats JitE;
  std::shared_ptr<par::ThreadPool> Pool;
  std::shared_ptr<LIRCacheImpl> Cache;
};

} // namespace hac

#endif // HAC_RUNTIME_EXECUTOR_H
