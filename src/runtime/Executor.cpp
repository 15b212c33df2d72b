//===- runtime/Executor.cpp - LIR plan execution --------------------------===//

#include "runtime/Executor.h"

#include "jit/JitCompiler.h"
#include "lir/LIREval.h"
#include "lir/LIRPasses.h"
#include "parallel/ParPlan.h"
#include "parallel/ThreadPool.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>

using namespace hac;

namespace hac {

/// Per-executor cache of lowered programs. Keyed on the plan's builder-
/// assigned Id plus everything else the lowering depends on; the
/// structural salt (statement count, endpoints, check flags) guards the
/// rare case of a mutated plan copy carrying a stale Id.
///
/// LRU-bounded: entries live in a list ordered most-recent-first (a hit
/// splices to the front, pointers stay stable), and inserting past the
/// HAC_PLAN_CACHE capacity evicts the back.
struct LIRCacheImpl {
  struct Key {
    uint64_t PlanId = 0;
    bool ValidateReads = false;
    bool Optimize = true;
    bool SecondChance = true;
    size_t NumStmts = 0;
    const void *FirstStmt = nullptr;
    const void *LastStmt = nullptr;
    uint8_t CheckFlags = 0;
    ArrayDims TargetDims;
    std::map<std::string, ArrayDims> InputDims;

    bool operator==(const Key &O) const = default;
  };
  struct Entry {
    Key K;
    lir::LIRProgram Prog;
    /// The plan's native kernel (shared with the JitCompiler table), or
    /// null while JIT is off / not yet requested for this entry.
    std::shared_ptr<jit::KernelEntry> Jit = nullptr;
    bool Interpreted = false; ///< some run of this entry used the evaluator
    bool SwapCounted = false; ///< the interp→native swap was tallied
    bool JitWarned = false;   ///< the build-failure fallback was reported
  };
  std::list<Entry> Entries; ///< most recently used first
  size_t Capacity;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;

  LIRCacheImpl() : Capacity(capacityFromEnv()) {}

  /// HAC_PLAN_CACHE: strict integer parse; garbage keeps the default of
  /// 64 with a warning, and values below 1 clamp to 1 with a warning.
  static size_t capacityFromEnv() {
    const char *Env = std::getenv("HAC_PLAN_CACHE");
    if (!Env || !*Env)
      return 64;
    char *End = nullptr;
    errno = 0;
    long N = std::strtol(Env, &End, 10);
    if (errno != 0 || End == Env || *End != '\0') {
      std::fprintf(stderr,
                   "hac: warning: HAC_PLAN_CACHE='%s' is not an integer; "
                   "using the default of 64\n",
                   Env);
      return 64;
    }
    if (N < 1) {
      std::fprintf(stderr,
                   "hac: warning: HAC_PLAN_CACHE=%ld clamped to 1\n", N);
      return 1;
    }
    return static_cast<size_t>(N);
  }
};

} // namespace hac

namespace {

LIRCacheImpl::Key makeKey(const ExecPlan &Plan, bool ValidateReads,
                          bool Optimize, bool SecondChance,
                          const ArrayDims &TargetDims,
                          std::map<std::string, ArrayDims> InputDims) {
  LIRCacheImpl::Key K;
  K.PlanId = Plan.Id;
  K.ValidateReads = ValidateReads;
  K.Optimize = Optimize;
  K.SecondChance = SecondChance;
  K.NumStmts = Plan.Stmts.size();
  auto Addr = [](const PlanStmt &S) -> const void * {
    return S.Clause ? (const void *)S.Clause : (const void *)S.Loop;
  };
  if (!Plan.Stmts.empty()) {
    K.FirstStmt = Addr(Plan.Stmts.front());
    K.LastStmt = Addr(Plan.Stmts.back());
  }
  K.CheckFlags = (Plan.CheckStoreBounds ? 1 : 0) |
                 (Plan.CheckCollisions ? 2 : 0) | (Plan.CheckEmpties ? 4 : 0) |
                 (Plan.CheckReadBounds ? 8 : 0) | (Plan.InPlace ? 16 : 0);
  K.TargetDims = TargetDims;
  K.InputDims = std::move(InputDims);
  return K;
}

/// Converts one run's EvalProfile into the sink's source-attributed
/// form. The par class reported is the one the loop *executed* as:
/// the sealed program's LoopBegin flags when a pool ran it, "serial"
/// otherwise (a -j1 run of a doall-planned loop is a serial loop).
void recordProfile(const ExecPlan &Plan, const lir::LIRProgram &P,
                   const lir::EvalProfile &EP, bool Parallel,
                   const char *Tier = "interp") {
  ProgramProfile PP;
  PP.Name = Plan.TargetName;
  PP.Tier = Tier;
  PP.Runs = 1;
  PP.RootInstrs = EP.RootInstrs;
  PP.RootChecks = EP.RootChecks;
  PP.RootNanos = EP.RootNanos;
  std::vector<par::ParClass> Exec(P.Loops.size(), par::ParClass::Serial);
  if (Parallel)
    for (const lir::LInst &I : P.Code) {
      if (I.Op != lir::LOp::LoopBegin || I.Meta < 0)
        continue;
      if (I.parDoall())
        Exec[I.Meta] = par::ParClass::Doall;
      else if (I.parWaveOuter())
        Exec[I.Meta] = par::ParClass::WaveOuter;
      else if (I.parWaveInner())
        Exec[I.Meta] = par::ParClass::WaveInner;
    }
  PP.Loops.reserve(P.Loops.size());
  for (size_t L = 0; L != P.Loops.size(); ++L) {
    const lir::LoopMeta &M = P.Loops[L];
    ProfiledLoop PL;
    PL.Var = M.Var;
    PL.Line = M.Line;
    PL.Col = M.Col;
    PL.Depth = M.Depth;
    PL.Parent = M.Parent;
    PL.ParClass = par::parClassName(Exec[L]);
    PL.Witness = M.Witness;
    if (L < EP.Loops.size()) {
      const lir::LoopProfile &LP = EP.Loops[L];
      PL.Entries = LP.Entries;
      PL.Trips = LP.Trips;
      PL.Instrs = LP.Instrs;
      PL.Checks = LP.Checks;
      PL.Nanos = LP.Nanos;
    }
    PP.Loops.push_back(std::move(PL));
  }
  ProfileSink::get().record(PP);
}

} // namespace

Executor::Executor(ParamEnv Params)
    : Params(std::move(Params)), JitM(jit::jitModeFromEnv()) {}

void Executor::setNumThreads(unsigned N) {
  if (N == 0)
    N = par::ThreadPool::defaultThreads();
  if (N != Threads) {
    Threads = N;
    Pool.reset(); // rebuilt lazily at the next parallel run
    // The cached programs serve every thread count, but a kernel is
    // legalized and pinned for one; each entry re-acquires its own.
    if (Cache)
      for (LIRCacheImpl::Entry &E : Cache->Entries)
        E.Jit.reset();
  }
}

void Executor::bindInput(const std::string &Name, const DoubleArray *Array) {
  Inputs[Name] = Array;
}

LIRCacheStats Executor::lirCacheStats() const {
  LIRCacheStats S;
  S.Capacity = Cache ? Cache->Capacity : LIRCacheImpl::capacityFromEnv();
  if (Cache) {
    S.Hits = Cache->Hits;
    S.Misses = Cache->Misses;
    S.Evictions = Cache->Evictions;
    S.Entries = Cache->Entries.size();
  }
  return S;
}

bool Executor::runImpl(const ExecPlan &Plan, DoubleArray &Target,
                       std::string &Err) {
  // The target's own dims are authoritative: update plans carry empty
  // Dims, and the seed linearized through the target everywhere.
  const ArrayDims &TargetDims = Target.dims();
  std::map<std::string, ArrayDims> InDims;
  for (const auto &[Name, Arr] : Inputs)
    InDims[Name] = Arr->dims();

  if (!Cache)
    Cache = std::make_shared<LIRCacheImpl>();
  LIRCacheImpl::Key Key =
      makeKey(Plan, ValidateReads, LIROptimize, LIRSecondChance, TargetDims,
              std::move(InDims));

  const lir::LIRProgram *Prog = nullptr;
  LIRCacheImpl::Entry *CacheEnt = nullptr;
  if (Plan.Id != 0) {
    for (auto It = Cache->Entries.begin(); It != Cache->Entries.end(); ++It)
      if (It->K == Key) {
        // Move-to-front keeps the list LRU-ordered; splicing does not
        // invalidate the program pointer.
        Cache->Entries.splice(Cache->Entries.begin(), Cache->Entries, It);
        CacheEnt = &Cache->Entries.front();
        Prog = &CacheEnt->Prog;
        break;
      }
    if (Prog) {
      ++Cache->Hits;
      HAC_TRACE_COUNT("lir.cache.hits");
    } else {
      ++Cache->Misses;
      HAC_TRACE_COUNT("lir.cache.misses");
    }
  }

  lir::LIRProgram Local;
  if (!Prog) {
    {
      TraceSpan Span("lower.lir");
      lir::PipelineOptions Opts;
      Opts.Optimize = LIROptimize;
      Opts.SecondChance = LIRSecondChance;
      Opts.ValidateReads = ValidateReads;
      if (!lir::buildProgram(Plan, TargetDims, Params, Key.InputDims, Opts,
                             Local, Err))
        return false;
    }
    if (traceEnabled()) {
      TraceSink &S = TraceSink::get();
      S.count("lir.instrs", Local.Code.size());
      S.count("lir.hoisted", Local.NumHoisted);
      S.count("lir.strength_reduced", Local.NumStrengthReduced);
      S.count("lir.dce", Local.NumDce);
      S.count("lir.ivs_coalesced", Local.NumIvsCoalesced);
      S.count("lir.counters_folded", Local.NumCountersFolded);
      S.count("lir.absint.second_chance", Local.NumAbsintElim);
      if (Threads > 1) {
        uint64_t Doall = 0, Wave = 0;
        for (const lir::LInst &I : Local.Code)
          if (I.Op == lir::LOp::LoopBegin) {
            Doall += I.parDoall();
            Wave += I.parWaveOuter();
          }
        S.count("lir.par_doall", Doall);
        S.count("lir.par_wavefront", Wave);
      }
    }
    if (Plan.Id != 0) {
      while (Cache->Entries.size() >= Cache->Capacity) {
        Cache->Entries.pop_back();
        ++Cache->Evictions;
        HAC_TRACE_COUNT("lir.cache.evictions");
      }
      Cache->Entries.push_front(
          {.K = std::move(Key), .Prog = std::move(Local)});
      CacheEnt = &Cache->Entries.front();
      Prog = &CacheEnt->Prog;
    } else {
      Prog = &Local;
    }
  }
  const lir::LIRProgram &P = *Prog;

  // Construction targets arrive shaped but not filled. Only an
  // accumArray's untouched elements, an empties sweep's undefined reads
  // and a failed run's unwritten elements would observe their contents.
  if (!Plan.InPlace &&
      (Plan.AccumInit || P.CheckEmpties || lir::canFail(P))) {
    HAC_TRACE_SPAN(PrefillSpan, "exec.prefill");
    std::fill_n(Target.data(), Target.size(), Plan.AccumInit.value_or(0.0));
  }

  std::vector<const double *> InVec;
  InVec.reserve(P.InputNames.size());
  for (const std::string &Name : P.InputNames)
    InVec.push_back(Inputs.at(Name)->data());

  // Node-splitting temporary footprint. The high-water mark counts the
  // same for either tier — native kernels calloc the same rings and
  // snapshots internally.
  uint64_t TempBytes = 0;
  for (size_t I = 0; I != P.RingSizes.size(); ++I)
    TempBytes += P.RingSizes[I] * sizeof(double);
  for (size_t I = 0; I != P.SnapSizes.size(); ++I)
    TempBytes += P.SnapSizes[I] * sizeof(double);
  if (TempBytes > Stats.TempBytes)
    Stats.TempBytes = TempBytes;

  // Tiered execution: LIR-cacheable plans may run as native kernels.
  // Validate-reads programs always interpret (CheckDefined is an
  // evaluator-only debugging construct), as do uncached (Id == 0) plans.
  const bool WantJit =
      JitM != jit::JitMode::Off && CacheEnt != nullptr && !ValidateReads;
  // Async compiles ride the pool's background lane, so a pool exists
  // even for single-threaded executors (a 1-thread pool spawns no
  // workers until something is submitted).
  if ((Threads > 1 || (WantJit && JitM == jit::JitMode::Async)) && !Pool)
    Pool = std::make_shared<par::ThreadPool>(Threads);
  if (WantJit && !CacheEnt->Jit) {
    jit::JitCompiler &JC = JitC ? *JitC : jit::JitCompiler::global();
    CacheEnt->Jit =
        JC.acquire(P, Threads, JitM == jit::JitMode::Async, Pool.get());
  }

  const bool Profiled = profileEnabled();
  bool RanNative = false;
  if (WantJit && CacheEnt->Jit) {
    jit::KernelEntry &KE = *CacheEnt->Jit;
    const jit::KernelEntry::State St = KE.state();
    if (St == jit::KernelEntry::Failed && !CacheEnt->JitWarned) {
      // cc unavailable / emission refused: interpret forever, say why
      // once.
      std::fprintf(stderr,
                   "hac: warning: jit disabled for plan '%s': %s\n",
                   Plan.TargetName.c_str(), KE.Error.c_str());
      CacheEnt->JitWarned = true;
      ++JitE.Fallbacks;
      HAC_TRACE_COUNT("jit.fallbacks");
    }
    // A kernel writes the defined bitmap only for a program with a
    // bitmap duty (P.HasDefined), and then unguarded; a target its caller
    // gave no bitmap runs on the evaluator, which skips the bitmap.
    if (St == jit::KernelEntry::Ready &&
        (!P.HasDefined || Target.hasDefinedBits())) {
      jit::KernelFn Fn = KE.Fn.load(std::memory_order_acquire);
      // Kernels with faulting checks report failure as an rc code, not
      // a message; snapshot the pre-image so a failed native run can be
      // replayed through the evaluator for the exact diagnostic (and
      // the exact failure-path stats).
      std::vector<double> PreData;
      std::vector<uint8_t> PreDef;
      if (KE.CanFail) {
        PreData.assign(Target.data(), Target.data() + Target.size());
        if (const uint8_t *D = Target.definedData())
          PreDef.assign(D, D + Target.size());
      }
      unsigned long long KS[jit::KS_Count] = {0};
      const auto T0 = std::chrono::steady_clock::now();
      int Rc = Fn(Target.data(), InVec.data(),
                  P.HasDefined ? Target.definedData() : nullptr, KS);
      const uint64_t Nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
      if (Rc == 0) {
        RanNative = true;
        Stats.Loads += KS[jit::KS_Loads];
        Stats.Stores += KS[jit::KS_Stores];
        Stats.RingSaves += KS[jit::KS_RingSaves];
        Stats.SnapshotCopies += KS[jit::KS_SnapshotCopies];
        Stats.BoundsChecks += KS[jit::KS_BoundsChecks];
        Stats.CollisionChecks += KS[jit::KS_CollisionChecks];
        Stats.GuardEvals += KS[jit::KS_GuardEvals];
        Stats.FusedIters += KS[jit::KS_FusedIters];
        ++JitE.NativeRuns;
        HAC_TRACE_COUNT("jit.native_runs");
        if (CacheEnt->Interpreted && !CacheEnt->SwapCounted) {
          CacheEnt->SwapCounted = true;
          ++JitE.TierSwaps;
          HAC_TRACE_COUNT("jit.tier_swaps");
        }
        if (Profiled) {
          lir::EvalProfile EP;
          EP.RootNanos = Nanos;
          recordProfile(Plan, P, EP, Threads > 1, "native");
        }
      } else {
        // Roll back and diagnose through the interpreter.
        if (KE.CanFail) {
          std::copy(PreData.begin(), PreData.end(), Target.data());
          if (!PreDef.empty())
            std::copy(PreDef.begin(), PreDef.end(), Target.definedData());
        }
        HAC_TRACE_COUNT("jit.native_faults");
      }
    }
  }

  if (!RanNative) {
    std::vector<std::vector<double>> Rings(P.RingSizes.size());
    std::vector<std::vector<double>> Snaps(P.SnapSizes.size());
    for (size_t I = 0; I != P.RingSizes.size(); ++I)
      Rings[I].assign(P.RingSizes[I], 0.0);
    for (size_t I = 0; I != P.SnapSizes.size(); ++I)
      Snaps[I].assign(P.SnapSizes[I], 0.0);
    if (Threads > 1 && !Pool)
      Pool = std::make_shared<par::ThreadPool>(Threads);
    lir::EvalProfile EP;
    bool OK = lir::evalLIR(P, Target, InVec, Rings, Snaps, Stats, Err,
                           Threads > 1 ? Pool.get() : nullptr,
                           Profiled ? &EP : nullptr);
    if (CacheEnt)
      CacheEnt->Interpreted = true;
    ++JitE.InterpRuns;
    if (Profiled)
      recordProfile(Plan, P, EP, Threads > 1);
    if (!OK)
      return false;
  }

  // Empties check (Section 4): every element must have a definition.
  if (P.CheckEmpties && Target.hasDefinedBits()) {
    size_t Missing = Target.firstUndefined();
    if (Missing != Target.size()) {
      Err = "undefined array element (empty) at linear index " +
            std::to_string(Missing);
      return false;
    }
  }
  return true;
}

bool Executor::run(const ExecPlan &Plan, DoubleArray &Target,
                   std::string &Err) {
  const bool Traced = traceEnabled();
  const bool Profiled = profileEnabled();
  if (!Traced && !Profiled)
    return runImpl(Plan, Target, Err);

  // Instrumented run: time the execution and fold this run's stat
  // deltas into the sinks so compile-time and run-time telemetry land
  // in one report. The pool snapshot brackets the run because the pool
  // counters are monotonic over the executor's lifetime.
  par::PoolStats PS0 = Pool ? Pool->stats() : par::PoolStats{};
  ExecStats Before = Stats;
  bool OK;
  {
    TraceSpan Span("execute");
    OK = runImpl(Plan, Target, Err);
  }
  if (Traced) {
    TraceSink &S = TraceSink::get();
    S.count("exec.stores", Stats.Stores - Before.Stores);
    S.count("exec.loads", Stats.Loads - Before.Loads);
    S.count("exec.ring_saves", Stats.RingSaves - Before.RingSaves);
    S.count("exec.snapshot_copies",
            Stats.SnapshotCopies - Before.SnapshotCopies);
    S.count("exec.bounds_checks", Stats.BoundsChecks - Before.BoundsChecks);
    S.count("exec.collision_checks",
            Stats.CollisionChecks - Before.CollisionChecks);
    S.count("exec.guard_evals", Stats.GuardEvals - Before.GuardEvals);
    S.count("exec.fused_iters", Stats.FusedIters - Before.FusedIters);
    S.countMax("exec.temp_bytes_peak", Stats.TempBytes);
    if (!OK)
      S.count("exec.runtime_errors");
  }
  if (Pool) {
    par::PoolStats PS1 = Pool->stats();
    PoolUtilization U;
    U.Jobs = PS1.Jobs - PS0.Jobs;
    U.Workers.resize(PS1.Workers.size());
    for (size_t I = 0; I != PS1.Workers.size(); ++I) {
      par::WorkerStats W0 =
          I < PS0.Workers.size() ? PS0.Workers[I] : par::WorkerStats{};
      U.Workers[I].Tasks = PS1.Workers[I].Tasks - W0.Tasks;
      U.Workers[I].IdleNanos = PS1.Workers[I].IdleNanos - W0.IdleNanos;
    }
    if (U.Jobs != 0) {
      if (Traced) {
        TraceSink &S = TraceSink::get();
        S.count("pool.jobs", U.Jobs);
        S.count("pool.tasks", PS1.Tasks - PS0.Tasks);
        uint64_t Idle = 0;
        for (const PoolUtilization::Worker &W : U.Workers)
          Idle += W.IdleNanos;
        S.count("pool.idle_nanos", Idle);
      }
      if (Profiled)
        ProfileSink::get().recordPool(U);
    }
  }
  return OK;
}
