//===- tests/jit_test.cpp - Native JIT backend tests ----------------------===//
//
// The tiered-execution subsystem end to end: env-knob parsing, content
// keying, the on-disk kernel cache (hit / miss / evict / corrupt-entry
// recovery), sync and async tier swaps on real compiled programs, exact
// ExecStats parity between native kernels and the LIR evaluator, module
// bindings running as kernels, and the cc-unavailable fallback.
//
// Every test injects a private JitCompiler pointed at a scratch cache
// directory — nothing touches the user's ~/.cache or the process-global
// compiler, so the suite is hermetic and re-runnable.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/Compiler.h"
#include "core/Module.h"
#include "jit/Jit.h"
#include "jit/JitCompiler.h"
#include "jit/KernelCache.h"
#include "jit/NativeBuild.h"
#include "lir/LIRPasses.h"
#include "parallel/ThreadPool.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

using namespace hac;

namespace {

namespace fs = std::filesystem;

/// A fresh scratch cache directory per test, removed on destruction.
struct ScratchCacheDir {
  fs::path Dir;
  explicit ScratchCacheDir(const std::string &Tag) {
    Dir = fs::temp_directory_path() /
          ("hac-jit-test-" + Tag + "-" + std::to_string(::getpid()));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  ~ScratchCacheDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string str() const { return Dir.string(); }
};

CompiledArray mustCompile(const std::string &Source) {
  Compiler C;
  auto Compiled = C.compileArray(Source);
  EXPECT_TRUE(Compiled.has_value()) << C.diags().str();
  EXPECT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  return std::move(*Compiled);
}

void expectSameStats(const ExecStats &A, const ExecStats &B) {
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.RingSaves, B.RingSaves);
  EXPECT_EQ(A.SnapshotCopies, B.SnapshotCopies);
  EXPECT_EQ(A.BoundsChecks, B.BoundsChecks);
  EXPECT_EQ(A.CollisionChecks, B.CollisionChecks);
  EXPECT_EQ(A.GuardEvals, B.GuardEvals);
  EXPECT_EQ(A.FusedIters, B.FusedIters);
}

/// One evaluation of the program under test into its output array.
using RunFn = std::function<bool(Executor &, DoubleArray &, std::string &)>;

/// Runs \p Run once on the evaluator and once as a native kernel built
/// by \p JC, both at \p Threads threads, and requires the same result
/// bits and the same eight ExecStats counters.
void expectNativeMatchesEvaluator(const ParamEnv &Params, const RunFn &Run,
                                  jit::JitCompiler &JC,
                                  unsigned Threads = 1) {
  Executor Interp(Params);
  Interp.setNumThreads(Threads);
  DoubleArray Ref, Out;
  std::string Err;
  ASSERT_TRUE(Run(Interp, Ref, Err)) << Err;
  Executor Native(Params);
  Native.setNumThreads(Threads);
  Native.setJitMode(jit::JitMode::Sync);
  Native.setJitCompiler(&JC);
  ASSERT_TRUE(Run(Native, Out, Err)) << Err;
  ASSERT_EQ(Native.jitStats().NativeRuns, 1u);
  ASSERT_EQ(Ref.size(), Out.size());
  EXPECT_EQ(std::memcmp(Ref.data(), Out.data(), Ref.size() * sizeof(double)),
            0);
  expectSameStats(Interp.stats(), Native.stats());
}

/// Runs \p Compiled twice — interpreter-only and under \p JC with the
/// given tier policy — and requires bit-identical results plus an exact
/// ExecStats counter match.
void checkTierParity(const CompiledArray &Compiled, jit::JitCompiler &JC,
                     jit::JitMode Mode, unsigned Threads = 1) {
  Executor Interp(Compiled.Params);
  Interp.setNumThreads(Threads);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Ref, Interp, Err)) << Err;

  Executor Jitted(Compiled.Params);
  Jitted.setNumThreads(Threads);
  Jitted.setJitMode(Mode);
  Jitted.setJitCompiler(&JC);
  DoubleArray Out;
  ASSERT_TRUE(Compiled.evaluate(Out, Jitted, Err)) << Err;
  if (Mode == jit::JitMode::Async) {
    // Interpreted while cc ran; rerun until the kernel is swapped in.
    JC.waitIdle();
    ASSERT_TRUE(Compiled.evaluate(Out, Jitted, Err)) << Err;
    EXPECT_GE(Jitted.jitStats().TierSwaps, 1u);
  }
  EXPECT_GE(Jitted.jitStats().NativeRuns, 1u);

  ASSERT_EQ(Ref.size(), Out.size());
  for (size_t I = 0; I != Ref.size(); ++I)
    ASSERT_EQ(Ref[I], Out[I]) << "element " << I;

  // Counter parity is per-run; compare fresh executors so async's extra
  // warm-up runs don't skew the totals.
  expectNativeMatchesEvaluator(
      Compiled.Params,
      [&](Executor &E, DoubleArray &Res, std::string &Msg) {
        return Compiled.evaluate(Res, E, Msg);
      },
      JC, Threads);
}

/// The C the JIT renders for \p Plan over \p Dims at \p Threads.
std::string kernelC(const ExecPlan &Plan, const ArrayDims &Dims,
                    const ParamEnv &Params, unsigned Threads) {
  lir::LIRProgram P;
  std::string Err;
  EXPECT_TRUE(lir::buildProgram(Plan, Dims, Params, {}, {}, P, Err)) << Err;
  KernelEmitOptions KOpts;
  KOpts.Threads = lir::legalizeKernel(P, Threads);
  CEmitResult C = emitKernelC(P, "hac_kernel", KOpts);
  EXPECT_TRUE(C.OK) << C.Error;
  return C.Code;
}

/// A deterministic grid of distinct values.
DoubleArray grid(int64_t Rows, int64_t Cols) {
  DoubleArray G(DoubleArray::Dims{{1, Rows}, {1, Cols}});
  for (size_t I = 0; I != G.size(); ++I)
    G[I] = 0.25 * static_cast<double>((I * 37) % 101);
  return G;
}

const char *WavefrontSource =
    "let n = 24 in letrec* a = array ((1,1),(n,n)) "
    "([ (1,j) := 1.0 | j <- [1..n] ] ++ "
    " [ (i,1) := 1.0 | i <- [2..n] ] ++ "
    " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0 "
    "   | i <- [2..n], j <- [2..n] ]) in a";

const char *StrideSource =
    "letrec* a = array (1,300) "
    "([* [3*i := 1.0] ++ [3*i-1 := a!(3*(i-1)) + 1.0] ++ "
    "[3*i-2 := a!(3*i) * 2.0] | i <- [2..100] *] "
    "++ [ 1 := 2.0 ] ++ [ 2 := 3.0 ] ++ [ 3 := 1.0 ]) in a";

} // namespace

//===----------------------------------------------------------------------===//
// Env knob parsing
//===----------------------------------------------------------------------===//

TEST(JitEnvTest, ParseModeTable) {
  struct Row {
    const char *In;
    bool OK;
    jit::JitMode M;
  };
  const Row Table[] = {
      {"off", true, jit::JitMode::Off},   {"0", true, jit::JitMode::Off},
      {"sync", true, jit::JitMode::Sync}, {"1", true, jit::JitMode::Sync},
      {"async", true, jit::JitMode::Async},
      {"", false, jit::JitMode::Off},     {"ASYNC", false, jit::JitMode::Off},
      {"on", false, jit::JitMode::Off},   {"2", false, jit::JitMode::Off},
      {"sync ", false, jit::JitMode::Off},
  };
  for (const Row &R : Table) {
    jit::JitMode M = jit::JitMode::Off;
    EXPECT_EQ(jit::parseJitMode(R.In, M), R.OK) << "'" << R.In << "'";
    if (R.OK) {
      EXPECT_EQ(M, R.M) << "'" << R.In << "'";
    }
  }
  jit::JitMode M;
  EXPECT_FALSE(jit::parseJitMode(nullptr, M));
}

TEST(JitEnvTest, ModeFromEnv) {
  ::setenv("HAC_JIT", "async", 1);
  EXPECT_EQ(jit::jitModeFromEnv(), jit::JitMode::Async);
  ::setenv("HAC_JIT", "bogus", 1);
  EXPECT_EQ(jit::jitModeFromEnv(), jit::JitMode::Off); // warns, disables
  ::unsetenv("HAC_JIT");
  EXPECT_EQ(jit::jitModeFromEnv(), jit::JitMode::Off);
}

TEST(JitEnvTest, CacheBytesFromEnv) {
  ::unsetenv("HAC_JIT_CACHE_MB");
  EXPECT_EQ(jit::cacheBytesFromEnv(), 256ull << 20);
  ::setenv("HAC_JIT_CACHE_MB", "64", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 64ull << 20);
  ::setenv("HAC_JIT_CACHE_MB", "garbage", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 256ull << 20); // warns, default
  ::setenv("HAC_JIT_CACHE_MB", "12abc", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 256ull << 20); // strict: no prefix
  ::setenv("HAC_JIT_CACHE_MB", "0", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 1ull << 20); // clamps up
  ::setenv("HAC_JIT_CACHE_MB", "-5", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 1ull << 20);
  ::setenv("HAC_JIT_CACHE_MB", "999999", 1);
  EXPECT_EQ(jit::cacheBytesFromEnv(), 65536ull << 20); // clamps down
  ::unsetenv("HAC_JIT_CACHE_MB");
}

TEST(JitEnvTest, CacheDirFromEnv) {
  ::setenv("HAC_JIT_CACHE", "/some/where", 1);
  EXPECT_EQ(jit::cacheDirFromEnv(), "/some/where");
  ::unsetenv("HAC_JIT_CACHE");
  EXPECT_NE(jit::cacheDirFromEnv(), ""); // HOME or scratch fallback
}

//===----------------------------------------------------------------------===//
// Content keys
//===----------------------------------------------------------------------===//

TEST(KernelKeyTest, StableAndSensitive) {
  const jit::KernelKey A = jit::makeKernelKey("loop body", 0, false);
  EXPECT_EQ(A.H, jit::makeKernelKey("loop body", 0, false).H);
  EXPECT_EQ(A.hex().size(), 16u);
  // Every key ingredient perturbs the hash.
  EXPECT_NE(A.H, jit::makeKernelKey("loop body!", 0, false).H);
  EXPECT_NE(A.H, jit::makeKernelKey("loop body", 8, false).H);
  EXPECT_NE(A.H, jit::makeKernelKey("loop body", 8, true).H);
}

//===----------------------------------------------------------------------===//
// Tiered execution
//===----------------------------------------------------------------------===//

TEST(JitExecTest, SyncNativeMatchesInterp) {
  ScratchCacheDir D("sync");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  checkTierParity(mustCompile(WavefrontSource), JC, jit::JitMode::Sync);
  EXPECT_GE(JC.stats().Compiles, 1u);
}

TEST(JitExecTest, SyncNativeMatchesInterpStride) {
  ScratchCacheDir D("stride");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  checkTierParity(mustCompile(StrideSource), JC, jit::JitMode::Sync);
}

TEST(JitExecTest, AsyncTierSwapDeterministic) {
  ScratchCacheDir D("async");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  checkTierParity(mustCompile(WavefrontSource), JC, jit::JitMode::Async);
}

TEST(JitExecTest, ParallelKernelsMatch) {
  ScratchCacheDir D("par");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  checkTierParity(mustCompile(WavefrontSource), JC, jit::JitMode::Sync,
                  /*Threads=*/4);
}

TEST(JitExecTest, ThreadCountChangeKeepsProgramDropsKernel) {
  // One cached LIR program serves every thread count: after
  // setNumThreads(4) the second run hits the LIR cache and reports the
  // same bits and ExecStats. A kernel is legalized and pinned for one
  // count, so under the JIT the second run must build a new one.
  ScratchCacheDir D("threads");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  const CompiledArray Compiled = mustCompile(WavefrontSource);
  for (jit::JitMode Mode : {jit::JitMode::Off, jit::JitMode::Sync}) {
    const bool Native = Mode == jit::JitMode::Sync;
    Executor Exec(Compiled.Params);
    Exec.setJitMode(Mode);
    Exec.setJitCompiler(&JC);
    Exec.setNumThreads(1);
    DoubleArray Out1, Out4;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out1, Exec, Err)) << Err;
    EXPECT_EQ(Exec.lirCacheStats().Misses, 1u);
    EXPECT_EQ(Exec.lirCacheStats().Hits, 0u);
    const ExecStats S1 = Exec.stats();
    Exec.resetStats();
    const uint64_t Compiles = JC.stats().Compiles;

    Exec.setNumThreads(4);
    ASSERT_TRUE(Compiled.evaluate(Out4, Exec, Err)) << Err;
    EXPECT_EQ(Exec.lirCacheStats().Misses, 1u);
    EXPECT_EQ(Exec.lirCacheStats().Hits, 1u);
    ASSERT_EQ(Out1.size(), Out4.size());
    EXPECT_EQ(std::memcmp(Out1.data(), Out4.data(),
                          Out1.size() * sizeof(double)),
              0);
    const ExecStats &S4 = Exec.stats();
    EXPECT_EQ(S1.Loads, S4.Loads);
    EXPECT_EQ(S1.Stores, S4.Stores);
    EXPECT_EQ(S1.RingSaves, S4.RingSaves);
    EXPECT_EQ(S1.SnapshotCopies, S4.SnapshotCopies);
    EXPECT_EQ(S1.BoundsChecks, S4.BoundsChecks);
    EXPECT_EQ(S1.CollisionChecks, S4.CollisionChecks);
    EXPECT_EQ(S1.GuardEvals, S4.GuardEvals);
    EXPECT_EQ(S1.FusedIters, S4.FusedIters);
    EXPECT_EQ(S1.TempBytes, S4.TempBytes);
    EXPECT_EQ(Exec.jitStats().NativeRuns, Native ? 2u : 0u);
    EXPECT_EQ(JC.stats().Compiles, Compiles + (Native ? 1u : 0u))
        << "the 4-thread run must not reuse the 1-thread kernel";
  }
}

TEST(JitExecTest, StatsParityWithRuntimeChecks) {
  // Check elimination off: all 16 bounds and collision checks stay in
  // the program and must count identically from the native kernel.
  CompileOptions Options;
  Options.EnableCheckElimination = false;
  Compiler C(Options);
  auto Compiled = C.compileArray("let n = 16 in letrec* a = array (1,n) "
                                 "[ i := i | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  ASSERT_TRUE(Compiled->Plan.CheckStoreBounds);
  ASSERT_TRUE(Compiled->Plan.CheckCollisions);
  ScratchCacheDir D("stats");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  checkTierParity(*Compiled, JC, jit::JitMode::Sync);
}

TEST(JitExecTest, FailingCheckMatchesInterpreterExactly) {
  // The guard does not prevent the collision; the kernel reports a
  // nonzero rc, the executor rolls back the pre-image and replays
  // through the evaluator — message and stats must match interp-only.
  Compiler C;
  auto Compiled = C.compileArray("let n = 10 in letrec* a = array (1,n) "
                                 "[ i / 2 := 1.0 | i <- [2..n], i > 1 ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  ASSERT_TRUE(Compiled->Plan.CheckCollisions);

  Executor Interp(Compiled->Params);
  DoubleArray Ref;
  std::string InterpErr;
  EXPECT_FALSE(Compiled->evaluate(Ref, Interp, InterpErr));

  ScratchCacheDir D("fail");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  Executor Jitted(Compiled->Params);
  Jitted.setJitMode(jit::JitMode::Sync);
  Jitted.setJitCompiler(&JC);
  DoubleArray Out;
  std::string JitErr;
  EXPECT_FALSE(Compiled->evaluate(Out, Jitted, JitErr));
  EXPECT_EQ(InterpErr, JitErr);
  EXPECT_NE(JitErr.find("collision"), std::string::npos) << JitErr;
  EXPECT_EQ(Jitted.jitStats().NativeRuns, 0u);
  EXPECT_EQ(Jitted.jitStats().InterpRuns, 1u);
  expectSameStats(Interp.stats(), Jitted.stats());
}

TEST(JitExecTest, SerialWaveStripsMatchEvaluator) {
  // A 1-thread kernel sweeps each wave pair front by front in strips of
  // eight outer rows. Trip counts around the strip height (and ragged
  // last strips, rectangular grids) must give the evaluator's bits and
  // counters, from C with no OpenMP and no bitmap writes.
  ScratchCacheDir D("strips");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  for (int64_t T1 : {1, 2, 7, 8, 9, 16, 17})
    for (int64_t T2 : {int64_t(1), int64_t(5), T1, int64_t(12)}) {
      SCOPED_TRACE("T1=" + std::to_string(T1) + " T2=" + std::to_string(T2));
      // Wavefront: rows 2..m and columns 2..n are the wave pair.
      const std::string M = std::to_string(T1 + 1), N = std::to_string(T2 + 1);
      Compiler WC;
      auto Wave = WC.compileArray(
          "letrec* a = array ((1,1),(" + M + "," + N + ")) "
          "([ (1,j) := 1.5 | j <- [1.." + N + "] ] ++ "
          " [ (i,1) := 1.5 | i <- [2.." + M + "] ] ++ "
          " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0 "
          "   | i <- [2.." + M + "], j <- [2.." + N + "] ]) in a");
      ASSERT_TRUE(Wave && Wave->Thunkless) << WC.diags().str();
      // In-place SOR: rows 2..m-1 and columns 2..n-1 are the wave pair.
      const int64_t Rows = T1 + 2, Cols = T2 + 2;
      const std::string R = std::to_string(Rows), C = std::to_string(Cols);
      Compiler SC;
      auto Sor = SC.compileArrayInPlace(
          "letrec* a = array ((1,1),(" + R + "," + C + ")) "
          "([ (1,j) := b!(1,j) | j <- [1.." + C + "] ] ++ "
          " [ (" + R + ",j) := b!(" + R + ",j) | j <- [1.." + C + "] ] ++ "
          " [ (i,1) := b!(i,1) | i <- [2.." + R + "-1] ] ++ "
          " [ (i," + C + ") := b!(i," + C + ") | i <- [2.." + R + "-1] ] ++ "
          " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + b!(i+1,j) + b!(i,j+1)) / 4.0"
          "   | i <- [2.." + R + "-1], j <- [2.." + C + "-1] ]) in a",
          "b");
      ASSERT_TRUE(Sor && Sor->Thunkless) << SC.diags().str();

      for (const CompiledArray *A : {&*Wave, &*Sor}) {
        const std::string Code = kernelC(A->Plan, A->Dims, A->Params, 1);
        // One row carries no outer dependence: the planner makes it DOALL.
        if (T1 >= 2) {
          EXPECT_NE(Code.find("hac_s0 += (8LL)"), std::string::npos)
              << "the wave pair lost its strips:\n" << Code;
        }
        EXPECT_EQ(Code.find("#pragma omp"), std::string::npos);
        EXPECT_EQ(Code.find("omp_"), std::string::npos);
        EXPECT_EQ(Code.find("defined["), std::string::npos);
      }
      expectNativeMatchesEvaluator(
          Wave->Params,
          [&](Executor &E, DoubleArray &Out, std::string &Err) {
            return Wave->evaluate(Out, E, Err);
          },
          JC);
      expectNativeMatchesEvaluator(
          Sor->Params,
          [&](Executor &E, DoubleArray &Out, std::string &Err) {
            Out = grid(Rows, Cols);
            return Sor->evaluateInPlace(Out, E, Err);
          },
          JC);
    }
}

TEST(JitExecTest, EmptiesReportedNatively) {
  // Elements 6..9 are never written. The kernel marks its bitmap
  // unguarded and finishes; the empties sweep after it names the hole.
  Compiler C;
  auto A = C.compileArray(
      "letrec* a = array (1,9) [ i := 1.0 | i <- [1..5] ] in a");
  ASSERT_TRUE(A && A->Thunkless && A->Plan.CheckEmpties);
  const std::string Code = kernelC(A->Plan, A->Dims, A->Params, 1);
  EXPECT_NE(Code.find("unsigned char *restrict defined"), std::string::npos);
  EXPECT_NE(Code.find("  defined[t"), std::string::npos);
  EXPECT_EQ(Code.find("if (defined)"), std::string::npos);

  Executor Interp(A->Params);
  DoubleArray Ref, Out;
  std::string InterpErr, JitErr;
  EXPECT_FALSE(A->evaluate(Ref, Interp, InterpErr));
  ScratchCacheDir D("empties");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  Executor Jitted(A->Params);
  Jitted.setJitMode(jit::JitMode::Sync);
  Jitted.setJitCompiler(&JC);
  EXPECT_FALSE(A->evaluate(Out, Jitted, JitErr));
  EXPECT_EQ(InterpErr, JitErr);
  EXPECT_NE(JitErr.find("empty"), std::string::npos) << JitErr;
  EXPECT_EQ(Jitted.jitStats().NativeRuns, 1u);
  expectSameStats(Interp.stats(), Jitted.stats());
}

TEST(JitExecTest, UpdateOnTargetWithStaleBitmap) {
  // A checked construction leaves its bitmap on the target; a later
  // check-free update has no bitmap duty, so its kernel never touches
  // the bitmap, and both tiers still agree on values and counters.
  CompileOptions Options;
  Options.EnableCheckElimination = false;
  Compiler BC(Options);
  auto Build = BC.compileArray(
      "let n = 16 in letrec* a = array ((1,1),(n,n)) "
      "[ (i,j) := i * 0.5 + j | i <- [1..n], j <- [1..n] ] in a");
  ASSERT_TRUE(Build && Build->Thunkless);
  ASSERT_TRUE(Build->Plan.CheckCollisions && Build->Plan.CheckEmpties);
  Executor BuildExec(Build->Params);
  DoubleArray Start;
  std::string Err;
  ASSERT_TRUE(Build->evaluate(Start, BuildExec, Err)) << Err;
  ASSERT_TRUE(Start.hasDefinedBits());

  Compiler UC;
  auto Upd = UC.compileUpdate(
      "let n = 16 in bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + "
      "a!(i,j-1) + a!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ]");
  ASSERT_TRUE(Upd && Upd->InPlace) << UC.diags().str();
  ASSERT_FALSE(Upd->Plan.CheckCollisions || Upd->Plan.CheckEmpties);
  ScratchCacheDir D("stale");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  expectNativeMatchesEvaluator(
      Upd->Params,
      [&](Executor &E, DoubleArray &Out, std::string &Msg) {
        Out = Start;
        return Upd->evaluateInPlace(Out, E, Msg);
      },
      JC);
}

TEST(JitExecTest, BitmapDutyWithoutTargetBitmapInterprets) {
  // A caller that runs a checked plan on a target without a bitmap gets
  // the evaluator (which skips the bitmap there): the kernel would
  // write the bitmap unguarded.
  Compiler C;
  auto A = C.compileArray(
      "letrec* a = array (1,9) [ i := 1.0 | i <- [1..5] ] in a");
  ASSERT_TRUE(A && A->Thunkless && A->Plan.CheckEmpties);
  ScratchCacheDir D("nobitmap");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  Executor Exec(A->Params);
  Exec.setJitMode(jit::JitMode::Sync);
  Exec.setJitCompiler(&JC);
  DoubleArray Out(A->Dims);
  std::string Err;
  ASSERT_TRUE(Exec.run(A->Plan, Out, Err)) << Err;
  EXPECT_EQ(Exec.jitStats().NativeRuns, 0u);
  EXPECT_EQ(Exec.jitStats().InterpRuns, 1u);
  EXPECT_EQ(Out[4], 1.0);
  EXPECT_FALSE(Out.hasDefinedBits());
}

//===----------------------------------------------------------------------===//
// The kernel cache
//===----------------------------------------------------------------------===//

TEST(KernelCacheTest, InMemoryHitOnSecondExecutor) {
  ScratchCacheDir D("memhit");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  CompiledArray Compiled = mustCompile(WavefrontSource);
  for (int I = 0; I != 2; ++I) {
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
    EXPECT_EQ(Exec.jitStats().NativeRuns, 1u);
  }
  // One cc run total; the second executor found the table entry.
  EXPECT_EQ(JC.stats().Compiles, 1u);
  EXPECT_EQ(JC.stats().CacheMisses, 1u);
  EXPECT_GE(JC.stats().CacheHits, 1u);
}

TEST(KernelCacheTest, DiskCacheWarmAcrossInstances) {
  ScratchCacheDir D("diskwarm");
  CompiledArray Compiled = mustCompile(WavefrontSource);
  auto RunOnce = [&](jit::JitCompiler &JC) {
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
    ASSERT_EQ(Exec.jitStats().NativeRuns, 1u);
  };
  {
    jit::JitCompiler Cold({D.str(), 256ull << 20});
    RunOnce(Cold);
    EXPECT_EQ(Cold.stats().Compiles, 1u);
  }
  // A new process-equivalent: its in-memory table is empty, so a warm
  // run must come off disk without spawning cc.
  jit::JitCompiler Warm({D.str(), 256ull << 20});
  RunOnce(Warm);
  EXPECT_EQ(Warm.stats().Compiles, 0u);
  EXPECT_EQ(Warm.stats().CacheHits, 1u);
}

TEST(KernelCacheTest, CorruptEntryRecovery) {
  ScratchCacheDir D("corrupt");
  CompiledArray Compiled = mustCompile(WavefrontSource);
  auto RunOnce = [&](jit::JitCompiler &JC) {
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
    ASSERT_EQ(Exec.jitStats().NativeRuns, 1u);
  };
  {
    jit::JitCompiler Seed({D.str(), 256ull << 20});
    RunOnce(Seed);
  }
  // Truncate every cached object to garbage; the meta sidecars still
  // validate, so the corruption only shows up at dlopen time.
  unsigned Mangled = 0;
  for (const auto &E : fs::directory_iterator(D.Dir))
    if (E.path().extension() == ".so") {
      std::ofstream OS(E.path(), std::ios::trunc);
      OS << "not an ELF object";
      ++Mangled;
    }
  ASSERT_GE(Mangled, 1u);
  jit::JitCompiler Recover({D.str(), 256ull << 20});
  RunOnce(Recover); // must recompile, not crash
  EXPECT_EQ(Recover.stats().Compiles, 1u);

  // Mangled meta sidecar: detected at lookup, unlinked, recompiled.
  for (const auto &E : fs::directory_iterator(D.Dir))
    if (E.path().extension() == ".meta") {
      std::ofstream OS(E.path(), std::ios::trunc);
      OS << "hac-kernel 999\n";
    }
  jit::JitCompiler Recover2({D.str(), 256ull << 20});
  RunOnce(Recover2);
  EXPECT_EQ(Recover2.stats().Compiles, 1u);
  EXPECT_GE(Recover2.stats().Corrupt, 1u);
}

TEST(KernelCacheTest, SizeCapEvicts) {
  ScratchCacheDir D("evict");
  // A 1-byte cap: every committed kernel immediately exceeds it, so
  // committing a second key must evict the first.
  jit::JitCompiler JC({D.str(), 1});
  auto RunSource = [&](const char *Source) {
    CompiledArray Compiled = mustCompile(Source);
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
    ASSERT_EQ(Exec.jitStats().NativeRuns, 1u);
  };
  RunSource(WavefrontSource);
  RunSource(StrideSource);
  EXPECT_GE(JC.stats().Evictions, 1u);
}

TEST(KernelCacheTest, ManifestVersionMismatchPurges) {
  ScratchCacheDir D("manifest");
  CompiledArray Compiled = mustCompile(WavefrontSource);
  {
    jit::JitCompiler Seed({D.str(), 256ull << 20});
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&Seed);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  }
  // Restamp the entry and the MANIFEST as the previous version wrote
  // them. The key hashes the LIR text, not the C, so a printer change
  // that keeps the LIR text bumps KernelAbiVersion, and an object the
  // old printer committed is then never served.
  const unsigned Old = jit::KernelAbiVersion - 1;
  for (const auto &E : fs::directory_iterator(D.Dir))
    if (E.path().extension() == ".meta")
      std::ofstream(E.path(), std::ios::trunc)
          << "hac-kernel " << Old << "\nkey " << E.path().stem().string()
          << "\nsymbol hac_kernel\n";
  std::ofstream(D.Dir / "MANIFEST", std::ios::trunc)
      << "hac-kernel-cache " << Old << "\n";
  jit::JitCompiler Fresh({D.str(), 256ull << 20});
  {
    Executor Exec(Compiled.Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&Fresh);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  }
  // The first cache touch saw the foreign manifest, purged the stale
  // entries wholesale, and restamped — so the run above recompiled
  // rather than trusting the old object, and exactly one (fresh)
  // kernel remains.
  EXPECT_EQ(Fresh.stats().Compiles, 1u);
  EXPECT_EQ(Fresh.stats().CacheHits, 0u);
  std::ifstream Manifest(D.Dir / "MANIFEST");
  std::string Line;
  std::getline(Manifest, Line);
  EXPECT_EQ(Line, "hac-kernel-cache " + std::to_string(jit::KernelAbiVersion));
  unsigned Objects = 0;
  for (const auto &E : fs::directory_iterator(D.Dir))
    if (E.path().extension() == ".so")
      ++Objects;
  EXPECT_EQ(Objects, 1u);
}

//===----------------------------------------------------------------------===//
// Fallbacks
//===----------------------------------------------------------------------===//

TEST(JitExecTest, CcUnavailableFallsBackGracefully) {
  ScratchCacheDir D("nocc");
  ::setenv("HAC_JIT_CC", "/nonexistent/not-a-compiler", 1);
  jit::JitCompiler JC({D.str(), 256ull << 20});
  CompiledArray Compiled = mustCompile(WavefrontSource);
  Executor Exec(Compiled.Params);
  Exec.setJitMode(jit::JitMode::Sync);
  Exec.setJitCompiler(&JC);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err; // interpreted
  ::unsetenv("HAC_JIT_CC");
  EXPECT_EQ(Exec.jitStats().NativeRuns, 0u);
  EXPECT_GE(Exec.jitStats().InterpRuns, 1u);
  EXPECT_EQ(Exec.jitStats().Fallbacks, 1u);
  EXPECT_EQ(JC.stats().CompileFailures, 1u);

  // The result is still correct.
  Executor Interp(Compiled.Params);
  DoubleArray Ref;
  ASSERT_TRUE(Compiled.evaluate(Ref, Interp, Err)) << Err;
  for (size_t I = 0; I != Ref.size(); ++I)
    ASSERT_EQ(Ref[I], Out[I]);
}

TEST(JitExecTest, ValidateReadsAlwaysInterprets) {
  ScratchCacheDir D("vreads");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  CompiledArray Compiled = mustCompile(WavefrontSource);
  Executor Exec(Compiled.Params);
  Exec.setValidateReads(true);
  Exec.setJitMode(jit::JitMode::Sync);
  Exec.setJitCompiler(&JC);
  DoubleArray Out(Compiled.Dims);
  Out.enableDefinedBits();
  std::string Err;
  ASSERT_TRUE(Exec.run(Compiled.Plan, Out, Err)) << Err;
  EXPECT_EQ(Exec.jitStats().NativeRuns, 0u);
  EXPECT_EQ(JC.stats().CacheMisses, 0u); // never even acquired
}

//===----------------------------------------------------------------------===//
// Modules
//===----------------------------------------------------------------------===//

TEST(JitModuleTest, BindingsRunAsKernels) {
  const char *Source =
      "let n = 16 in\n"
      "letrec* b = array (1,n) [ i := 2.0 * i | i <- [1..n] ];\n"
      "        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];\n"
      "        d = array (1,n) [ i := c!i * b!i | i <- [1..n] ]\n"
      "in d";
  ModuleCompiler MC;
  auto M = MC.compileModule(Source);
  ASSERT_TRUE(M.has_value()) << MC.diags().str();
  ASSERT_TRUE(M->Thunkless) << M->FallbackReason;

  Executor Interp(M->Params);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(evaluateModule(*M, {}, Interp, Ref, Err)) << Err;

  ScratchCacheDir D("module");
  jit::JitCompiler JC({D.str(), 256ull << 20});
  Executor Jitted(M->Params);
  Jitted.setJitMode(jit::JitMode::Sync);
  Jitted.setJitCompiler(&JC);
  DoubleArray Out;
  ModuleRunStats Stats;
  ASSERT_TRUE(evaluateModule(*M, {}, Jitted, Out, Err, &Stats)) << Err;

  EXPECT_EQ(Stats.Arrays, 3u);
  EXPECT_EQ(Stats.JitNativeRuns, 3u); // every binding went native
  EXPECT_EQ(Stats.JitInterpRuns, 0u);
  ASSERT_EQ(Ref.size(), Out.size());
  for (size_t I = 0; I != Ref.size(); ++I)
    ASSERT_EQ(Ref[I], Out[I]);
  EXPECT_EQ(JC.stats().Compiles, 3u); // one kernel per binding
}
