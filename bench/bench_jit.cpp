//===- bench/bench_jit.cpp - E18: the native JIT execution backend --------===//
//
// Experiment E18: what tiered execution buys. Three questions:
//
//  1. Steady state — once a kernel is hot-swapped in, how much faster is
//     a run than the LIR evaluator on the same post-pass program?
//     (BM_*Interp vs BM_*JitWarm on Jacobi and the wavefront.) The
//     BM_*JitWarm rows of the three recurrences — wavefront, in-place
//     SOR, §5's backward inner loop — are E24's per-kernel native view.
//
//  2. Cold start — what does the first run cost when cc has to compile
//     the kernel, and how much of that the content-addressed disk cache
//     recovers for later processes. (BM_JitColdStart vs
//     BM_JitDiskWarmStart: the latter re-creates the JitCompiler each
//     iteration, so its in-memory table is empty — exactly a new
//     process against a warm ~/.cache.)
//
//  3. Threads — the kernels carry the same OpenMP pragmas the emitted-C
//     backend uses; BM_JacobiJitWarm/threads:4 shows the parallel tier.
//
//  4. Storage — the *JitWarm rows sweep into one reused result array;
//     the *FreshOut foils (Jacobi and the wavefront at n=1024) allocate
//     a new one per sweep, which E25 measures against.
//
// Every benchmark injects a private JitCompiler against a scratch cache
// directory; nothing touches the user's kernel cache.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "jit/Jit.h"
#include "jit/JitCompiler.h"
#include "runtime/Executor.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

using namespace hacbench;

namespace {

/// Where a sweep writes its result.
enum class Target {
  Reused,  ///< one result array, reshaped in place run after run
  Fresh,   ///< a new result array per run (the allocation foil)
  InPlace, ///< a copy of \p Input, overwritten (compileArrayInPlace)
};

/// Steady-state sweep: one executor, JIT tier as given, warmed up once
/// (so cc and the tier swap happen outside the timed region), then
/// timed per run. With Target::InPlace the result overwrites a copy of
/// \p Input (compileArrayInPlace over `b`) run after run.
void runTiered(benchmark::State &State, const std::string &Source,
               jit::JitMode Mode, unsigned Threads,
               const DoubleArray *Input, Target T = Target::Reused) {
  const bool InPlace = T == Target::InPlace;
  Compiler TheCompiler;
  auto Compiled = InPlace ? TheCompiler.compileArrayInPlace(Source, "b")
                          : TheCompiler.compileArray(Source);
  if (!Compiled || !Compiled->Thunkless) {
    State.SkipWithError("kernel did not compile thunklessly");
    return;
  }
  static int Seq = 0;
  ScratchCache Cache("tier-" + std::to_string(Seq++));
  jit::JitCompiler JC({Cache.Dir.string(), 256ull << 20});
  Executor Exec(Compiled->Params);
  Exec.setNumThreads(Threads);
  Exec.setJitMode(Mode);
  Exec.setJitCompiler(&JC);
  DoubleArray Out;
  if (InPlace)
    Out = *Input;
  else if (Input)
    Exec.bindInput("b", Input);
  std::string Err;
  auto Sweep = [&] {
    return InPlace ? Compiled->evaluateInPlace(Out, Exec, Err)
                   : Compiled->evaluate(Out, Exec, Err);
  };
  if (!Sweep()) {
    State.SkipWithError(Err.c_str());
    return;
  }
  for (auto _ : State) {
    if (T == Target::Fresh)
      Out = DoubleArray();
    if (!Sweep())
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.counters["native_runs"] =
      static_cast<double>(Exec.jitStats().NativeRuns);
  State.counters["elems"] = static_cast<double>(Out.size());
}

} // namespace

//===--------------------------------------------------------------------===//
// Steady state: interpreter vs hot-swapped kernel
//===--------------------------------------------------------------------===//

static void BM_JacobiInterp(benchmark::State &State) {
  const int64_t N = State.range(0);
  DoubleArray B = makeGrid(N);
  runTiered(State, jacobiDoallSource(N), jit::JitMode::Off, 1, &B);
}
BENCHMARK(BM_JacobiInterp)->Arg(64)->Arg(128)->Arg(256);

static void BM_JacobiJitWarm(benchmark::State &State) {
  const int64_t N = State.range(0);
  DoubleArray B = makeGrid(N);
  runTiered(State, jacobiDoallSource(N), jit::JitMode::Sync, 1, &B);
}
BENCHMARK(BM_JacobiJitWarm)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

// Foil: a new result array per sweep pays the allocation and its page
// faults that the BM_JacobiJitWarm rows, which reuse one result, skip.
static void BM_JacobiJitWarmFreshOut(benchmark::State &State) {
  const int64_t N = State.range(0);
  DoubleArray B = makeGrid(N);
  runTiered(State, jacobiDoallSource(N), jit::JitMode::Sync, 1, &B,
            Target::Fresh);
}
BENCHMARK(BM_JacobiJitWarmFreshOut)->Arg(1024);

static void BM_JacobiJitWarmThreads(benchmark::State &State) {
  const int64_t N = 256;
  DoubleArray B = makeGrid(N);
  runTiered(State, jacobiDoallSource(N), jit::JitMode::Sync,
            static_cast<unsigned>(State.range(0)), &B);
}
BENCHMARK(BM_JacobiJitWarmThreads)->Arg(1)->Arg(2)->Arg(4);

static void BM_WavefrontInterp(benchmark::State &State) {
  const int64_t N = State.range(0);
  runTiered(State, wavefrontSource(N), jit::JitMode::Off, 1, nullptr);
}
BENCHMARK(BM_WavefrontInterp)->Arg(64)->Arg(128)->Arg(256);

static void BM_WavefrontJitWarm(benchmark::State &State) {
  const int64_t N = State.range(0);
  runTiered(State, wavefrontSource(N), jit::JitMode::Sync, 1, nullptr);
}
BENCHMARK(BM_WavefrontJitWarm)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

static void BM_WavefrontJitWarmFreshOut(benchmark::State &State) {
  const int64_t N = State.range(0);
  runTiered(State, wavefrontSource(N), jit::JitMode::Sync, 1, nullptr,
            Target::Fresh);
}
BENCHMARK(BM_WavefrontJitWarmFreshOut)->Arg(1024);

static void BM_SorJitWarm(benchmark::State &State) {
  const int64_t N = State.range(0);
  DoubleArray B = makeGrid(N);
  runTiered(State, sorSource(N), jit::JitMode::Sync, 1, &B,
            Target::InPlace);
}
BENCHMARK(BM_SorJitWarm)->Arg(256)->Arg(1024);

static void BM_Sec5JitWarm(benchmark::State &State) {
  const int64_t N = State.range(0);
  runTiered(State, sec5Ex2Source(N), jit::JitMode::Sync, 1, nullptr);
}
BENCHMARK(BM_Sec5JitWarm)->Arg(256)->Arg(1024);

//===--------------------------------------------------------------------===//
// Cold start vs warm disk cache
//===--------------------------------------------------------------------===//

static void BM_JitColdStart(benchmark::State &State) {
  const int64_t N = 64;
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileArray(wavefrontSource(N));
  if (!Compiled || !Compiled->Thunkless) {
    State.SkipWithError("kernel did not compile thunklessly");
    return;
  }
  for (auto _ : State) {
    // Fresh cache directory AND fresh compiler: every iteration pays
    // emission + cc + dlopen.
    ScratchCache Cache("cold");
    jit::JitCompiler JC({Cache.Dir.string(), 256ull << 20});
    Executor Exec(Compiled->Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    if (!Compiled->evaluate(Out, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_JitColdStart)->Unit(benchmark::kMillisecond);

static void BM_JitDiskWarmStart(benchmark::State &State) {
  const int64_t N = 64;
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileArray(wavefrontSource(N));
  if (!Compiled || !Compiled->Thunkless) {
    State.SkipWithError("kernel did not compile thunklessly");
    return;
  }
  // Seed the disk cache once.
  ScratchCache Cache("diskwarm");
  {
    jit::JitCompiler Seed({Cache.Dir.string(), 256ull << 20});
    Executor Exec(Compiled->Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&Seed);
    DoubleArray Out;
    std::string Err;
    if (!Compiled->evaluate(Out, Exec, Err)) {
      State.SkipWithError(Err.c_str());
      return;
    }
  }
  for (auto _ : State) {
    // Fresh compiler = empty in-memory table = a new process hitting
    // the warm disk cache: dlopen, no cc.
    jit::JitCompiler JC({Cache.Dir.string(), 256ull << 20});
    Executor Exec(Compiled->Params);
    Exec.setJitMode(jit::JitMode::Sync);
    Exec.setJitCompiler(&JC);
    DoubleArray Out;
    std::string Err;
    if (!Compiled->evaluate(Out, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_JitDiskWarmStart)->Unit(benchmark::kMillisecond);

HAC_BENCH_MAIN();
