//===- bench/bench_module.cpp - E17: module buffer planning ---------------===//
//
// Experiment E17: what cross-array buffer planning buys a multi-array
// pipeline. A staged smoothing chain (each array reads only its
// predecessor) compiles as a module; the runs compare
//
//   *Reuse    — the planner's slot assignment: dead intermediates'
//               storage is recycled, so the footprint is the planned
//               PeakBytes (3 buffers for the 4-array chain).
//   *NoReuse  — the one-buffer-per-array foil (ReuseBuffers = false),
//               the footprint a naive module runner would allocate.
//
// Both produce bit-identical results; the counters report the peak
// bytes each policy touched. The interpreter lane runs the same program
// thunked for the thunked-vs-module headline.
//
// E25 adds the native pair: BM_ModuleNativeReusedOut sweeps the module's
// kernels into one result array reshaped in place run after run (pool
// slots are never prefilled), BM_ModuleNativeFreshOut allocates a new
// result per run.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Module.h"
#include "jit/JitCompiler.h"

#include <benchmark/benchmark.h>

using namespace hacbench;

namespace {

/// A 4-stage pipeline over (1,n): each stage reads only its predecessor,
/// so the planner recycles the first stage's buffer for the third.
std::string pipelineSource(int64_t N) {
  std::string NS = std::to_string(N);
  return "let n = " + NS +
         " in\n"
         "letrec* a = array (1,n) [ i := i * 1.0 | i <- [1..n] ];\n"
         "        b = array (1,n) [ i := 2.0 * a!i + 1.0 | i <- [1..n] ];\n"
         "        c = array (1,n) [ i := b!i * 0.5 + 3.0 | i <- [1..n] ];\n"
         "        d = array (1,n) [ i := c!i * c!i | i <- [1..n] ]\n"
         "in d\n";
}

CompiledModule mustCompileModule(const std::string &Source) {
  ModuleCompiler MC;
  auto M = MC.compileModule(Source);
  if (!M || !M->Thunkless) {
    std::fprintf(stderr, "bench_module: module did not compile thunkless\n");
    std::exit(1);
  }
  return std::move(*M);
}

void runModuleBench(benchmark::State &State, bool ReuseBuffers) {
  int64_t N = State.range(0);
  CompiledModule M = mustCompileModule(pipelineSource(N));
  Executor Exec(M.Params);
  ModuleRunStats Stats;
  for (auto _ : State) {
    DoubleArray Out;
    std::string Err;
    if (!evaluateModule(M, {}, Exec, Out, Err, &Stats, ReuseBuffers))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
  }
  State.counters["arrays"] = static_cast<double>(Stats.Arrays);
  State.counters["buffers_reused"] = static_cast<double>(Stats.BuffersReused);
  State.counters["peak_bytes"] = static_cast<double>(Stats.PeakBytes);
}

void BM_ModuleReuse(benchmark::State &State) {
  runModuleBench(State, /*ReuseBuffers=*/true);
}
BENCHMARK(BM_ModuleReuse)->Arg(1 << 10)->Arg(1 << 16);

void BM_ModuleNoReuse(benchmark::State &State) {
  runModuleBench(State, /*ReuseBuffers=*/false);
}
BENCHMARK(BM_ModuleNoReuse)->Arg(1 << 10)->Arg(1 << 16);

/// The reuse-planned module as native kernels (JIT sync, private kernel
/// cache), warmed once so cc runs outside the timed region. With
/// \p FreshOut every run writes a new result array (the allocation
/// foil); otherwise the previous run's result is reshaped in place.
void runNativeModule(benchmark::State &State, bool FreshOut) {
  int64_t N = State.range(0);
  CompiledModule M = mustCompileModule(pipelineSource(N));
  ScratchCache Cache("module-" + std::to_string(N) +
                     (FreshOut ? "-fresh" : "-reused"));
  jit::JitCompiler JC({Cache.Dir.string(), 256ull << 20});
  Executor Exec(M.Params);
  Exec.setJitMode(jit::JitMode::Sync);
  Exec.setJitCompiler(&JC);
  DoubleArray Out;
  std::string Err;
  ModuleRunStats Stats;
  if (!evaluateModule(M, {}, Exec, Out, Err, &Stats)) {
    State.SkipWithError(Err.c_str());
    return;
  }
  for (auto _ : State) {
    if (FreshOut)
      Out = DoubleArray();
    if (!evaluateModule(M, {}, Exec, Out, Err, &Stats))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.counters["native_runs"] = static_cast<double>(Stats.JitNativeRuns);
  State.counters["peak_bytes"] = static_cast<double>(Stats.PeakBytes);
}

void BM_ModuleNativeReusedOut(benchmark::State &State) {
  runNativeModule(State, /*FreshOut=*/false);
}
BENCHMARK(BM_ModuleNativeReusedOut)->Arg(1 << 16)->Arg(1 << 20);

void BM_ModuleNativeFreshOut(benchmark::State &State) {
  runNativeModule(State, /*FreshOut=*/true);
}
BENCHMARK(BM_ModuleNativeFreshOut)->Arg(1 << 16)->Arg(1 << 20);

void BM_ModuleThunked(benchmark::State &State) {
  int64_t N = State.range(0);
  std::string Source = pipelineSource(N);
  for (auto _ : State) {
    Interpreter Interp;
    Interp.setFuel(500'000'000);
    DiagnosticEngine Diags;
    ValuePtr V = runThunked(Source, {}, Interp, Diags);
    if (!V || V->isError())
      State.SkipWithError("interpreter failed");
    benchmark::DoNotOptimize(V.get());
  }
}
BENCHMARK(BM_ModuleThunked)->Arg(1 << 10);

} // namespace

HAC_BENCH_MAIN();
