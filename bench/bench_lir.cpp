//===- bench/bench_lir.cpp - E14: LIR pass ablation -----------------------===//
//
// Experiment E14: what the LIR pass pipeline buys at run time. Two
// configurations of the production evaluator run the same ExecPlans:
//
//   *LIR        — the production Executor: plans lower once to flat LIR
//                 (slots, linearized addresses) and the passes (LICM,
//                 strength reduction, check hoisting, IV coalescing,
//                 DCE, counter folding) run.
//   *LIRNoOpt   — same evaluator with the passes disabled: isolates the
//                 pass pipeline from the lowering itself.
//
// Kernels: Section 9's Jacobi step (in-place update with a previous-row
// ring) and Section 3's wavefront recurrence (construction). Executors
// are created outside the timing loop, so LIR lowering amortizes across
// iterations the way repeated solves amortize it in practice. Each row
// also reports instrs_per_cell: the LIR instructions one run dispatches
// per target element (EvalProfile, from one profiled run after timing).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Profile.h"

#include <benchmark/benchmark.h>

using namespace hacbench;

/// Instructions the evaluator dispatches per target element in one more
/// run of \p Run, measured with the profiler switched on around it.
template <typename RunFn>
static double instrsPerCell(RunFn Run, size_t Cells) {
  ProfileSink &PS = ProfileSink::get();
  auto Total = [&] {
    uint64_t N = 0;
    for (const ProgramProfile &PP : PS.programsSnapshot())
      N += PP.RootInstrs;
    return N;
  };
  const bool WasOn = PS.enabled();
  const uint64_t Before = Total();
  PS.setEnabled(true);
  Run();
  PS.setEnabled(WasOn);
  return static_cast<double>(Total() - Before) / static_cast<double>(Cells);
}

//===--------------------------------------------------------------------===//
// Jacobi step (update path)
//===--------------------------------------------------------------------===//

static void runJacobiLIR(benchmark::State &State, bool Optimize) {
  int64_t N = State.range(0);
  CompiledUpdate Compiled = mustCompileUpdate(jacobiSource(N));
  DoubleArray A = makeGrid(N);
  Executor Exec(Compiled.Params);
  Exec.setLIROptimize(Optimize);
  for (auto _ : State) {
    std::string Err;
    if (!Compiled.evaluateInPlace(A, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(A.data());
  }
  State.counters["stores"] = static_cast<double>(Exec.stats().Stores);
  State.counters["instrs_per_cell"] = instrsPerCell(
      [&] {
        std::string Err;
        Compiled.evaluateInPlace(A, Exec, Err);
      },
      A.size());
}

static void BM_JacobiLIR(benchmark::State &State) {
  runJacobiLIR(State, /*Optimize=*/true);
}
BENCHMARK(BM_JacobiLIR)->Arg(64)->Arg(256);

static void BM_JacobiLIRNoOpt(benchmark::State &State) {
  runJacobiLIR(State, /*Optimize=*/false);
}
BENCHMARK(BM_JacobiLIRNoOpt)->Arg(64)->Arg(256);

//===--------------------------------------------------------------------===//
// Wavefront recurrence (construction path)
//===--------------------------------------------------------------------===//

static void runWavefrontLIR(benchmark::State &State, bool Optimize) {
  int64_t N = State.range(0);
  CompiledArray Compiled = mustCompile(wavefrontSource(N));
  Executor Exec(Compiled.Params);
  Exec.setLIROptimize(Optimize);
  for (auto _ : State) {
    DoubleArray Out;
    std::string Err;
    if (!Compiled.evaluate(Out, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
  }
  State.counters["stores"] = static_cast<double>(Exec.stats().Stores);
  State.counters["instrs_per_cell"] = instrsPerCell(
      [&] {
        DoubleArray Out;
        std::string Err;
        Compiled.evaluate(Out, Exec, Err);
      },
      static_cast<size_t>(N * N));
}

static void BM_WavefrontLIR(benchmark::State &State) {
  runWavefrontLIR(State, /*Optimize=*/true);
}
BENCHMARK(BM_WavefrontLIR)->Arg(64)->Arg(256);

static void BM_WavefrontLIRNoOpt(benchmark::State &State) {
  runWavefrontLIR(State, /*Optimize=*/false);
}
BENCHMARK(BM_WavefrontLIRNoOpt)->Arg(64)->Arg(256);

HAC_BENCH_MAIN();
