//===- bench/bench_checks.cpp - E8/E9: runtime-check elimination ----------===//
//
// Experiments E8 (write-collision checks, Section 7) and E9 (empties /
// bounds checks, Section 4). The stride-3 partition kernel is fully
// provable: compiled normally, zero runtime checks execute. Two foils:
// (a) the ablation that disables check elimination (checks run although
// the analysis proved them redundant), and (b) a semantically identical
// kernel with a redundant guard that *blinds* the analysis, so the checks
// must stay. The timing difference is the price of one bitmap test +
// bounds compare per store.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "lir/LIR.h"
#include "lir/LIRPasses.h"

#include <benchmark/benchmark.h>

using namespace hacbench;

namespace {

void runPartition(benchmark::State &State, const CompiledArray &Compiled) {
  uint64_t Bounds = 0, Collisions = 0;
  for (auto _ : State) {
    Executor Exec(Compiled.Params);
    DoubleArray Out;
    std::string Err;
    if (!Compiled.evaluate(Out, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
    Bounds = Exec.stats().BoundsChecks;
    Collisions = Exec.stats().CollisionChecks;
  }
  State.counters["bounds_checks"] = static_cast<double>(Bounds);
  State.counters["collision_checks"] = static_cast<double>(Collisions);
  // The empties check is a defined-bitmap maintained per store plus a
  // final scan; report whether the plan still carries it.
  State.counters["empties_check"] = Compiled.Plan.CheckEmpties ? 1 : 0;
  State.counters["read_checks_on"] = Compiled.Plan.CheckReadBounds ? 1 : 0;
}

} // namespace

static void BM_ChecksEliminated(benchmark::State &State) {
  CompiledArray Compiled = mustCompile(partitionSource(State.range(0)));
  runPartition(State, Compiled);
}
BENCHMARK(BM_ChecksEliminated)->Arg(1000)->Arg(100000);

static void BM_ChecksForcedOnAblation(benchmark::State &State) {
  CompileOptions Options;
  Options.EnableCheckElimination = false;
  CompiledArray Compiled =
      mustCompile(partitionSource(State.range(0)), Options);
  runPartition(State, Compiled);
}
BENCHMARK(BM_ChecksForcedOnAblation)->Arg(1000)->Arg(100000);

static void BM_ChecksUnprovableGuard(benchmark::State &State) {
  CompiledArray Compiled =
      mustCompile(guardedPartitionSource(State.range(0)));
  runPartition(State, Compiled);
}
BENCHMARK(BM_ChecksUnprovableGuard)->Arg(1000)->Arg(100000);

// The wavefront recurrence performs three target-array reads per interior
// element. The read-bounds interval analysis proves them all in range, so
// the compiled plan elides per-read bounds checks: bounds_checks stays 0
// despite ~3n^2 loads. The ablation forces the checked read path and
// counts every one.
static void BM_ReadChecksEliminated(benchmark::State &State) {
  CompiledArray Compiled = mustCompile(wavefrontSource(State.range(0)));
  runPartition(State, Compiled);
}
BENCHMARK(BM_ReadChecksEliminated)->Arg(64)->Arg(256);

static void BM_ReadChecksForcedOnAblation(benchmark::State &State) {
  CompileOptions Options;
  Options.EnableCheckElimination = false;
  CompiledArray Compiled =
      mustCompile(wavefrontSource(State.range(0)), Options);
  runPartition(State, Compiled);
}
BENCHMARK(BM_ReadChecksForcedOnAblation)->Arg(64)->Arg(256);

//===--------------------------------------------------------------------===//
// E9b: second-chance (abstract interpretation) check elimination
//===--------------------------------------------------------------------===//
//
// The redundant guard blinds the plan-level coverage analysis, so store
// bounds checks survive into the LIR. The abstract interpreter re-proves
// them after guard refinement and loop optimization and deletes the
// residual CheckIdx ops. The executor's stat counters are preserved by
// design (CountBounds markers survive the deletion so ExecStats stays
// bit-identical), so the evidence is (a) the instruction counts from a
// directly built pipeline and (b) the timing delta against
// setLIRSecondChance(false).

namespace {

void runGuardedPartition(benchmark::State &State,
                         const CompiledArray &Compiled, bool SecondChance) {
  uint64_t Bounds = 0;
  for (auto _ : State) {
    Executor Exec(Compiled.Params);
    Exec.setLIRSecondChance(SecondChance);
    DoubleArray Out;
    std::string Err;
    if (!Compiled.evaluate(Out, Exec, Err))
      State.SkipWithError(Err.c_str());
    benchmark::DoNotOptimize(Out.data());
    Bounds = Exec.stats().BoundsChecks;
  }
  State.counters["bounds_checks_counted"] = static_cast<double>(Bounds);

  // Instruction-level evidence from the pipeline the executor runs.
  auto Build = [&Compiled](bool WithSecondChance) {
    lir::PipelineOptions Opts;
    Opts.SecondChance = WithSecondChance;
    lir::LIRProgram P;
    std::string Err;
    if (!lir::buildProgram(Compiled.Plan, Compiled.Dims, Compiled.Params, {},
                           Opts, P, Err))
      std::fprintf(stderr, "%s\n", Err.c_str());
    return P;
  };
  auto CountChecks = [](const lir::LIRProgram &P) {
    unsigned N = 0;
    for (const lir::LInst &I : P.Code)
      if (I.Op == lir::LOp::CheckIdx || I.Op == lir::LOp::CheckNonZeroI)
        ++N;
    return N;
  };
  const lir::LIRProgram Before = Build(false), After = Build(SecondChance);
  State.counters["check_ops_before"] = static_cast<double>(CountChecks(Before));
  State.counters["absint_eliminated"] =
      static_cast<double>(After.NumAbsintElim);
  State.counters["check_ops_after"] = static_cast<double>(CountChecks(After));
}

} // namespace

static void BM_SecondChanceGuardedPartition(benchmark::State &State) {
  CompiledArray Compiled =
      mustCompile(guardedPartitionSource(State.range(0)));
  runGuardedPartition(State, Compiled, /*SecondChance=*/true);
}
BENCHMARK(BM_SecondChanceGuardedPartition)->Arg(1000)->Arg(100000);

static void BM_SecondChanceDisabled(benchmark::State &State) {
  CompiledArray Compiled =
      mustCompile(guardedPartitionSource(State.range(0)));
  runGuardedPartition(State, Compiled, /*SecondChance=*/false);
}
BENCHMARK(BM_SecondChanceDisabled)->Arg(1000)->Arg(100000);

HAC_BENCH_MAIN();
