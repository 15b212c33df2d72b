//===- bench/bench_suite_table.cpp - E12: the summary table ---------------===//
//
// Experiment E12: the kernel-suite summary matrix — for every kernel the
// paper discusses, which optimizations the analyses enabled. This is the
// "Table 1" a quantitative version of the paper would have shown:
//
//   kernel | thunkless? | collisions | empties | bounds | in-place | copies
//
// Not a timing benchmark; it prints the table and exits (so it composes
// with `for b in build/bench/*; do $b; done`).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Module.h"
#include "jit/Jit.h"
#include "jit/JitCompiler.h"
#include "codegen/ShapeEstimate.h"
#include "lir/LIR.h"
#include "lir/LIRLowering.h"
#include "lir/LIRPasses.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

using namespace hacbench;

namespace {

void arrayRow(const char *Name, const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileArray(Source);
  if (!Compiled) {
    std::printf("%-22s | compile error\n", Name);
    return;
  }
  if (!Compiled->Thunkless) {
    std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | %s\n", Name,
                "thunked", "-", "-", "-", "-",
                Compiled->FallbackReason.c_str());
    benchJsonRow(Name, {{"exec", "\"thunked\""},
                        {"fallback_reason",
                         jsonQuote(Compiled->FallbackReason)}});
    return;
  }
  std::printf(
      "%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | passes=%u vec=%u/%zu\n",
      Name, "thunkless",
      checkOutcomeName(Compiled->Collisions.NoCollisions),
      checkOutcomeName(Compiled->Coverage.NoEmpties),
      checkOutcomeName(Compiled->Coverage.InBounds),
      Compiled->ReuseName.empty() ? "n/a" : "yes",
      Compiled->Sched.PassCount, Compiled->Vectorization.numVectorizable(),
      Compiled->Vectorization.InnerLoops.size());
  benchJsonRow(
      Name,
      {{"exec", "\"thunkless\""},
       {"collisions",
        jsonQuote(checkOutcomeName(Compiled->Collisions.NoCollisions))},
       {"empties",
        jsonQuote(checkOutcomeName(Compiled->Coverage.NoEmpties))},
       {"in_bounds",
        jsonQuote(checkOutcomeName(Compiled->Coverage.InBounds))},
       {"passes", std::to_string(Compiled->Sched.PassCount)},
       {"vectorizable",
        std::to_string(Compiled->Vectorization.numVectorizable())}});
}

void updateRow(const char *Name, const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileUpdate(Source);
  if (!Compiled) {
    std::printf("%-22s | compile error\n", Name);
    return;
  }
  if (!Compiled->InPlace) {
    std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | %s\n", Name,
                "copying", "-", "-", "-", "no",
                Compiled->FallbackReason.c_str());
    benchJsonRow(Name, {{"exec", "\"copying\""},
                        {"fallback_reason",
                         jsonQuote(Compiled->FallbackReason)}});
    return;
  }
  std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | splits=%zu "
              "copies=%lld vec=%u/%zu\n",
              Name, "thunkless", "n/a", "n/a", "n/a", "yes",
              Compiled->Update.Splits.size(),
              (long long)Compiled->Update.splitCopyCost(),
              Compiled->Vectorization.numVectorizable(),
              Compiled->Vectorization.InnerLoops.size());
  benchJsonRow(Name,
               {{"exec", "\"in-place\""},
                {"splits", std::to_string(Compiled->Update.Splits.size())},
                {"split_copy_cost",
                 std::to_string(Compiled->Update.splitCopyCost())},
                {"vectorizable",
                 std::to_string(Compiled->Vectorization.numVectorizable())}});
}

void inPlaceArrayRow(const char *Name, const std::string &Source,
                     const std::string &Reuse) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileArrayInPlace(Source, Reuse);
  if (!Compiled || !Compiled->Thunkless) {
    std::printf("%-22s | in-place reuse failed: %s\n", Name,
                Compiled ? Compiled->FallbackReason.c_str() : "error");
    return;
  }
  std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | splits=%zu "
              "copies=%lld vec=%u/%zu\n",
              Name, "thunkless",
              checkOutcomeName(Compiled->Collisions.NoCollisions),
              checkOutcomeName(Compiled->Coverage.NoEmpties),
              checkOutcomeName(Compiled->Coverage.InBounds), "yes",
              Compiled->InPlaceSched.Splits.size(),
              (long long)Compiled->InPlaceSched.splitCopyCost(),
              Compiled->Vectorization.numVectorizable(),
              Compiled->Vectorization.InnerLoops.size());
  benchJsonRow(
      Name, {{"exec", "\"in-place-reuse\""},
             {"splits", std::to_string(Compiled->InPlaceSched.Splits.size())},
             {"split_copy_cost",
              std::to_string(Compiled->InPlaceSched.splitCopyCost())},
             {"vectorizable",
              std::to_string(Compiled->Vectorization.numVectorizable())}});
}

void accumRow(const char *Name, const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileAccum(Source);
  if (!Compiled) {
    std::printf("%-22s | compile error\n", Name);
    return;
  }
  if (!Compiled->Thunkless) {
    std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | %s\n", Name,
                "thunked", "-", "-", "-", "-",
                Compiled->FallbackReason.c_str());
    benchJsonRow(Name, {{"exec", "\"thunked\""},
                        {"fallback_reason",
                         jsonQuote(Compiled->FallbackReason)}});
    return;
  }
  std::printf(
      "%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | passes=%u vec=%u/%zu\n",
      Name, "thunkless",
      checkOutcomeName(Compiled->Collisions.NoCollisions), "init-fill",
      checkOutcomeName(Compiled->Coverage.InBounds), "n/a",
      Compiled->Sched.PassCount, Compiled->Vectorization.numVectorizable(),
      Compiled->Vectorization.InnerLoops.size());
  benchJsonRow(
      Name,
      {{"exec", "\"thunkless\""},
       {"collisions",
        jsonQuote(checkOutcomeName(Compiled->Collisions.NoCollisions))},
       {"passes", std::to_string(Compiled->Sched.PassCount)},
       {"vectorizable",
        std::to_string(Compiled->Vectorization.numVectorizable())}});
}

/// One row of the Loop IR matrix: lowers \p Plan the way the evaluator
/// does and reports instruction counts before/after the pass pipeline.
void lirRow(const char *Name, const hac::ExecPlan &Plan,
            const hac::ArrayDims &Dims, const hac::ParamEnv &Params) {
  hac::lir::LIRProgram P = hac::lir::lowerPlan(Plan, Dims, Params, {},
                                               /*AssumeTargetShape=*/false,
                                               /*ValidateReads=*/false);
  std::string Err;
  if (!hac::lir::seal(P, Err)) {
    std::printf("%-22s | lowering failed: %s\n", Name, Err.c_str());
    return;
  }
  size_t Before = P.Code.size();
  hac::lir::optimize(P);
  if (!hac::lir::seal(P, Err)) {
    std::printf("%-22s | re-seal failed: %s\n", Name, Err.c_str());
    return;
  }
  std::printf("%-22s | %6zu | %6zu | %7llu | %8llu | %4llu\n", Name, Before,
              P.Code.size(), (unsigned long long)P.NumHoisted,
              (unsigned long long)P.NumStrengthReduced,
              (unsigned long long)P.NumDce);
  benchJsonRow(std::string("lir/") + Name,
               {{"instrs_before", std::to_string(Before)},
                {"instrs_after", std::to_string(P.Code.size())},
                {"hoisted", std::to_string(P.NumHoisted)},
                {"strength_reduced", std::to_string(P.NumStrengthReduced)},
                {"dce", std::to_string(P.NumDce)}});
}

void lirArrayRow(const char *Name, const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileArray(Source);
  if (!Compiled || !Compiled->Thunkless) {
    std::printf("%-22s | thunked; not lowered\n", Name);
    return;
  }
  lirRow(Name, Compiled->Plan, Compiled->Dims, Compiled->Params);
}

void lirUpdateRow(const char *Name, const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileUpdate(Source);
  if (!Compiled || !Compiled->InPlace) {
    std::printf("%-22s | copying; not lowered\n", Name);
    return;
  }
  hac::ArrayDims Dims = Compiled->Plan.Dims;
  if (Dims.empty() &&
      !hac::estimateUpdateDims(Compiled->Plan, Compiled->Params, Dims)) {
    std::printf("%-22s | shape not derivable; not lowered\n", Name);
    return;
  }
  lirRow(Name, Compiled->Plan, Dims, Compiled->Params);
}

/// One row for a multi-array module: DAG size, topological schedule
/// length, and the buffer plan's footprint vs the no-reuse foil.
void moduleRow(const char *Name, const std::string &Source) {
  hac::ModuleCompiler MC;
  auto M = MC.compileModule(Source);
  if (!M) {
    std::printf("%-22s | compile error\n", Name);
    return;
  }
  if (!M->Thunkless) {
    std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | %s\n", Name,
                "thunked", "-", "-", "-", "-", M->FallbackReason.c_str());
    benchJsonRow(Name, {{"exec", "\"thunked\""},
                        {"fallback_reason",
                         jsonQuote(M->FallbackReason)}});
    return;
  }
  std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | arrays=%zu "
              "slots=%u reused=%u peak=%zuB (no-reuse %zuB)\n",
              Name, "thunkless", "proven", "proven", "proven", "n/a",
              M->Bindings.size(), M->Buffers.numSlots(), M->Buffers.Reused,
              M->Buffers.PeakBytes, M->Buffers.NoReusePeakBytes);
  benchJsonRow(
      Name,
      {{"exec", "\"thunkless\""},
       {"arrays", std::to_string(M->Bindings.size())},
       {"buffer_slots", std::to_string(M->Buffers.numSlots())},
       {"buffers_reused", std::to_string(M->Buffers.Reused)},
       {"peak_bytes", std::to_string(M->Buffers.PeakBytes)},
       {"no_reuse_peak_bytes",
        std::to_string(M->Buffers.NoReusePeakBytes)}});
}

//===--------------------------------------------------------------------===//
// E15 companion: parallel scheduling classes + thread-scaling matrix
//===--------------------------------------------------------------------===//

/// Counts the planner's loop classes over a plan tree (the wavefront
/// inner loop counts into its pair, not separately).
void countParClasses(const std::vector<hac::PlanStmt> &Stmts,
                     unsigned &Doall, unsigned &Wave, unsigned &Serial) {
  for (const hac::PlanStmt &S : Stmts) {
    if (S.K != hac::PlanStmt::Kind::For)
      continue;
    switch (S.Par) {
    case hac::par::ParClass::Doall:
      ++Doall;
      break;
    case hac::par::ParClass::WaveOuter:
      ++Wave;
      break;
    case hac::par::ParClass::WaveInner:
      break;
    case hac::par::ParClass::Serial:
      ++Serial;
      break;
    }
    countParClasses(S.Body, Doall, Wave, Serial);
  }
}

//===--------------------------------------------------------------------===//
// E19: dependence-tier matrix (Omega on vs the omega-disabled foil)
//===--------------------------------------------------------------------===//

/// Compiles \p Source twice — with the Omega tier at its default step
/// budget and with it disabled (the HAC_DEP_BUDGET=0 foil) — and prints
/// which tier decided the reference pairs plus what the extra precision
/// bought: the collision verdict, the execution mode, and the DOALL loop
/// count.
void depTierRow(const char *Name, const std::string &Source, bool Accum) {
  auto Compile = [&](uint64_t OmegaBudget) {
    CompileOptions CO;
    CO.OmegaBudget = OmegaBudget;
    Compiler C(CO);
    return Accum ? C.compileAccum(Source) : C.compileArray(Source);
  };
  auto With = Compile(hac::omega::kDefaultBudget);
  auto Without = Compile(0);
  if (!With || !Without) {
    std::printf("%-22s | compile error\n", Name);
    return;
  }
  auto row = [&](const char *Variant, const CompiledArray &C) {
    hac::DepTierCounts T = C.Graph.Tiers;
    T += C.Collisions.Tiers;
    unsigned Doall = 0, Wave = 0, Serial = 0;
    if (C.Thunkless)
      countParClasses(C.Plan.Stmts, Doall, Wave, Serial);
    std::printf("%-22s | %-5s | %4llu | %8llu | %5llu | %5llu | %7llu | "
                "%-10s | %-9s | %u\n",
                Name, Variant, (unsigned long long)T.Gcd,
                (unsigned long long)T.Banerjee, (unsigned long long)T.Omega,
                (unsigned long long)T.Exact, (unsigned long long)T.Unknown,
                checkOutcomeName(C.Collisions.NoCollisions),
                C.Thunkless ? "thunkless" : "thunked", Doall);
    benchJsonRow(std::string("deptier/") + Name,
                 {{"variant", jsonQuote(Variant)},
                  {"tier_gcd", std::to_string(T.Gcd)},
                  {"tier_banerjee", std::to_string(T.Banerjee)},
                  {"tier_omega", std::to_string(T.Omega)},
                  {"tier_exact", std::to_string(T.Exact)},
                  {"tier_unknown", std::to_string(T.Unknown)},
                  {"collisions",
                   jsonQuote(checkOutcomeName(C.Collisions.NoCollisions))},
                  {"exec", C.Thunkless ? "\"thunkless\"" : "\"thunked\""},
                  {"doall", std::to_string(Doall)}});
  };
  row("omega", *With);
  row("foil", *Without);
}

/// Milliseconds per sweep, median-free quick measurement: \p Sweeps runs
/// of \p Sweep after one warmup (which also populates the LIR cache).
double msPerSweep(int Sweeps, const std::function<void()> &Sweep) {
  Sweep();
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Sweeps; ++I)
    Sweep();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count() /
         Sweeps;
}

/// One row of the scaling matrix: classes, per-thread-count wall
/// clock, and the speedup at 4 threads. \p MakeSweep builds a sweep
/// closure bound to an executor at the given thread count.
void parScalingRow(
    const char *Name, const std::vector<hac::PlanStmt> &Stmts,
    const std::function<std::function<void()>(unsigned)> &MakeSweep) {
  unsigned Doall = 0, Wave = 0, Serial = 0;
  countParClasses(Stmts, Doall, Wave, Serial);
  const unsigned Threads[] = {1, 2, 4, 8};
  double Ms[4] = {};
  for (int I = 0; I != 4; ++I)
    Ms[I] = msPerSweep(3, MakeSweep(Threads[I]));
  std::printf("%-22s | %5u | %4u | %6u | %7.3f | %7.3f | %7.3f | %7.3f "
              "| %5.2fx\n",
              Name, Doall, Wave, Serial, Ms[0], Ms[1], Ms[2], Ms[3],
              Ms[2] > 0.0 ? Ms[0] / Ms[2] : 0.0);
  for (int I = 0; I != 4; ++I)
    benchJsonRow(std::string("par/") + Name,
                 {{"threads", std::to_string(Threads[I])},
                  {"ms_per_sweep", std::to_string(Ms[I])},
                  {"doall", std::to_string(Doall)},
                  {"wavefront", std::to_string(Wave)},
                  {"serial", std::to_string(Serial)},
                  {"speedup_vs_1t",
                   std::to_string(Ms[I] > 0.0 ? Ms[0] / Ms[I] : 0.0)}});
}

} // namespace

int main() {
  benchJsonInit();
  std::printf("E12: analysis outcome matrix for the paper's kernel suite "
              "(n = 64)\n\n");
  std::printf("%-22s | %-9s | %-10s | %-8s | %-8s | %-8s | notes\n",
              "kernel", "exec", "collisions", "empties", "bounds",
              "in-place");
  std::printf("%-22s-+-%-9s-+-%-10s-+-%-8s-+-%-8s-+-%-8s-+------\n",
              "----------------------", "---------", "----------",
              "--------", "--------", "--------");

  arrayRow("squares", "let n = 64 in letrec* a = array (1,n) "
                      "[ i := 1.0 * i * i | i <- [1..n] ] in a");
  arrayRow("wavefront", wavefrontSource(64));
  arrayRow("sec5-ex1 (stride 3)", sec5Ex1Source(64));
  arrayRow("sec5-ex2 (backward)", sec5Ex2Source(64));
  arrayRow("fibonacci",
           "let n = 64 in letrec* a = array (1,n) ([ 1 := 1.0, 2 := 1.0 ] "
           "++ [ i := a!(i-1) + a!(i-2) | i <- [3..n] ]) in a");
  arrayRow("mixed-cycle",
           "let n = 64 in letrec* a = array (1,n) ([ 1 := 1.0, n := 1.0 ] "
           "++ [ i := a!(i-1) + a!(i+1) | i <- [2..n-1] ]) in a");
  arrayRow("guarded-partition", guardedPartitionSource(64));
  updateRow("rowswap (LINPACK)", rowSwapSource(64));
  updateRow("jacobi step", jacobiSource(64));
  updateRow("scale row (LINPACK)",
            "let n = 64 in bigupd a [ i := a!i * 3.0 | i <- [1..n] ]");
  updateRow("saxpy in place",
            "let n = 64 in bigupd y [ i := y!i + 2.0 * x!i | i <- [1..n] ]");
  updateRow("reverse in place",
            "let n = 64 in bigupd a [ i := a!(n+1-i) | i <- [1..n] ]");
  accumRow("accum (1 pair/elem)",
           "let n = 64 in letrec* h = accumArray (\\a v . a + v) 0.0 "
           "(1,n) [ i := 1.0 * i | i <- [1..n] ] in h");
  accumRow("histogram (collides)",
           "let n = 64 in letrec* h = accumArray (\\a v . a + v) 0 (1,8) "
           "[ i % 8 + 1 := 1 | i <- [1..n] ] in h");
  inPlaceArrayRow("sor / livermore-23", sorSource(64), "b");
  moduleRow("module (4-stage)",
            "let n = 64 in\n"
            "letrec* a = array (1,n) [ i := i * 1.0 | i <- [1..n] ];\n"
            "        b = array (1,n) [ i := 2.0 * a!i | i <- [1..n] ];\n"
            "        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];\n"
            "        d = array (1,n) [ i := c!i * c!i | i <- [1..n] ]\n"
            "in d");

  std::printf("\nE19: dependence-tier matrix (per-pair deciding tier "
              "counts; foil = Omega tier disabled, HAC_DEP_BUDGET=0)\n\n");
  std::printf("%-22s | %-5s | %4s | %8s | %5s | %5s | %7s | %-10s | %-9s "
              "| %s\n",
              "kernel", "tiers", "gcd", "banerjee", "omega", "exact",
              "unknown", "collisions", "exec", "doall");
  std::printf("%-22s-+-%-5s-+-%4s-+-%8s-+-%5s-+-%5s-+-%7s-+-%-10s-+-%-9s"
              "-+------\n",
              "----------------------", "-----", "----", "--------",
              "-----", "-----", "-------", "----------", "---------");
  depTierRow("squares",
             "let n = 64 in letrec* a = array (1,n) "
             "[ i := 1.0 * i * i | i <- [1..n] ] in a",
             /*Accum=*/false);
  depTierRow("wavefront", wavefrontSource(64), /*Accum=*/false);
  depTierRow("sec5-ex1 (stride 3)", sec5Ex1Source(64), /*Accum=*/false);
  depTierRow("coupled scatter",
             "let n = 40 in letrec* a = accumArray (\\acc v . acc + v) "
             "0.0 ((1,1),(2*n,3*n)) [ (i + j, i + 2*j) := 1.0 * i + 2.0 "
             "* j | i <- [1..n], j <- [1..n] ] in a",
             /*Accum=*/true);
  depTierRow("histogram (collides)",
             "let n = 64 in letrec* h = accumArray (\\a v . a + v) 0 "
             "(1,8) [ i % 8 + 1 := 1 | i <- [1..n] ] in h",
             /*Accum=*/true);

  std::printf("\nLoop IR lowering matrix (evaluator variant, n = 64)\n\n");
  std::printf("%-22s | %6s | %6s | %7s | %8s | %4s\n", "kernel", "before",
              "after", "hoisted", "str-red", "dce");
  std::printf("%-22s-+-%6s-+-%6s-+-%7s-+-%8s-+-%4s\n",
              "----------------------", "------", "------", "-------",
              "--------", "----");
  lirArrayRow("squares", "let n = 64 in letrec* a = array (1,n) "
                         "[ i := 1.0 * i * i | i <- [1..n] ] in a");
  lirArrayRow("wavefront", wavefrontSource(64));
  lirArrayRow("sec5-ex1 (stride 3)", sec5Ex1Source(64));
  lirArrayRow("sec5-ex2 (backward)", sec5Ex2Source(64));
  lirUpdateRow("rowswap (LINPACK)", rowSwapSource(64));
  lirUpdateRow("jacobi step", jacobiSource(64));

  std::printf("\nParallel scheduling & thread-scaling matrix "
              "(LIR evaluator, n = 128, ms/sweep)\n"
              "(speedup is bounded by the machine's hardware core count; "
              "extra workers time-slice)\n\n");
  std::printf("%-22s | %5s | %4s | %6s | %7s | %7s | %7s | %7s | %s\n",
              "kernel", "doall", "wave", "serial", "t=1", "t=2", "t=4",
              "t=8", "x4");
  std::printf("%-22s-+-%5s-+-%4s-+-%6s-+-%7s-+-%7s-+-%7s-+-%7s-+----\n",
              "----------------------", "-----", "----", "------",
              "-------", "-------", "-------", "-------");

  {
    const int64_t N = 128;
    Compiler ParCompiler;
    auto Jacobi = ParCompiler.compileArray(jacobiDoallSource(N));
    DoubleArray B = makeGrid(N);
    if (Jacobi && Jacobi->Thunkless)
      parScalingRow("jacobi (doall)", Jacobi->Plan.Stmts, [&](unsigned T) {
        auto Exec = std::make_shared<Executor>(Jacobi->Params);
        Exec->setNumThreads(T);
        Exec->bindInput("b", &B);
        return [&, Exec] {
          DoubleArray Out;
          std::string Err;
          Jacobi->evaluate(Out, *Exec, Err);
        };
      });
    auto Sor = ParCompiler.compileArrayInPlace(sorSource(N), "b");
    if (Sor && Sor->Thunkless)
      parScalingRow("sor (wavefront)", Sor->Plan.Stmts, [&](unsigned T) {
        auto Exec = std::make_shared<Executor>(Sor->Params);
        Exec->setNumThreads(T);
        return [&, Exec] {
          DoubleArray Grid = makeGrid(N);
          std::string Err;
          Sor->evaluateInPlace(Grid, *Exec, Err);
        };
      });

    // E18 companion: the execution-tier matrix. The same post-pass LIR
    // run by the evaluator and by the JIT-compiled kernel (warm; cc and
    // the tier swap happen in the warmup sweep, against a scratch
    // kernel cache).
    std::printf("\nExecution-tier matrix (n = %lld, ms/sweep, 1 thread)\n\n",
                (long long)N);
    std::printf("%-22s | %9s | %9s | %7s\n", "kernel", "interp", "native",
                "speedup");
    std::printf("%-22s-+-%9s-+-%9s-+-%7s\n", "----------------------",
                "---------", "---------", "-------");
    jit::JitCompiler JitC(
        {std::string("/tmp/hac-bench-suite-jit-") +
             std::to_string(static_cast<long long>(::getpid())),
         256ull << 20});
    auto tierRow = [&](const char *Name, auto &Compiled,
                       const DoubleArray *Input) {
      auto MakeSweep = [&](jit::JitMode Mode) {
        auto Exec = std::make_shared<Executor>(Compiled->Params);
        Exec->setJitMode(Mode);
        Exec->setJitCompiler(&JitC);
        if (Input)
          Exec->bindInput("b", Input);
        return [&, Exec] {
          DoubleArray Out;
          std::string Err;
          Compiled->evaluate(Out, *Exec, Err);
        };
      };
      const double InterpMs = msPerSweep(3, MakeSweep(jit::JitMode::Off));
      const double NativeMs = msPerSweep(3, MakeSweep(jit::JitMode::Sync));
      std::printf("%-22s | %9.3f | %9.3f | %6.2fx\n", Name, InterpMs,
                  NativeMs, NativeMs > 0.0 ? InterpMs / NativeMs : 0.0);
      benchJsonRow(std::string("jit/") + Name,
                   {{"interp_ms", std::to_string(InterpMs)},
                    {"native_ms", std::to_string(NativeMs)},
                    {"speedup",
                     std::to_string(NativeMs > 0.0 ? InterpMs / NativeMs
                                                   : 0.0)}});
    };
    if (Jacobi && Jacobi->Thunkless)
      tierRow("jacobi (doall)", Jacobi, &B);
    if (Sor && Sor->Thunkless)
      tierRow("sor (wavefront)", Sor, nullptr);
    std::error_code EC;
    std::filesystem::remove_all(JitC.cacheDir(), EC);
  }
  return 0;
}
