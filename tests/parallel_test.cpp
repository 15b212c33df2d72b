//===- tests/parallel_test.cpp - Parallel runtime & planner tests ---------===//
//
// Covers the dependence-driven parallel subsystem end to end:
//
//  * ThreadPool: every task runs exactly once, back-to-back jobs never
//    run a task under another job's closure, single-thread pools stay
//    inline, HAC_THREADS steers the default worker count.
//  * ParPlanner: the SOR interior nest proves a wavefront, independent
//    stencils prove DOALL, recurrences and ring-buffer passes stay
//    serial with a human-readable witness.
//  * Evaluator: parallel runs are bit-identical to serial runs at every
//    thread count, ExecStats merge exactly, and runtime errors are
//    reported deterministically (the lexically first failing iteration,
//    independent of the thread count).
//  * legalizePar: illegal bodies are demoted back to serial loops.
//  * HAC008: the verifier surfaces "loop stays serial" notes.
//
//===----------------------------------------------------------------------===//

#include "codegen/ShapeEstimate.h"
#include "core/Compiler.h"
#include "lir/LIR.h"
#include "lir/LIRLowering.h"
#include "lir/LIRPasses.h"
#include "parallel/ParPlanner.h"
#include "parallel/ThreadPool.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hac;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream IS(Path);
  EXPECT_TRUE(IS.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

std::string examplePath(const std::string &Name) {
  return std::string(HAC_EXAMPLES_DIR) + "/" + Name;
}

/// Finds the first For statement (depth-first) with the given class.
const PlanStmt *findFor(const std::vector<PlanStmt> &Stmts,
                        par::ParClass Class) {
  for (const PlanStmt &S : Stmts) {
    if (S.K != PlanStmt::Kind::For)
      continue;
    if (S.Par == Class)
      return &S;
    if (const PlanStmt *Hit = findFor(S.Body, Class))
      return Hit;
  }
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  par::ThreadPool Pool(4);
  EXPECT_EQ(Pool.threads(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<unsigned>> Runs(N);
  Pool.parallelFor(N, [&](size_t I) { ++Runs[I]; });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Runs[I].load(), 1u) << "task " << I;
}

TEST(ThreadPool, ReusableAcrossCalls) {
  par::ThreadPool Pool(3);
  std::atomic<size_t> Sum{0};
  for (int Round = 0; Round != 50; ++Round)
    Pool.parallelFor(17, [&](size_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 50u * (16u * 17u / 2u));
}

// Wavefronts issue one parallelFor per front, back to back. Each job's
// closure owns heap state that dies as soon as the call returns, so a
// task run under another job's closure either reads freed memory or
// leaves one of its own slots unwritten.
TEST(ThreadPool, BackToBackJobsNeverRunAStaleClosure) {
  constexpr size_t NumJobs = 10000;
  struct JobState {
    size_t Id;
    std::vector<size_t> SeenId;
    std::vector<std::atomic<unsigned>> Writes;
    JobState(size_t Id, size_t N) : Id(Id), SeenId(N), Writes(N) {}
  };
  for (unsigned Threads : {2u, 4u, 8u}) {
    par::ThreadPool Pool(Threads);
    size_t BadJobs = 0, FirstBad = NumJobs;
    for (size_t Id = 0; Id != NumJobs; ++Id) {
      size_t N = 2 + Id % (4 * Threads);
      auto State = std::make_unique<JobState>(Id, N);
      Pool.parallelFor(N, [S = State.get()](size_t T) {
        S->SeenId[T] = S->Id;
        ++S->Writes[T];
      });
      bool OK = true;
      for (size_t T = 0; T != N; ++T)
        OK &= State->SeenId[T] == Id && State->Writes[T].load() == 1;
      if (!OK && BadJobs++ == 0)
        FirstBad = Id;
    }
    EXPECT_EQ(BadJobs, 0u) << Threads << " threads, first bad job "
                           << FirstBad;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  par::ThreadPool Pool(1);
  EXPECT_EQ(Pool.threads(), 1u);
  std::atomic<size_t> Count{0};
  Pool.parallelFor(8, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 8u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnv) {
  const char *Old = std::getenv("HAC_THREADS");
  std::string Saved = Old ? Old : "";
  setenv("HAC_THREADS", "3", 1);
  EXPECT_EQ(par::ThreadPool::defaultThreads(), 3u);
  if (Old)
    setenv("HAC_THREADS", Saved.c_str(), 1);
  else
    unsetenv("HAC_THREADS");
  EXPECT_GE(par::ThreadPool::defaultThreads(), 1u);
}

//===----------------------------------------------------------------------===//
// ParPlanner classification
//===----------------------------------------------------------------------===//

TEST(ParPlanner, WavefrontNestProven) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;

  const PlanStmt *Outer =
      findFor(Compiled->Plan.Stmts, par::ParClass::WaveOuter);
  ASSERT_NE(Outer, nullptr) << "no wavefront loop classified";
  ASSERT_EQ(Outer->Body.size(), 1u);
  EXPECT_EQ(Outer->Body[0].Par, par::ParClass::WaveInner);
  // The witness names the proven distance set and the front function.
  EXPECT_NE(Outer->ParWitness.find("front"), std::string::npos)
      << Outer->ParWitness;
  // The border passes carry no dependence and are DOALL.
  EXPECT_NE(findFor(Compiled->Plan.Stmts, par::ParClass::Doall), nullptr);
}

TEST(ParPlanner, IndependentStencilIsDoall) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 8 in letrec* a = array (1,n) "
      "[ i := b!i + b!(i+1) | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  const PlanStmt *Loop =
      findFor(Compiled->Plan.Stmts, par::ParClass::Doall);
  ASSERT_NE(Loop, nullptr);
  EXPECT_NE(Loop->ParWitness.find("no dependence carried"),
            std::string::npos)
      << Loop->ParWitness;
}

TEST(ParPlanner, RecurrenceStaysSerialWithWitness) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 8 in letrec* a = array (1,n) "
      "([ i := 1.0 | i <- [1..1] ] ++ "
      " [ i := a!(i - 1) * 2.0 | i <- [2..n] ]) in a");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  const PlanStmt *Loop =
      findFor(Compiled->Plan.Stmts, par::ParClass::Serial);
  ASSERT_NE(Loop, nullptr);
  EXPECT_NE(Loop->ParWitness.find("carried dependence"), std::string::npos)
      << Loop->ParWitness;
}

TEST(ParPlanner, RingBufferPassStaysSerial) {
  Compiler C;
  auto Compiled = C.compileUpdate(readFile(examplePath("jacobi_step.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->InPlace) << Compiled->FallbackReason;
  const PlanStmt *Loop =
      findFor(Compiled->Plan.Stmts, par::ParClass::Serial);
  ASSERT_NE(Loop, nullptr);
  EXPECT_NE(Loop->ParWitness.find("ring buffer"), std::string::npos)
      << Loop->ParWitness;
}

//===----------------------------------------------------------------------===//
// Parallel evaluation: bit-identical results, merged stats,
// deterministic errors
//===----------------------------------------------------------------------===//

TEST(ParEval, WavefrontBitIdenticalAndStatsMerge) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);

  Executor Serial(Compiled->Params);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Ref, Serial, Err)) << Err;

  for (unsigned Threads : {2u, 4u, 8u}) {
    Executor Par(Compiled->Params);
    Par.setNumThreads(Threads);
    EXPECT_EQ(Par.numThreads(), Threads);
    DoubleArray Out;
    ASSERT_TRUE(Compiled->evaluate(Out, Par, Err))
        << Threads << " threads: " << Err;
    EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0)
        << Threads << " threads diverge from serial";
    // Per-worker counter sets partition the iteration space exactly, so
    // the merged ExecStats equal the serial ones bit for bit.
    EXPECT_EQ(Par.stats().Stores, Serial.stats().Stores);
    EXPECT_EQ(Par.stats().Loads, Serial.stats().Loads);
    EXPECT_EQ(Par.stats().GuardEvals, Serial.stats().GuardEvals);
  }
}

TEST(ParEval, InPlaceSorBitIdentical) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  // (wavefront.hac is a construction; the in-place SOR variant is
  // exercised through the bench kernels and hac_par_smoke. Here the
  // cache-key separation matters: one executor must be able to switch
  // thread counts and stay correct.)
  Executor Exec(Compiled->Params);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Ref, Exec, Err)) << Err;
  for (unsigned Threads : {8u, 1u, 2u}) {
    Exec.setNumThreads(Threads);
    DoubleArray Out;
    ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err))
        << Threads << " threads: " << Err;
    EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0)
        << "thread switch to " << Threads << " diverged";
  }
}

TEST(ParEval, DoallRuntimeErrorIsDeterministic) {
  // Every instance past i=9 writes out of bounds; the reported error
  // must be the lexically first failing iteration at any thread count.
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i + 1 := 1.0 | i <- [1..n], i > 0 ] in a");
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  ASSERT_TRUE(Compiled->Plan.CheckStoreBounds);

  Executor Serial(Compiled->Params);
  DoubleArray Out;
  std::string SerialErr;
  ASSERT_FALSE(Compiled->evaluate(Out, Serial, SerialErr));
  EXPECT_NE(SerialErr.find("out of bounds"), std::string::npos)
      << SerialErr;

  for (unsigned Threads : {2u, 8u}) {
    Executor Par(Compiled->Params);
    Par.setNumThreads(Threads);
    std::string ParErr;
    ASSERT_FALSE(Compiled->evaluate(Out, Par, ParErr)) << Threads;
    EXPECT_EQ(ParErr, SerialErr) << Threads << " threads";
  }
}

//===----------------------------------------------------------------------===//
// legalizePar: demotion of illegal bodies
//===----------------------------------------------------------------------===//

TEST(LegalizePar, RingBodyDemotedToSerial) {
  Compiler C;
  auto Compiled = C.compileUpdate(readFile(examplePath("jacobi_step.hac")));
  ASSERT_TRUE(Compiled.has_value() && Compiled->InPlace);
  ArrayDims Dims;
  ASSERT_TRUE(estimateUpdateDims(Compiled->Plan, Compiled->Params, Dims));

  // Force a bogus DOALL class onto every loop; legalization must strip
  // it wherever the body saves/loads ring state.
  ExecPlan Plan = Compiled->Plan;
  Plan.Dims = Dims;
  std::function<void(PlanStmt &)> Force = [&](PlanStmt &S) {
    if (S.K == PlanStmt::Kind::For) {
      S.Par = par::ParClass::Doall;
      for (PlanStmt &B : S.Body)
        Force(B);
    }
  };
  for (PlanStmt &S : Plan.Stmts)
    Force(S);

  lir::LIRProgram P = lir::lowerPlan(Plan, Dims, Compiled->Params, {},
                                     /*AssumeTargetShape=*/false,
                                     /*ValidateReads=*/false);
  std::string Err;
  ASSERT_TRUE(lir::seal(P, Err)) << Err;
  lir::legalizePar(P, /*ForC=*/false);

  // Any surviving parallel loop must not contain ring traffic.
  for (size_t I = 0; I != P.Code.size(); ++I) {
    const lir::LInst &B = P.Code[I];
    if (B.Op != lir::LOp::LoopBegin || !B.parDoall())
      continue;
    for (size_t K = I + 1; K != static_cast<size_t>(B.Jump); ++K) {
      EXPECT_NE(P.Code[K].Op, lir::LOp::SaveRing) << "at " << K;
      EXPECT_NE(P.Code[K].Op, lir::LOp::LoadRing) << "at " << K;
    }
  }
}

TEST(LegalizePar, StripParFlagsClearsEverything) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  lir::LIRProgram P =
      lir::lowerPlan(Compiled->Plan, Compiled->Dims, Compiled->Params, {},
                     /*AssumeTargetShape=*/false, /*ValidateReads=*/false);
  std::string Err;
  ASSERT_TRUE(lir::seal(P, Err)) << Err;
  bool AnyFlagged = false;
  for (const lir::LInst &I : P.Code)
    AnyFlagged |= (I.Flags & lir::ParFlagMask) != 0;
  EXPECT_TRUE(AnyFlagged) << "lowering dropped the planner's annotations";
  lir::stripParFlags(P);
  for (const lir::LInst &I : P.Code)
    EXPECT_EQ(I.Flags & lir::ParFlagMask, 0u);
}

//===----------------------------------------------------------------------===//
// HAC008 surfacing
//===----------------------------------------------------------------------===//

TEST(Hac008, SerialLoopGetsNoteWithWitness) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 8 in letrec* a = array (1,n) "
      "([ i := 1.0 | i <- [1..1] ] ++ "
      " [ i := a!(i - 1) * 2.0 | i <- [2..n] ]) in a");
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  Verifier V(C.diags());
  VerifyResult R = V.verify(*Compiled);
  EXPECT_GE(R.hits(RuleID::HAC008), 1u);
  bool Found = false;
  for (const Diagnostic &D : C.diags().diagnostics())
    if (D.Rule == RuleID::HAC008) {
      Found = true;
      EXPECT_EQ(D.Severity, DiagSeverity::Note);
      EXPECT_NE(D.Message.find("not parallelizable"), std::string::npos)
          << D.Message;
      EXPECT_NE(D.Message.find("carried dependence"), std::string::npos)
          << D.Message;
    }
  EXPECT_TRUE(Found);
}

TEST(Hac008, FullyParallelProgramStaysQuiet) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 8 in letrec* a = array (1,n) "
      "[ i := 2.0 * i | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled.has_value() && Compiled->Thunkless);
  Verifier V(C.diags());
  VerifyResult R = V.verify(*Compiled);
  EXPECT_EQ(R.hits(RuleID::HAC008), 0u) << C.diags().str();
}
