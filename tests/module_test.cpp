//===- tests/module_test.cpp - ModuleCompiler and buffer planning ---------===//
//
// Covers the multi-array pipeline: DAG construction and topological
// scheduling, the interpreter fallback on inter-array cycles, last-use
// buffer planning and its runtime effect, differential agreement with
// the lazy interpreter at 1 and 8 threads, the staged-pipeline report
// goldens (the four compile* entry points must produce byte-identical
// reports after the PipelineStages refactor), the Executor's bounded LIR
// plan cache, HAC_THREADS parsing, and the driver's program-kind
// classifier over every example program.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/InterpBridge.h"
#include "core/Module.h"
#include "driver/Driver.h"
#include "parallel/ThreadPool.h"
#include "runtime/Executor.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace hac;

namespace {

const char *kPipeline4 =
    "let n = 16 in\n"
    "letrec* a = array (1,n) [ i := i * 1.0 | i <- [1..n] ];\n"
    "        b = array (1,n) [ i := 2.0 * a!i | i <- [1..n] ];\n"
    "        c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];\n"
    "        d = array (1,n) [ i := c!i * c!i | i <- [1..n] ]\n"
    "in d\n";

const char *kCycle =
    "let n = 8 in\n"
    "letrec* a = array (1,n) ([ i := 1.0 | i <- [1..1] ] ++\n"
    "                         [ i := b!(i-1) + 1.0 | i <- [2..n] ]);\n"
    "        b = array (1,n) ([ i := 2.0 | i <- [1..1] ] ++\n"
    "                         [ i := a!(i-1) * 2.0 | i <- [2..n] ])\n"
    "in a\n";

/// The interpreter's answer for \p Source, or nullopt.
std::optional<DoubleArray> interpRef(const std::string &Source) {
  Interpreter Interp;
  Interp.setFuel(500'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  if (!V || V->isError())
    return std::nullopt;
  std::string Err;
  return interpArrayToDouble(Interp, V, Err);
}

TEST(ModuleTest, DagAndTopoOrder) {
  ModuleCompiler MC;
  auto M = MC.compileModule(kPipeline4);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->Thunkless) << M->FallbackReason;
  ASSERT_EQ(M->Bindings.size(), 4u);
  EXPECT_EQ(M->result().Name, "d");
  // The chain schedules in definition order.
  ASSERT_EQ(M->TopoOrder.size(), 4u);
  EXPECT_EQ(M->Bindings[M->TopoOrder[0]].Name, "a");
  EXPECT_EQ(M->Bindings[M->TopoOrder[3]].Name, "d");
  // b reads a; a is read by b only.
  const ModuleBinding *B = nullptr;
  for (const auto &MB : M->Bindings)
    if (MB.Name == "b")
      B = &MB;
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B->Deps.size(), 1u);
  EXPECT_EQ(M->Bindings[B->Deps[0]].Name, "a");
}

TEST(ModuleTest, DifferentialVsInterpreterAt1And8Threads) {
  ModuleCompiler MC;
  auto M = MC.compileModule(kPipeline4);
  ASSERT_TRUE(M.has_value());
  ASSERT_TRUE(M->Thunkless) << M->FallbackReason;

  auto Ref = interpRef(kPipeline4);
  ASSERT_TRUE(Ref.has_value());

  for (unsigned Threads : {1u, 8u}) {
    Executor Exec(M->Params);
    Exec.setNumThreads(Threads);
    DoubleArray Out;
    std::string Err;
    ASSERT_TRUE(evaluateModule(*M, {}, Exec, Out, Err)) << Err;
    ASSERT_EQ(Out.size(), Ref->size());
    // Bit-identical, not approximately equal.
    EXPECT_EQ(DoubleArray::maxAbsDiff(Out, *Ref), 0.0)
        << "threads=" << Threads;
  }
}

TEST(ModuleTest, CycleFallsBackToInterpreter) {
  ModuleCompiler MC;
  auto M = MC.compileModule(kCycle);
  ASSERT_TRUE(M.has_value());
  EXPECT_FALSE(M->Thunkless);
  EXPECT_NE(M->FallbackReason.find("cycle"), std::string::npos)
      << M->FallbackReason;

  // evaluateModule still produces the interpreter's answer.
  Executor Exec(M->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(evaluateModule(*M, {}, Exec, Out, Err)) << Err;
  auto Ref = interpRef(kCycle);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_EQ(DoubleArray::maxAbsDiff(Out, *Ref), 0.0);
}

TEST(ModuleTest, BufferPlanRecyclesDeadIntermediates) {
  ModuleCompiler MC;
  auto M = MC.compileModule(kPipeline4);
  ASSERT_TRUE(M.has_value());
  ASSERT_TRUE(M->Thunkless);

  // a dies once b is built, so c takes over its slot: 4 arrays, 3 slots.
  const BufferPlan &BP = M->Buffers;
  EXPECT_GE(BP.Reused, 1u);
  EXPECT_EQ(BP.numSlots(), 3u);
  EXPECT_LT(BP.PeakBytes, BP.NoReusePeakBytes);

  // The result is never recycled and owns a fresh slot.
  unsigned ResultSlot = BP.Slot[M->ResultIndex];
  for (unsigned B = 0; B != M->Bindings.size(); ++B)
    if (static_cast<int>(B) != M->ResultIndex) {
      EXPECT_NE(BP.Slot[B], ResultSlot);
    }

  // Liveness: a binding's slot is only recycled after its last consumer.
  for (unsigned B = 0; B != M->Bindings.size(); ++B)
    for (unsigned C : M->Bindings[B].Consumers) {
      unsigned PosC = 0;
      for (unsigned P = 0; P != M->TopoOrder.size(); ++P)
        if (M->TopoOrder[P] == C)
          PosC = P;
      EXPECT_GE(BP.LastUse[B], PosC);
    }
}

TEST(ModuleTest, ReuseAndNoReuseProduceIdenticalResults) {
  ModuleCompiler MC;
  auto M = MC.compileModule(kPipeline4);
  ASSERT_TRUE(M.has_value());
  ASSERT_TRUE(M->Thunkless);

  Executor Exec(M->Params);
  DoubleArray WithReuse, Foil;
  std::string Err;
  ModuleRunStats RS, FS;
  ASSERT_TRUE(
      evaluateModule(*M, {}, Exec, WithReuse, Err, &RS, /*ReuseBuffers=*/true))
      << Err;
  ASSERT_TRUE(
      evaluateModule(*M, {}, Exec, Foil, Err, &FS, /*ReuseBuffers=*/false))
      << Err;
  EXPECT_EQ(DoubleArray::maxAbsDiff(WithReuse, Foil), 0.0);
  EXPECT_GE(RS.BuffersReused, 1u);
  EXPECT_EQ(FS.BuffersReused, 0u);
  EXPECT_LT(RS.PeakBytes, FS.PeakBytes);
  EXPECT_EQ(RS.Arrays, 4u);
}

TEST(ModuleTest, RerunsIntoOneOutputMatchFreshRuns) {
  // The result is reshaped in place and pool slots are recycled without
  // a prefill: a second run into the first run's output, and a run whose
  // output starts as a sentinel, must both produce a fresh run's bits.
  ModuleCompiler MC;
  auto M = MC.compileModule(kPipeline4);
  ASSERT_TRUE(M && M->Thunkless);
  std::string Err;
  for (bool Reuse : {true, false}) {
    DoubleArray Fresh;
    {
      Executor Exec(M->Params);
      ASSERT_TRUE(evaluateModule(*M, {}, Exec, Fresh, Err, nullptr, Reuse))
          << Err;
    }
    Executor Exec(M->Params);
    DoubleArray Out(M->result().Array.Dims);
    std::fill_n(Out.data(), Out.size(), -7777.25);
    const double *Storage = Out.data();
    for (int Run = 0; Run != 2; ++Run) {
      ASSERT_TRUE(evaluateModule(*M, {}, Exec, Out, Err, nullptr, Reuse))
          << Err;
      ASSERT_EQ(Out.size(), Fresh.size());
      EXPECT_EQ(std::memcmp(Out.data(), Fresh.data(),
                            Out.size() * sizeof(double)),
                0)
          << "reuse=" << Reuse << " run " << Run;
      EXPECT_EQ(Out.data(), Storage) << "the result storage was replaced";
    }
  }
}

TEST(ModuleTest, EmptiesSweepIgnoresWhatTheOutputHeld) {
  // b's guard reads b!4, which nothing defines. A zero-filled target
  // makes the guard true, so b!1 is stored and the empties sweep reports
  // b!4; a sentinel left in place would turn the guard false and report
  // b!1 instead. The Executor prefills an empties-sweeping program, so
  // the output's old contents change neither the error nor the stats.
  const char *Source =
      "let n = 4 in\n"
      "letrec* a = array (1,n) [ i := i * 1.0 | i <- [1..n] ];\n"
      "        b = array (1,n) ([ i := a!i | i <- [1..1], b!4 == 0.0 ] ++\n"
      "                         [ i := a!i | i <- [2..3] ])\n"
      "in b\n";
  ModuleCompiler MC;
  auto M = MC.compileModule(Source);
  ASSERT_TRUE(M && M->Thunkless);
  ASSERT_TRUE(M->result().Array.Plan.CheckEmpties);
  std::string Errs[2];
  ExecStats Stats[2];
  for (int Sentinel = 0; Sentinel != 2; ++Sentinel) {
    Executor Exec(M->Params);
    DoubleArray Out;
    if (Sentinel) {
      Out = DoubleArray(M->result().Array.Dims);
      std::fill_n(Out.data(), Out.size(), -7777.25);
    }
    EXPECT_FALSE(evaluateModule(*M, {}, Exec, Out, Errs[Sentinel]));
    Stats[Sentinel] = Exec.stats();
  }
  EXPECT_EQ(Errs[0], "module binding 'b': undefined array element (empty) "
                     "at linear index 3");
  EXPECT_EQ(Errs[1], Errs[0]);
  EXPECT_EQ(Stats[1].Stores, Stats[0].Stores);
  EXPECT_EQ(Stats[1].Loads, Stats[0].Loads);
  EXPECT_EQ(Stats[1].GuardEvals, Stats[0].GuardEvals);
  EXPECT_EQ(Stats[1].BoundsChecks, Stats[0].BoundsChecks);
  EXPECT_EQ(Stats[1].CollisionChecks, Stats[0].CollisionChecks);
}

std::optional<ProgramKind> classify(const std::string &Source) {
  DiagnosticEngine Diags;
  return classifyProgram(Source, Diags);
}

TEST(ClassifyTest, ModulesNeedTwoArrayBindings) {
  EXPECT_EQ(classify(kPipeline4), ProgramKind::Module);
  EXPECT_EQ(classify(kCycle), ProgramKind::Module);
  // A one-binding letrec* is a plain construction.
  EXPECT_EQ(classify("let n = 4 in letrec* a = array (1,n) "
                     "[ i := 1.0 | i <- [1..n] ] in a"),
            ProgramKind::Array);
  // Parses as an application; compileArray diagnoses the missing array.
  EXPECT_EQ(classify("not a program at all"), ProgramKind::Array);
}

TEST(ClassifyTest, UpdateAndAccumForms) {
  const char *LetBound = "let n = 4 in\n"
                         "let b = bigupd a [ i := a!(i-1) | i <- [2..n] ]\n"
                         "in b\n";
  EXPECT_EQ(classify(LetBound), ProgramKind::Update);
  ProgramCompiler Upd(ProgramKind::Update);
  ASSERT_TRUE(Upd.compile(LetBound)) << Upd.diags().str();
  EXPECT_TRUE(Upd.thunkless()) << Upd.fallbackReason();

  const char *BareAccum =
      "let n = 4 in\n"
      "accumArray (\\acc v . acc + v) 0 (1,n) [ i := 1.0 | i <- [1..n] ]\n";
  EXPECT_EQ(classify(BareAccum), ProgramKind::Accum);
  ProgramCompiler Acc(ProgramKind::Accum);
  ASSERT_TRUE(Acc.compile(BareAccum)) << Acc.diags().str();
  EXPECT_TRUE(Acc.thunkless()) << Acc.fallbackReason();
}

TEST(ClassifyTest, PlainLetArrayIsTheTarget) {
  // `let a = array ... in a` defines `a` like `letrec* a = ...` does; the
  // interpreter binds a plain let's name over its own value, so the
  // recurrence reads the array being built.
  const char *PlainLet =
      "let n = 6 in\n"
      "let a = array (1,n) ([ i := 1.0 | i <- [1..1] ] ++\n"
      "                     [ i := a!(i-1) * 1.5 + 0.25 | i <- [2..n] ])\n"
      "in a\n";
  EXPECT_EQ(classify(PlainLet), ProgramKind::Array);
  ProgramCompiler P(ProgramKind::Array);
  ASSERT_TRUE(P.compile(PlainLet)) << P.diags().str();
  ASSERT_TRUE(P.thunkless()) << P.fallbackReason();
  Executor Exec(P.params());
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(P.run(Exec, Out, Err)) << Err;
  std::optional<DoubleArray> Ref = interpRef(PlainLet);
  ASSERT_TRUE(Ref.has_value());
  ASSERT_EQ(Ref->size(), Out.size());
  EXPECT_EQ(std::memcmp(Ref->data(), Out.data(), Out.size() * sizeof(double)),
            0);
  EXPECT_EQ(Out[5], 10.890625);
}

TEST(ClassifyTest, CommentsDoNotChangeTheKind) {
  // A text search for "bigupd" or "accumArray" misroutes this program.
  EXPECT_EQ(classify("-- not a bigupd, nor an accumArray\n"
                     "letrec* a = array (1,4) [ i := 1.0 | i <- [1..4] ] "
                     "in a\n"),
            ProgramKind::Array);
}

TEST(ClassifyTest, ParseErrorsReturnDiagnostics) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(classifyProgram("letrec* a = array (1,4) [ i := | i <- "
                               "[1..4] ] in a",
                               Diags)
                   .has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ClassifyTest, EveryExampleProgram) {
  const std::map<std::string, ProgramKind> Expected = {
      {"backward_inner.hac", ProgramKind::Array},
      {"coupled_scatter.hac", ProgramKind::Accum},
      {"histogram.hac", ProgramKind::Accum},
      {"jacobi_step.hac", ProgramKind::Update},
      {"rowswap.hac", ProgramKind::Update},
      {"sec5_example1.hac", ProgramKind::Array},
      {"wavefront.hac", ProgramKind::Array},
      {"bad/hac001_neg.hac", ProgramKind::Array},
      {"bad/hac001_pos.hac", ProgramKind::Array},
      {"bad/hac002_neg.hac", ProgramKind::Array},
      {"bad/hac002_pos.hac", ProgramKind::Array},
      {"bad/hac003_neg.hac", ProgramKind::Array},
      {"bad/hac003_pos.hac", ProgramKind::Array},
      {"bad/hac004_neg.hac", ProgramKind::Array},
      {"bad/hac004_pos.hac", ProgramKind::Array},
      {"bad/hac005_neg.hac", ProgramKind::Array},
      {"bad/hac005_pos.hac", ProgramKind::Array},
      {"bad/hac006_neg.hac", ProgramKind::Array},
      {"bad/hac006_pos.hac", ProgramKind::Array},
      {"bad/hac007_neg.hac", ProgramKind::Array},
      {"bad/hac007_pos.hac", ProgramKind::Array},
      {"bad/hac009_pos.hac", ProgramKind::Array},
      {"bad/hac010_pos.hac", ProgramKind::Update},
      {"bad/hac011_pos.hac", ProgramKind::Update},
      {"bad/hac012_pos.hac", ProgramKind::Update},
      {"bad/hac013_pos.hac", ProgramKind::Accum},
      {"bad/hac014_pos.hac", ProgramKind::Accum},
      {"multi/cycle.hac", ProgramKind::Module},
      {"multi/pipeline4.hac", ProgramKind::Module},
      {"multi/smooth_residual.hac", ProgramKind::Module},
  };
  namespace fs = std::filesystem;
  const fs::path Root(HAC_EXAMPLES_DIR);
  size_t Seen = 0;
  for (const auto &Entry : fs::recursive_directory_iterator(Root)) {
    if (Entry.path().extension() != ".hac")
      continue;
    const std::string Rel = fs::relative(Entry.path(), Root).string();
    auto It = Expected.find(Rel);
    ASSERT_NE(It, Expected.end()) << "no expected kind for " << Rel;
    std::ifstream In(Entry.path());
    std::stringstream Source;
    Source << In.rdbuf();
    EXPECT_EQ(classify(Source.str()), It->second) << Rel;
    ++Seen;
  }
  EXPECT_EQ(Seen, Expected.size());
}

TEST(ClassifyTest, UpdatesRunOnTheDeterministicStartArray) {
  ProgramCompiler P(ProgramKind::Update);
  ASSERT_TRUE(P.compile("let n = 3 in\n"
                        "bigupd m ([ (1,j) := m!(2,j) | j <- [1..n] ] ++\n"
                        "          [ (2,j) := m!(1,j) | j <- [1..n] ])\n"))
      << P.diags().str();
  ASSERT_TRUE(P.thunkless()) << P.fallbackReason();
  // Start: 1 + 0.25 * (k mod 7) over the 2x3 shape the subscripts cover.
  DoubleArray Start = P.startState();
  ASSERT_EQ(Start.size(), 6u);
  EXPECT_EQ(Start[5], 2.25);
  Executor Exec(P.params());
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(P.run(Exec, Out, Err)) << Err;
  const double Swapped[] = {1.75, 2.0, 2.25, 1.0, 1.25, 1.5};
  for (size_t I = 0; I != 6; ++I)
    EXPECT_EQ(Out[I], Swapped[I]) << I;
}

TEST(ModuleTest, StructuralErrorsAreDiagnosed) {
  ModuleCompiler MC;
  // Duplicate binding name.
  auto M = MC.compileModule(
      "letrec* a = array (1,4) [ i := 1.0 | i <- [1..4] ];\n"
      "        a = array (1,4) [ i := 2.0 | i <- [1..4] ]\n"
      "in a");
  EXPECT_FALSE(M.has_value());
  EXPECT_TRUE(MC.diags().hasErrors());
}

//===--------------------------------------------------------------------===//
// Staged-pipeline regression: the four single-program entry points must
// report exactly what the pre-refactor monolithic pipelines reported.
//===--------------------------------------------------------------------===//

TEST(StageRegressionTest, ArrayReportGolden) {
  Compiler C;
  auto R = C.compileArray(
      "let n = 16 in letrec* a = array ((1,1),(n,n)) "
      "([ (1,j) := 1.0 | j <- [1..n] ] ++ "
      " [ (i,1) := 1.0 | i <- [2..n] ] ++ "
      " [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) "
      "   | i <- [2..n], j <- [2..n] ]) in a");
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->report(),
            "=== array 'a' [1..16] [1..16] ===\n"
            "clauses: 3, loops: 4\n"
            "dependence graph:\n"
            "depgraph: 3 clauses, 7 edges\n"
            "  0 -> 2 () flow\n"
            "  0 -> 2 () flow\n"
            "  1 -> 2 () flow\n"
            "  1 -> 2 () flow\n"
            "  2 -> 2 (<,=) flow\n"
            "  2 -> 2 (=,<) flow\n"
            "  2 -> 2 (<,<) flow\n"
            "collisions: proven\n"
            "in-bounds: proven, empties: proven (instances 256 / size "
            "256)\n"
            "read-bounds: proven (3/3 reads proven)\n"
            "schedule (thunkless, 4 passes):\n"
            "pass j [1..16] either {\n"
            "  clause #0\n"
            "}\n"
            "pass i [2..16] either {\n"
            "  clause #1\n"
            "}\n"
            "pass i [2..16] forward {\n"
            "  pass j [2..16] forward {\n"
            "    clause #2\n"
            "  }\n"
            "}\n"
            "runtime checks: bounds=off collisions=off empties=off "
            "reads=off\n"
            "vectorizable inner loops: 2/3\n"
            "  loop j (1 clauses): vectorizable\n"
            "  loop i (1 clauses): vectorizable\n"
            "  loop j (1 clauses): blocked by 2 -> 2 (=,<) flow "
            "(recurrence)\n");
}

TEST(StageRegressionTest, UpdateReportGolden) {
  Compiler C;
  auto R = C.compileUpdate(
      "let n = 16 in bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + "
      "a!(i,j-1) + a!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ]");
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->report(),
            "=== bigupd 'a' ===\n"
            "clauses: 1\n"
            "dependence graph:\n"
            "depgraph: 1 clauses, 4 edges\n"
            "  0 -> 0 (>,=) anti\n"
            "  0 -> 0 (<,=) anti\n"
            "  0 -> 0 (=,>) anti\n"
            "  0 -> 0 (=,<) anti\n"
            "in place (splits: 2, extra copies: 392)\n"
            "  rolling-temp clause #0 level 0 distance 1\n"
            "  rolling-temp clause #0 level 1 distance 1\n"
            "schedule:\n"
            "pass i [2..15] forward {\n"
            "  pass j [2..15] forward {\n"
            "    clause #0\n"
            "  }\n"
            "}\n"
            "vectorizable inner loops: 1/1\n"
            "  loop j (1 clauses): vectorizable\n");
}

TEST(StageRegressionTest, AccumReportGolden) {
  Compiler C;
  auto R = C.compileAccum(
      "let n = 12 in letrec* h = accumArray (\\acc v . acc + 2.0 * v) "
      "0.5 (1,n) [ i := 1.0 * i | i <- [1..n] ] in h");
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->report(),
            "=== array 'h' [1..12] ===\n"
            "clauses: 1, loops: 1\n"
            "dependence graph:\n"
            "depgraph: 1 clauses, 0 edges\n"
            "collisions: proven\n"
            "in-bounds: proven, empties: proven (instances 12 / size 12)\n"
            "read-bounds: proven (0/0 reads proven)\n"
            "schedule (thunkless, 1 passes):\n"
            "pass i [1..12] either {\n"
            "  clause #0\n"
            "}\n"
            "runtime checks: bounds=off collisions=off empties=off "
            "reads=off\n"
            "vectorizable inner loops: 1/1\n"
            "  loop i (1 clauses): vectorizable\n");
}

TEST(StageRegressionTest, InPlaceReportGolden) {
  Compiler C;
  auto R = C.compileArrayInPlace(
      "let n = 6 in letrec* a = array (1,n) "
      "([ 1 := b!1 ] ++ [ i := a!(i-1) + b!i | i <- [2..n] ]) in a",
      "b");
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->report(),
            "=== array 'a' [1..6] ===\n"
            "clauses: 2, loops: 1\n"
            "dependence graph:\n"
            "depgraph: 2 clauses, 2 edges\n"
            "  0 -> 1 () flow\n"
            "  1 -> 1 (<) flow\n"
            "collisions: proven\n"
            "in-bounds: proven, empties: proven (instances 6 / size 6)\n"
            "read-bounds: proven (3/3 reads proven)\n"
            "schedule (thunkless, 1 passes):\n"
            "clause #0\n"
            "pass i [2..6] forward {\n"
            "  clause #1\n"
            "}\n"
            "runtime checks: bounds=off collisions=off empties=off "
            "reads=off\n"
            "vectorizable inner loops: 0/1\n"
            "  loop i (1 clauses): blocked by 1 -> 1 (<) flow "
            "(recurrence)\n");
}

//===--------------------------------------------------------------------===//
// Satellite: the Executor's LIR plan cache is LRU-bounded.
//===--------------------------------------------------------------------===//

/// Compiles a fresh single-array program whose plan differs per \p Seed
/// (distinct plan Ids), runs it on \p Exec, and returns success.
bool runDistinctPlan(Executor &Exec, int Seed) {
  Compiler C;
  std::string Src = "let n = " + std::to_string(4 + Seed) +
                    " in letrec* a = array (1,n) "
                    "[ i := i * 2.0 | i <- [1..n] ] in a";
  auto R = C.compileArray(Src);
  if (!R || !R->Thunkless)
    return false;
  DoubleArray Out;
  std::string Err;
  return R->evaluate(Out, Exec, Err);
}

TEST(LIRCacheTest, EvictsBeyondCapacity) {
  ASSERT_EQ(setenv("HAC_PLAN_CACHE", "2", 1), 0);
  {
    Executor Exec;
    for (int Seed = 0; Seed != 5; ++Seed)
      ASSERT_TRUE(runDistinctPlan(Exec, Seed));
    LIRCacheStats S = Exec.lirCacheStats();
    EXPECT_EQ(S.Capacity, 2u);
    EXPECT_LE(S.Entries, 2u);
    EXPECT_EQ(S.Misses, 5u);
    EXPECT_GE(S.Evictions, 3u);
  }
  unsetenv("HAC_PLAN_CACHE");
}

TEST(LIRCacheTest, HitsOnRepeatedPlan) {
  Executor Exec;
  Compiler C;
  auto R = C.compileArray("let n = 8 in letrec* a = array (1,n) "
                          "[ i := i * 1.0 | i <- [1..n] ] in a");
  ASSERT_TRUE(R.has_value());
  ASSERT_TRUE(R->Thunkless);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(R->evaluate(Out, Exec, Err));
  ASSERT_TRUE(R->evaluate(Out, Exec, Err));
  ASSERT_TRUE(R->evaluate(Out, Exec, Err));
  LIRCacheStats S = Exec.lirCacheStats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(LIRCacheTest, GarbageCapacityFallsBackToDefault) {
  ASSERT_EQ(setenv("HAC_PLAN_CACHE", "not-a-number", 1), 0);
  {
    Executor Exec;
    EXPECT_EQ(Exec.lirCacheStats().Capacity, 64u);
  }
  ASSERT_EQ(setenv("HAC_PLAN_CACHE", "0", 1), 0);
  {
    Executor Exec;
    EXPECT_EQ(Exec.lirCacheStats().Capacity, 1u);
  }
  unsetenv("HAC_PLAN_CACHE");
}

//===--------------------------------------------------------------------===//
// Satellite: HAC_THREADS parsing rejects garbage and clamps.
//===--------------------------------------------------------------------===//

TEST(ThreadEnvTest, ParsesClampsAndRejects) {
  ASSERT_EQ(setenv("HAC_THREADS", "3", 1), 0);
  EXPECT_EQ(par::ThreadPool::defaultThreads(), 3u);

  ASSERT_EQ(setenv("HAC_THREADS", "0", 1), 0);
  EXPECT_EQ(par::ThreadPool::defaultThreads(), 1u);

  ASSERT_EQ(setenv("HAC_THREADS", "-4", 1), 0);
  EXPECT_EQ(par::ThreadPool::defaultThreads(), 1u);

  ASSERT_EQ(setenv("HAC_THREADS", "999999", 1), 0);
  EXPECT_EQ(par::ThreadPool::defaultThreads(), 4096u);

  // Garbage falls back to the hardware default instead of 0 workers.
  ASSERT_EQ(setenv("HAC_THREADS", "eight", 1), 0);
  EXPECT_GE(par::ThreadPool::defaultThreads(), 1u);

  unsetenv("HAC_THREADS");
}

} // namespace
