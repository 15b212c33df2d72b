//===- tests/lir_test.cpp - Loop IR goldens + three-way differential ------===//
//
// Two halves:
//
//  * Golden structure tests pin the LIR the paper's Section 5/8 kernels
//    lower to — the loop shapes, the address code, the ring/snapshot
//    instructions — and that the optimization passes fire (and verify
//    clean) on each of them. Two more pin what the passes must keep
//    (result bits, error text and ExecStats, with the passes on vs off)
//    and the instructions per cell the evaluator may dispatch.
//
//  * A differential suite runs every program under examples/programs/
//    through three independent evaluators — the lazy reference
//    interpreter, the LIR evaluator behind Executor, and the emitted C
//    compiled by the system compiler — and requires bit-identical
//    results. This is the unified-lowering invariant made into a test:
//    both backends consume the same LIR, so they must agree exactly. It
//    also requires emitC's kernel to be, byte for byte, the one the JIT
//    renders from the Executor's program at 1 and 4 threads.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "jit/NativeBuild.h"
#include "codegen/ShapeEstimate.h"
#include "core/Compiler.h"
#include "core/InterpBridge.h"
#include "lir/LIR.h"
#include "lir/LIRLowering.h"
#include "lir/LIRPasses.h"
#include "support/Profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

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

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++Count;
  return Count;
}

/// Lowers a compiled plan the way the evaluator does, returning the
/// pre-pass and post-pass textual LIR (both sealed and verified).
struct LoweredText {
  std::string Before;
  std::string After;
  lir::LIRProgram Prog;
};

LoweredText lowerToText(const ExecPlan &Plan, const ArrayDims &Dims,
                        const ParamEnv &Params) {
  LoweredText R;
  R.Prog = lir::lowerPlan(Plan, Dims, Params, {},
                          /*AssumeTargetShape=*/false,
                          /*ValidateReads=*/false);
  std::string Err;
  EXPECT_TRUE(lir::seal(R.Prog, Err)) << Err;
  EXPECT_EQ(lir::verify(R.Prog), "");
  R.Before = lir::printLIR(R.Prog);
  lir::optimize(R.Prog);
  EXPECT_TRUE(lir::seal(R.Prog, Err)) << Err;
  EXPECT_EQ(lir::verify(R.Prog), "");
  R.After = lir::printLIR(R.Prog);
  return R;
}

using KernelFn = int (*)(double *, const double *const *);

/// One renderer: the kernel inside emitC's output is, byte for byte,
/// what emitKernelC renders from the program an Executor with the same
/// thread count runs (lir::buildProgram with the Executor's defaults).
void expectOneRenderer(const std::string &Path, const ExecPlan &Plan,
                       const ParamEnv &Params) {
  for (unsigned Threads : {1u, 4u}) {
    lir::LIRProgram P;
    std::string Err;
    ASSERT_TRUE(lir::buildProgram(Plan, Plan.Dims, Params, {}, {}, P, Err))
        << Path << "\n" << Err;
    KernelEmitOptions KOpts;
    KOpts.Threads = lir::legalizeKernel(P, Threads);
    CEmitResult Kernel = emitKernelC(P, "kernel_kernel", KOpts);
    CEmitResult Emitted = emitC(Plan, "kernel", Params, {}, Threads);
    ASSERT_TRUE(Kernel.OK) << Path << "\n" << Kernel.Error;
    ASSERT_TRUE(Emitted.OK) << Path << "\n" << Emitted.Error;
    EXPECT_EQ(Emitted.Code.substr(0, Kernel.Code.size()), Kernel.Code)
        << Path << " @" << Threads << " threads";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden structure: Section 5 / Section 8 kernels
//===----------------------------------------------------------------------===//

TEST(LIRGolden, Section5StrideThreeClauses) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("sec5_example1.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  LoweredText L =
      lowerToText(Compiled->Plan, Compiled->Dims, Compiled->Params);

  // One shared forward loop over i in [2..100]; three stores per pass
  // plus three scalar border stores ahead of it.
  EXPECT_EQ(countOccurrences(L.Before, "loop iv="), 1u);
  EXPECT_NE(L.Before.find("init=2 delta=1 trip=99"), std::string::npos);
  EXPECT_EQ(countOccurrences(L.Before, "store.t"), 6u);
  // a!(3*(i-1)) and a!(3*i) are target reads, not input loads.
  EXPECT_EQ(countOccurrences(L.Before, "load.t"), 2u);
  EXPECT_EQ(countOccurrences(L.Before, "load.in"), 0u);
  // Every store is guarded by a writability check in the evaluator.
  EXPECT_EQ(countOccurrences(L.Before, "check.idx"), 6u);

  // The passes must hoist the loop-invariant constants and strength-
  // reduce at least one address chain.
  EXPECT_GT(L.Prog.NumHoisted, 0u);
  EXPECT_GT(L.Prog.NumStrengthReduced, 0u);
}

TEST(LIRGolden, Section8WavefrontNest) {
  Compiler C;
  auto Compiled = C.compileArray(readFile(examplePath("wavefront.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  LoweredText L =
      lowerToText(Compiled->Plan, Compiled->Dims, Compiled->Params);

  // Two border loops plus the forward/forward interior nest.
  EXPECT_EQ(countOccurrences(L.Before, "loop iv="), 4u);
  // Three neighbour reads of the target per interior instance.
  EXPECT_EQ(countOccurrences(L.Before, "load.t"), 3u);
  EXPECT_EQ(countOccurrences(L.Before, "store.t"), 3u);
  EXPECT_GT(L.Prog.NumHoisted, 0u);
}

TEST(LIRGolden, Section9JacobiUsesRingBuffer) {
  Compiler C;
  auto Compiled = C.compileUpdate(readFile(examplePath("jacobi_step.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->InPlace) << Compiled->FallbackReason;

  // The driver path: the target shape is reconstructed from the affine
  // ranges of the writes *and* the stencil reads (the halo rows).
  ArrayDims Dims;
  ASSERT_TRUE(estimateUpdateDims(Compiled->Plan, Compiled->Params, Dims));
  ASSERT_EQ(Dims.size(), 2u);
  EXPECT_EQ(Dims[0], (std::pair<int64_t, int64_t>{1, 16}));
  EXPECT_EQ(Dims[1], (std::pair<int64_t, int64_t>{1, 16}));

  LoweredText L = lowerToText(Compiled->Plan, Dims, Compiled->Params);
  // Node splitting runs Jacobi in place with a previous-row ring: the
  // old value is saved before each store, and the north read goes
  // through the ring once enough rows are buffered.
  EXPECT_GT(countOccurrences(L.Before, "save.ring"), 0u);
  EXPECT_GT(countOccurrences(L.Before, "load.ring"), 0u);
}

TEST(LIRGolden, Section9RowswapUsesSnapshot) {
  Compiler C;
  auto Compiled = C.compileUpdate(readFile(examplePath("rowswap.hac")));
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->InPlace) << Compiled->FallbackReason;
  ArrayDims Dims;
  ASSERT_TRUE(estimateUpdateDims(Compiled->Plan, Compiled->Params, Dims));

  LoweredText L = lowerToText(Compiled->Plan, Dims, Compiled->Params);
  // The antidependence cycle is broken by a one-row snapshot copy: rows
  // are saved with snapsave.t and the swapped reads come from load.snap.
  EXPECT_GT(countOccurrences(L.Before, "snapsave.t"), 0u);
  EXPECT_GT(countOccurrences(L.Before, "load.snap"), 0u);
}

namespace {

/// Deterministic non-trivial starting contents for update targets.
void fillStart(DoubleArray &A) {
  for (size_t I = 0, N = A.size(); I != N; ++I)
    A[I] = 1.0 + 0.25 * static_cast<double>(I % 7);
}

/// Everything one run reports: success, error text, result bits and
/// all nine ExecStats fields.
struct RunReport {
  bool OK = false;
  std::string Err;
  DoubleArray Out;
  ExecStats Stats;
};

void expectSameReport(const RunReport &A, const RunReport &B,
                      const std::string &Where) {
  EXPECT_EQ(A.OK, B.OK) << Where;
  EXPECT_EQ(A.Err, B.Err) << Where;
  ASSERT_EQ(A.Out.size(), B.Out.size()) << Where;
  EXPECT_EQ(std::memcmp(A.Out.data(), B.Out.data(),
                        A.Out.size() * sizeof(double)),
            0)
      << Where;
  const ExecStats &X = A.Stats, &Y = B.Stats;
  EXPECT_EQ(X.Stores, Y.Stores) << Where;
  EXPECT_EQ(X.Loads, Y.Loads) << Where;
  EXPECT_EQ(X.RingSaves, Y.RingSaves) << Where;
  EXPECT_EQ(X.SnapshotCopies, Y.SnapshotCopies) << Where;
  EXPECT_EQ(X.BoundsChecks, Y.BoundsChecks) << Where;
  EXPECT_EQ(X.CollisionChecks, Y.CollisionChecks) << Where;
  EXPECT_EQ(X.GuardEvals, Y.GuardEvals) << Where;
  EXPECT_EQ(X.FusedIters, Y.FusedIters) << Where;
  EXPECT_EQ(X.TempBytes, Y.TempBytes) << Where;
}

using RunFn = std::function<bool(Executor &, DoubleArray &, std::string &)>;

/// Runs \p Run with the passes on and off at 1, 2, 4 and 8 threads and
/// requires each pair to report the same thing. Every thread count must
/// also succeed or fail like the 1-thread run, with the same error text,
/// and report the same result bits and ExecStats. Every run starts from
/// an output already shaped \p Dims and filled with a sentinel, so a
/// failed run that left elements unwritten would show it. Returns whether
/// the optimized 1-thread run succeeded.
bool checkPassesKeepReports(const ParamEnv &Params, const RunFn &Run,
                            const std::map<std::string, const DoubleArray *>
                                &Inputs,
                            const ArrayDims &Dims, const std::string &Where) {
  RunReport Serial;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    RunReport R[2];
    for (int Opt = 0; Opt != 2; ++Opt) {
      R[Opt].Out = DoubleArray(Dims);
      std::fill_n(R[Opt].Out.data(), R[Opt].Out.size(), -7777.25);
      Executor Exec(Params);
      Exec.setLIROptimize(Opt != 0);
      Exec.setNumThreads(Threads);
      for (const auto &[Name, A] : Inputs)
        Exec.bindInput(Name, A);
      R[Opt].OK = Run(Exec, R[Opt].Out, R[Opt].Err);
      R[Opt].Stats = Exec.stats();
    }
    const std::string At =
        Where + " @" + std::to_string(Threads) + " threads";
    expectSameReport(R[1], R[0], At);
    if (Threads == 1) {
      Serial = std::move(R[1]);
    } else if (Serial.OK) {
      expectSameReport(R[1], Serial, At + " vs 1 thread");
    } else {
      EXPECT_FALSE(R[1].OK) << At;
      EXPECT_EQ(R[1].Err, Serial.Err) << At;
    }
  }
  return Serial.OK;
}

/// Compiles \p Source the way hacc does (bigupd, accumArray or plain
/// construction) and checks it; returns false when nothing ran thunkless.
bool checkProgramReports(const std::string &Source,
                         const std::map<std::string, const DoubleArray *>
                             &Inputs,
                         const std::string &Where, bool &RanOK) {
  Compiler C;
  if (Source.find("bigupd") != std::string::npos) {
    auto U = C.compileUpdate(Source);
    EXPECT_TRUE(U.has_value()) << Where << "\n" << C.diags().str();
    if (!U || !U->InPlace)
      return false;
    ArrayDims Dims = U->Plan.Dims;
    if (Dims.empty() && !estimateUpdateDims(U->Plan, U->Params, Dims))
      return false;
    DoubleArray Start(Dims);
    fillStart(Start);
    RanOK = checkPassesKeepReports(
        U->Params,
        [&](Executor &E, DoubleArray &O, std::string &Err) {
          O = Start;
          return U->evaluateInPlace(O, E, Err);
        },
        Inputs, Dims, Where);
    return true;
  }
  auto A = Source.find("accumArray") != std::string::npos
               ? C.compileAccum(Source)
               : C.compileArray(Source);
  EXPECT_TRUE(A.has_value()) << Where << "\n" << C.diags().str();
  if (!A || !A->Thunkless)
    return false;
  RanOK = checkPassesKeepReports(
      A->Params,
      [&](Executor &E, DoubleArray &O, std::string &Err) {
        return A->evaluate(O, E, Err);
      },
      Inputs, A->Dims, Where);
  return true;
}

/// The 8x8 input `b` the programs below read.
DoubleArray inputGrid() {
  DoubleArray B({{1, 8}, {1, 8}});
  for (size_t I = 0, N = B.size(); I != N; ++I)
    B[I] = 0.5 + 0.125 * static_cast<double>(I % 11);
  return B;
}

/// A wavefront whose interior also reads input row \p Row, a function of
/// i alone whose range the analyses cannot bound: the read's bounds
/// check and the inner loop's counters end up in the wave prelude.
std::string wavePrelude(const std::string &Row) {
  return "let n = 8 in\n"
         "letrec* a = array ((1,1),(n,n))\n"
         "  ([ (1,j) := b!(1,j) | j <- [1..n] ] ++\n"
         "   [ (i,1) := b!(i,1) | i <- [2..n] ] ++\n"
         "   [ (i,j) := a!(i-1,j) + a!(i,j-1) + b!(" +
         Row + ", 1)\n     | i <- [2..n], j <- [2..n] ])\nin a\n";
}

} // namespace

TEST(LIRGolden, PassesNeverChangeResults) {
  // The optimizer never changes what a run reports: every example and
  // three faulting programs, with the passes on (the Executor default)
  // and with setLIROptimize(false), at 1, 2, 4 and 8 threads, must
  // produce the same result bits, error text and ExecStats, on success
  // and on failure. Counter folding moves counters across whole loops,
  // so this is the test of its "identical at every failure point"
  // contract. Across thread counts the error text must not change
  // either: the parallel runtimes re-seed carried slots per chunk.
  std::vector<std::filesystem::path> Programs;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HAC_EXAMPLES_DIR))
    if (Entry.is_regular_file() && Entry.path().extension() == ".hac")
      Programs.push_back(Entry.path());
  std::sort(Programs.begin(), Programs.end());
  size_t Checked = 0;
  for (const auto &Program : Programs) {
    bool RanOK = false;
    if (checkProgramReports(readFile(Program.string()), {}, Program.string(),
                            RanOK)) {
      ++Checked;
      EXPECT_TRUE(RanOK) << Program;
    }
  }
  EXPECT_GE(Checked, 5u);

  // Input reads carry bounds counters, which fold out of the first
  // clause's loops; the second clause's non-affine store leaves the
  // grid at row 6, after stores and counters have landed.
  const DoubleArray B = inputGrid();
  const std::string OutOfBounds =
      "let n = 8 in\n"
      "letrec* a = array ((1,1),(n,n))\n"
      "  ([ (i,j) := b!(i,j) + b!(i,j+1) | i <- [1..n], j <- [1..n-1] ] ++\n"
      "   [ (i, n + i / 6) := 2.0 * i | i <- [1..n] ])\nin a\n";
  // A non-affine column collides with an earlier store of row 6.
  const std::string Collision =
      "let n = 8 in\n"
      "letrec* a = array ((1,1),(n,n))\n"
      "  [ (i, j - (i / 6) * (j / 4)) := b!(i,j) + 0.5 * i\n"
      "    | i <- [1..n], j <- [1..n] ]\nin a\n";
  // A DOALL of trip 37 (no multiple of the 8, 16 or 32 chunks) whose
  // store column and divisor are carried slots: the column leaves the
  // grid at i = 31, inside a later chunk, before the divisor reaches
  // zero at i = 34. A chunk that started its carried slots at the loop
  // entry values would fail late with the division message, or not at
  // all.
  const std::string LateChunk =
      "let n = 37 in\n"
      "letrec* a = array ((1,1),(n,n))\n"
      "  [ (i, i + 7) := 0.5 * (100 / (i - 34)) | i <- [1..n] ]\nin a\n";
  for (const auto &[Name, Source] :
       {std::pair<std::string, std::string>{"out-of-bounds store", OutOfBounds},
        {"write collision", Collision},
        {"carried slots past a late chunk boundary", LateChunk}}) {
    bool RanOK = true;
    ASSERT_TRUE(checkProgramReports(Source, {{"b", &B}}, Name, RanOK))
        << Name << " did not compile thunkless";
    EXPECT_FALSE(RanOK) << Name << " was expected to fault";
  }
}

TEST(LIRGolden, WavePreludeKeepsHoistedChecks) {
  // Check hoisting and counter folding move the row-invariant input
  // check and the inner loop's counters into the wave prelude. The
  // evaluator keeps the pair parallel (every cell re-runs the check, the
  // first cell of a row counts the counters); the C rules demote it.
  // Every thread count reports what the serial run does, profile too,
  // and a row whose check fails stops every thread count with the
  // serial run's error.
  const DoubleArray B = inputGrid();
  Compiler C;
  auto A = C.compileArray(wavePrelude("i*i - i*i + 1"));
  ASSERT_TRUE(A && A->Thunkless) << C.diags().str();
  lir::LIRProgram P;
  std::string Err;
  ASSERT_TRUE(lir::buildProgram(A->Plan, A->Dims, A->Params,
                                {{"b", B.dims()}}, {}, P, Err))
      << Err;
  bool Check = false, Count = false;
  for (size_t I = 0; I != P.Code.size(); ++I)
    if (P.Code[I].Op == lir::LOp::LoopBegin && P.Code[I].parWaveOuter())
      for (size_t K = I + 1; P.Code[K].Op != lir::LOp::LoopBegin; ++K) {
        Check |= P.Code[K].Op == lir::LOp::CheckIdx;
        Count |= P.Code[K].Op == lir::LOp::CountBounds;
      }
  EXPECT_TRUE(Check && Count) << lir::printLIR(P);
  lir::legalizeKernel(P, 4);
  for (const lir::LInst &I : P.Code)
    EXPECT_FALSE(I.parWaveOuter() || I.parWaveInner());

  const RunFn Run = [&](Executor &E, DoubleArray &O, std::string &Err) {
    return A->evaluate(O, E, Err);
  };
  EXPECT_TRUE(checkPassesKeepReports(A->Params, Run, {{"b", &B}}, A->Dims,
                                     "check in a wave prelude"));
  ProfileSink &PS = ProfileSink::get();
  const bool WasOn = PS.enabled();
  PS.setEnabled(true);
  std::vector<std::pair<uint64_t, uint64_t>> Counts;
  for (unsigned Threads : {1u, 4u}) {
    PS.clear();
    Executor Exec(A->Params);
    Exec.setNumThreads(Threads);
    Exec.setJitMode(jit::JitMode::Off);
    Exec.bindInput("b", &B);
    DoubleArray Out;
    EXPECT_TRUE(Run(Exec, Out, Err)) << Err;
    for (const ProgramProfile &PP : PS.programsSnapshot())
      Counts.emplace_back(PP.RootInstrs, PP.RootChecks);
  }
  PS.setEnabled(WasOn);
  PS.clear();
  ASSERT_EQ(Counts.size(), 2u);
  EXPECT_EQ(Counts[0], Counts[1]);
  EXPECT_EQ(Counts[0].second, 7u) << "one prelude check per row";

  // Row 8 reads b!(9, 1).
  auto F = C.compileArray(wavePrelude("min (i*i - i*i + i + 1) 9"));
  ASSERT_TRUE(F && F->Thunkless) << C.diags().str();
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    Executor Exec(F->Params);
    Exec.setNumThreads(Threads);
    Exec.bindInput("b", &B);
    DoubleArray Out;
    EXPECT_FALSE(F->evaluate(Out, Exec, Err)) << Threads;
    EXPECT_EQ(Err, "array read out of bounds on 'b'") << Threads;
  }
}

TEST(LIRGolden, DispatchBudgetPerCell) {
  // The evaluator's cost per cell follows the instructions it
  // dispatches. After the passes, the wavefront interior is 3 loads,
  // 2 adds, a divide, a store, one address increment and the loop end;
  // Jacobi is 4 loads, 3 adds, a divide, a store, one increment and the
  // loop end. The budgets leave room for border loops and per-row work
  // at n=64, so dead inductions, per-load counters or parallel address
  // IVs coming back fail this test. A 4-thread Executor runs the same
  // program through the DOALL and wavefront runtimes and must dispatch
  // exactly as much (the profiler counts the serial equivalent).
  const int64_t N = 64;
  const std::string Head = "let n = " + std::to_string(N) + " in\n";
  const std::string Wavefront =
      Head + "letrec* a = array ((1,1),(n,n))\n"
             "  ([ (1,j) := 1.5 | j <- [1..n] ] ++\n"
             "   [ (i,1) := 1.5 | i <- [2..n] ] ++\n"
             "   [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0\n"
             "     | i <- [2..n], j <- [2..n] ])\nin a\n";
  const std::string Jacobi =
      Head + "letrec* a = array ((1,1),(n,n))\n"
             "  ([ (1,j) := b!(1,j) | j <- [1..n] ] ++\n"
             "   [ (n,j) := b!(n,j) | j <- [1..n] ] ++\n"
             "   [ (i,1) := b!(i,1) | i <- [2..n-1] ] ++\n"
             "   [ (i,n) := b!(i,n) | i <- [2..n-1] ] ++\n"
             "   [ (i,j) := (b!(i-1,j) + b!(i+1,j) + b!(i,j-1) + b!(i,j+1))"
             " / 4.0\n     | i <- [2..n-1], j <- [2..n-1] ])\nin a\n";
  DoubleArray B({{1, N}, {1, N}});
  for (size_t I = 0, S = B.size(); I != S; ++I)
    B[I] = 0.25 * static_cast<double>(I % 13);

  auto InstrsPerCell = [&](const std::string &Source,
                           unsigned Threads) -> double {
    Compiler C;
    auto A = C.compileArray(Source);
    EXPECT_TRUE(A && A->Thunkless) << C.diags().str();
    if (!A || !A->Thunkless)
      return 1e9;
    Executor Exec(A->Params);
    Exec.setNumThreads(Threads);
    Exec.setJitMode(jit::JitMode::Off);
    Exec.bindInput("b", &B);
    ProfileSink &PS = ProfileSink::get();
    const bool WasOn = PS.enabled();
    PS.clear();
    PS.setEnabled(true);
    DoubleArray Out;
    std::string Err;
    EXPECT_TRUE(A->evaluate(Out, Exec, Err)) << Err;
    PS.setEnabled(WasOn);
    uint64_t Instrs = 0;
    for (const ProgramProfile &PP : PS.programsSnapshot())
      Instrs += PP.RootInstrs;
    PS.clear();
    return static_cast<double>(Instrs) / static_cast<double>(Out.size());
  };
  for (unsigned Threads : {1u, 4u}) {
    EXPECT_LE(InstrsPerCell(Wavefront, Threads), 9.5) << Threads;
    EXPECT_LE(InstrsPerCell(Jacobi, Threads), 11.5) << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Three-way differential over every example program
//===----------------------------------------------------------------------===//

namespace {

/// interp vs Executor vs compiled C for one construction/accum program.
void diffConstruction(const std::string &Path, const std::string &Source,
                      bool Accum, size_t &Checked) {
  Compiler C;
  auto Compiled = Accum ? C.compileAccum(Source) : C.compileArray(Source);
  ASSERT_TRUE(Compiled.has_value()) << Path << "\n" << C.diags().str();
  if (!Compiled->Thunkless)
    return; // interpreter-only program; nothing to cross-check

  Interpreter Interp;
  Interp.setFuel(100'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  ASSERT_FALSE(V->isError()) << Path << "\n" << V->str();
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  ASSERT_TRUE(Ref.has_value()) << Path << "\n" << ConvErr;

  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Path << "\n" << Err;
  EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, Out), 0.0)
      << Path << ": interpreter vs LIR evaluator";

  // The parallel evaluator must be bit-identical to the serial one at
  // every thread count (DOALL partitioning and wavefront sweeps never
  // reorder the stores a result element observes).
  for (unsigned Threads : {2u, 8u}) {
    Executor ParExec(Compiled->Params);
    ParExec.setNumThreads(Threads);
    DoubleArray ParOut;
    std::string ParErr;
    ASSERT_TRUE(Compiled->evaluate(ParOut, ParExec, ParErr))
        << Path << " @" << Threads << " threads\n" << ParErr;
    EXPECT_LE(DoubleArray::maxAbsDiff(Out, ParOut), 0.0)
        << Path << ": serial vs " << Threads << "-thread LIR evaluator";
  }

  expectOneRenderer(Path, Compiled->Plan, Compiled->Params);
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Path << "\n" << Emitted.Error;
  ASSERT_TRUE(Emitted.InputNames.empty()) << Path;
  std::string BuildErr;
  KernelFn Fn = reinterpret_cast<KernelFn>(
      jit::buildNativeKernel(Emitted.Code, "kernel", BuildErr));
  ASSERT_NE(Fn, nullptr) << Path << "\n" << BuildErr;
  DoubleArray Native(Compiled->Dims);
  std::fill_n(Native.data(), Native.size(),
              Compiled->Plan.AccumInit.value_or(0.0));
  ASSERT_EQ(Fn(Native.data(), nullptr), HAC_OK) << Path;
  EXPECT_LE(DoubleArray::maxAbsDiff(Out, Native), 0.0)
      << Path << ": LIR evaluator vs compiled C";
  ++Checked;
}

/// interp vs Executor vs compiled C for one bigupd program.
void diffUpdate(const std::string &Path, const std::string &Source,
                size_t &Checked) {
  Compiler C;
  auto Compiled = C.compileUpdate(Source);
  ASSERT_TRUE(Compiled.has_value()) << Path << "\n" << C.diags().str();
  if (!Compiled->InPlace)
    return;

  ArrayDims Dims = Compiled->Plan.Dims;
  if (Dims.empty()) {
    ASSERT_TRUE(estimateUpdateDims(Compiled->Plan, Compiled->Params, Dims))
        << Path;
  }
  DoubleArray Start(Dims);
  fillStart(Start);

  Interpreter Interp;
  Interp.setFuel(100'000'000);
  DiagnosticEngine Diags;
  ValuePtr V =
      runThunked(Source, {{Compiled->BaseName, &Start}}, Interp, Diags);
  ASSERT_FALSE(V->isError()) << Path << "\n" << V->str();
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  ASSERT_TRUE(Ref.has_value()) << Path << "\n" << ConvErr;

  DoubleArray ExecOut = Start;
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(ExecOut, Exec, Err))
      << Path << "\n" << Err;
  EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, ExecOut), 0.0)
      << Path << ": interpreter vs LIR evaluator";

  for (unsigned Threads : {2u, 8u}) {
    DoubleArray ParOut = Start;
    Executor ParExec(Compiled->Params);
    ParExec.setNumThreads(Threads);
    std::string ParErr;
    ASSERT_TRUE(Compiled->evaluateInPlace(ParOut, ParExec, ParErr))
        << Path << " @" << Threads << " threads\n" << ParErr;
    EXPECT_LE(DoubleArray::maxAbsDiff(ExecOut, ParOut), 0.0)
        << Path << ": serial vs " << Threads << "-thread LIR evaluator";
  }

  ExecPlan Plan = Compiled->Plan;
  Plan.Dims = Dims;
  expectOneRenderer(Path, Plan, Compiled->Params);
  CEmitResult Emitted = emitC(Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Path << "\n" << Emitted.Error;
  std::string BuildErr;
  KernelFn Fn = reinterpret_cast<KernelFn>(
      jit::buildNativeKernel(Emitted.Code, "kernel", BuildErr));
  ASSERT_NE(Fn, nullptr) << Path << "\n" << BuildErr;
  DoubleArray Native = Start;
  ASSERT_EQ(Fn(Native.data(), nullptr), HAC_OK) << Path;
  EXPECT_LE(DoubleArray::maxAbsDiff(ExecOut, Native), 0.0)
      << Path << ": LIR evaluator vs compiled C";
  ++Checked;
}

} // namespace

TEST(LIRDifferential, AllExamplePrograms) {
  size_t Checked = 0;
  std::vector<std::filesystem::path> Programs;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HAC_EXAMPLES_DIR))
    if (Entry.is_regular_file() && Entry.path().extension() == ".hac")
      Programs.push_back(Entry.path());
  std::sort(Programs.begin(), Programs.end());
  ASSERT_GE(Programs.size(), 5u);

  for (const auto &Program : Programs) {
    std::string Source = readFile(Program.string());
    if (Source.find("bigupd") != std::string::npos)
      diffUpdate(Program.string(), Source, Checked);
    else
      diffConstruction(Program.string(), Source,
                       Source.find("accumArray") != std::string::npos,
                       Checked);
  }
  // The suite is only meaningful if most programs actually ran all
  // three legs (fallback programs are allowed to opt out).
  EXPECT_GE(Checked, 4u);
}
