//===- tests/property_test.cpp - Randomized differential testing ----------===//
//
// Generates random (but by-construction well-formed) array comprehension
// programs and checks the central soundness property of the whole
// pipeline: the statically scheduled thunkless execution computes exactly
// what the lazy reference semantics prescribe, and every compiled read
// touches an already-computed element (schedule safety, verified by the
// executor's validation mode).
//
// Generators:
//  * rank-1 recurrences with strided clauses and a uniform read offset;
//  * rank-2 recurrences whose read offsets are lexicographically negative
//    (hence always schedulable with forward loops);
//  * random in-place updates (bigupd) with arbitrary-sign offsets, where
//    node splitting must preserve the copying semantics.
//
// Every compiled program also runs at 1, 2, 4 and 8 threads, and once
// with the LIR passes off: those results and ExecStats must match the
// 1-thread run bit for bit. Every 8th program also runs as a native
// kernel at 1 and 4 threads against a private cache: first in JIT async
// mode (one run interpreting while cc works, one after the hot swap),
// then in sync mode on the same kernel, so the optimized LIR's C
// rendering and the tier swap are checked against the evaluator too.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/InterpBridge.h"
#include "jit/JitCompiler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <sstream>

using namespace hac;

namespace {

/// Formats a double exactly representable in 6 decimals (quarters).
std::string quarter(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> Q(-8, 8);
  int V = Q(Rng);
  std::ostringstream OS;
  OS << (V / 4) << "." << (V % 4 < 0 ? -(V % 4) : V % 4) * 25;
  std::string S = OS.str();
  // e.g. -1.25, 0.75, 2.0
  if (S.back() == '0' && S[S.size() - 2] == '.')
    return S; // x.0 forms like "2.0"
  return S;
}

/// One evaluation of a compiled program into \p Out with \p Exec.
using EvalFn =
    std::function<bool(Executor &Exec, DoubleArray &Out, std::string &Err)>;

void expectSameStats(const ExecStats &A, const ExecStats &B,
                     const std::string &Where) {
  EXPECT_EQ(A.Stores, B.Stores) << Where;
  EXPECT_EQ(A.Loads, B.Loads) << Where;
  EXPECT_EQ(A.RingSaves, B.RingSaves) << Where;
  EXPECT_EQ(A.SnapshotCopies, B.SnapshotCopies) << Where;
  EXPECT_EQ(A.BoundsChecks, B.BoundsChecks) << Where;
  EXPECT_EQ(A.CollisionChecks, B.CollisionChecks) << Where;
  EXPECT_EQ(A.GuardEvals, B.GuardEvals) << Where;
  EXPECT_EQ(A.FusedIters, B.FusedIters) << Where;
  EXPECT_EQ(A.TempBytes, B.TempBytes) << Where;
}

/// The native leg's kernel cache: one directory per test process,
/// removed when the process exits.
struct KernelCacheDir {
  std::filesystem::path Dir;
  KernelCacheDir()
      : Dir(std::filesystem::temp_directory_path() /
            ("hac-property-jit-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~KernelCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

/// Runs \p Eval with non-validating executors at 1, 2, 4 and 8 threads
/// and with the LIR passes off; every 8th program also runs as an async
/// and a sync native kernel at 1 and 4 threads. Every leg runs twice on
/// its executor, the second time into the output the first produced, and
/// the serial leg runs once more into a sentinel-filled output. Each run
/// must agree with the interpreter's \p Ref and reproduce the first
/// 1-thread run's result bits and ExecStats (stats are reset before each
/// run, so each run is compared by its own delta).
void checkAcrossThreads(const ParamEnv &Params, const EvalFn &Eval,
                        const DoubleArray &Ref, const std::string &Source) {
  static unsigned Programs = 0;
  const bool Native = Programs++ % 8 == 0;
  Executor Serial(Params);
  DoubleArray SerialOut;
  std::string Err;
  ASSERT_TRUE(Eval(Serial, SerialOut, Err)) << Err << "\n" << Source;
  ASSERT_EQ(Ref.size(), SerialOut.size()) << Source;
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, SerialOut), 1e-9) << Source;
  const DoubleArray Expected = SerialOut;
  const ExecStats ExpectedStats = Serial.stats();

  auto RunInto = [&](Executor &E, DoubleArray &Out, const std::string &Where) {
    E.resetStats();
    ASSERT_TRUE(Eval(E, Out, Err)) << Err << "\n" << Where;
    ASSERT_EQ(Out.size(), Expected.size()) << Where;
    EXPECT_EQ(std::memcmp(Out.data(), Expected.data(),
                          Out.size() * sizeof(double)),
              0)
        << Where;
    EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 1e-9) << Where;
    expectSameStats(E.stats(), ExpectedStats, Where);
  };
  auto Check = [&](Executor &E, const std::string &Where) {
    DoubleArray Out;
    RunInto(E, Out, Where);
    RunInto(E, Out, "rerun into its own output, " + Where);
  };
  RunInto(Serial, SerialOut, "serial rerun into its own output\n" + Source);
  DoubleArray Sentinel(Expected.dims());
  std::fill_n(Sentinel.data(), Sentinel.size(), -7777.25);
  RunInto(Serial, Sentinel, "serial run into a sentinel-filled output\n" +
                                Source);
  for (unsigned Threads : {2u, 4u, 8u}) {
    Executor Par(Params);
    Par.setNumThreads(Threads);
    Check(Par, std::to_string(Threads) + " threads\n" + Source);
  }
  Executor Unoptimized(Params);
  Unoptimized.setLIROptimize(false);
  Check(Unoptimized, "LIR passes off\n" + Source);
  if (!Native)
    return;
  static KernelCacheDir Cache;
  jit::JitCompiler JC({Cache.Dir.string(), 256ull << 20});
  for (unsigned Threads : {1u, 4u}) {
    const std::string Where = std::to_string(Threads) + " threads\n" + Source;
    // Async first, against a cache that has not seen this kernel: the
    // first runs interpret while cc works, the later ones run the kernel
    // swapped in once the compiler is idle.
    Executor Async(Params);
    Async.setNumThreads(Threads);
    Async.setJitMode(jit::JitMode::Async);
    Async.setJitCompiler(&JC);
    Check(Async, "async kernel, first runs, " + Where);
    JC.waitIdle();
    Check(Async, "async kernel, after the swap, " + Where);
    EXPECT_GE(Async.jitStats().NativeRuns, 2u) << Source;
    EXPECT_EQ(Async.jitStats().NativeRuns + Async.jitStats().InterpRuns, 4u)
        << Source;

    // The sync leg reuses the async leg's kernel: no second cc run.
    const uint64_t Compiles = JC.stats().Compiles;
    Executor Jitted(Params);
    Jitted.setNumThreads(Threads);
    Jitted.setJitMode(jit::JitMode::Sync);
    Jitted.setJitCompiler(&JC);
    Check(Jitted, "native kernel, " + Where);
    EXPECT_EQ(Jitted.jitStats().NativeRuns, 2u) << Source;
    EXPECT_EQ(JC.stats().Compiles, Compiles) << Source;
  }
}

/// Differential check for a construction program.
void checkConstruction(const std::string &Source, bool ExpectThunkless) {
  Compiler C;
  auto Compiled = C.compileArray(Source);
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str() << "\n" << Source;
  if (ExpectThunkless) {
    ASSERT_TRUE(Compiled->Thunkless)
        << Compiled->FallbackReason << "\n" << Source;
  }
  if (!Compiled->Thunkless)
    return;

  Executor Exec(Compiled->Params);
  Exec.setValidateReads(true);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err << "\n" << Source;

  Interpreter Interp;
  Interp.setFuel(100'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  ASSERT_FALSE(V->isError()) << V->str() << "\n" << Source;
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  ASSERT_TRUE(Ref.has_value()) << ConvErr << "\n" << Source;
  ASSERT_EQ(Ref->size(), Out.size()) << Source;
  EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, Out), 1e-9) << Source;

  checkAcrossThreads(
      Compiled->Params,
      [&](Executor &E, DoubleArray &O, std::string &Err) {
        return Compiled->evaluate(O, E, Err);
      },
      *Ref, Source);
}

class PropertyTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

//===----------------------------------------------------------------------===//
// Rank-1 strided recurrences
//===----------------------------------------------------------------------===//

TEST_P(PropertyTest, Rank1Recurrences) {
  std::mt19937 Rng(GetParam() * 7919 + 1);
  std::uniform_int_distribution<int64_t> NDist(8, 16);
  std::uniform_int_distribution<int> BDist(1, 3);
  std::uniform_int_distribution<int> SignDist(0, 1);

  for (int Iter = 0; Iter != 40; ++Iter) {
    int64_t N = NDist(Rng);
    int B = BDist(Rng);
    bool Forward = SignDist(Rng) != 0; // read earlier vs later elements
    std::uniform_int_distribution<int> MagDist(1, B);
    int D = Forward ? -MagDist(Rng) : MagDist(Rng);

    std::ostringstream OS;
    OS << "let n = " << N << " in letrec* a = array (1,n) "
       << "([ i := " << quarter(Rng) << " * i + " << quarter(Rng)
       << " | i <- [1.." << B << "] ] ++ "
       << "[ i := " << quarter(Rng) << " * i | i <- [n-" << (B - 1)
       << "..n] ] ++ "
       << "[ i := " << quarter(Rng) << " * a!(i+(" << D << ")) + "
       << quarter(Rng) << " | i <- [" << (B + 1) << "..n-" << B
       << "] ]) in a";
    checkConstruction(OS.str(), /*ExpectThunkless=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Rank-2 lexicographically-backward recurrences
//===----------------------------------------------------------------------===//

TEST_P(PropertyTest, Rank2Wavefronts) {
  std::mt19937 Rng(GetParam() * 104729 + 3);
  std::uniform_int_distribution<int64_t> NDist(8, 12);
  std::uniform_int_distribution<int> BDist(1, 2);
  std::uniform_int_distribution<int> OffCount(1, 3);

  for (int Iter = 0; Iter != 25; ++Iter) {
    int64_t N = NDist(Rng);
    int B = BDist(Rng);
    // Lexicographically negative offsets with components in [-B..B]:
    // (di < 0) or (di == 0 and dj < 0). Always schedulable forward.
    std::uniform_int_distribution<int> DI(-B, 0);
    std::uniform_int_distribution<int> DJAny(-B, B);
    std::uniform_int_distribution<int> DJNeg(-B, -1);

    int Count = OffCount(Rng);
    std::ostringstream Value;
    for (int K = 0; K != Count; ++K) {
      int Di = DI(Rng);
      int Dj = Di == 0 ? DJNeg(Rng) : DJAny(Rng);
      if (K)
        Value << " + ";
      Value << quarter(Rng) << " * a!(i+(" << Di << "),j+(" << Dj << "))";
    }

    std::ostringstream OS;
    OS << "let n = " << N << "; b = " << B
       << " in letrec* a = array ((1,1),(n,n)) "
       // Top and bottom border strips (rows 1..b and n-b+1..n).
       << "([ (i,j) := 1.0 * i + 0.5 * j | i <- [1..b], j <- [1..n] ] ++ "
       << "[ (i,j) := 0.25 * i * j | i <- [n-b+1..n], j <- [1..n] ] ++ "
       // Left and right border strips for the middle rows.
       << "[ (i,j) := 0.5 * i - 1.0 * j "
       << "| i <- [b+1..n-b], j <- [1..b] ] ++ "
       << "[ (i,j) := 1.0 * j | i <- [b+1..n-b], j <- [n-b+1..n] ] ++ "
       // Interior recurrence.
       << "[ (i,j) := " << Value.str() << " + " << quarter(Rng)
       << " | i <- [b+1..n-b], j <- [b+1..n-b] ]) in a";
    checkConstruction(OS.str(), /*ExpectThunkless=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Random in-place updates
//===----------------------------------------------------------------------===//

namespace {

void checkUpdate(const std::string &Source, int64_t N, unsigned Rank,
                 std::mt19937 &Rng) {
  // Random starting contents.
  std::uniform_real_distribution<double> Val(-4.0, 4.0);
  DoubleArray Target = Rank == 1
                           ? DoubleArray(DoubleArray::Dims{{1, N}})
                           : DoubleArray(DoubleArray::Dims{{1, N}, {1, N}});
  for (size_t I = 0; I != Target.size(); ++I)
    Target[I] = Val(Rng);

  // Reference: copying semantics under the interpreter.
  DoubleArray RefIn = Target;
  Interpreter Interp;
  Interp.setFuel(100'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {{"a", &RefIn}}, Interp, Diags);
  ASSERT_FALSE(V->isError()) << V->str() << "\n" << Source;
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  ASSERT_TRUE(Ref.has_value()) << ConvErr << "\n" << Source;

  // Compiled: in place (possibly with node splits).
  Compiler C;
  auto Compiled = C.compileUpdate(Source);
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str() << "\n" << Source;
  ASSERT_TRUE(Compiled->InPlace)
      << Compiled->FallbackReason << "\n" << Source;
  DoubleArray Initial = Target;
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(Target, Exec, Err))
      << Err << "\n" << Source;
  EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, Target), 1e-9) << Source;

  checkAcrossThreads(
      Compiled->Params,
      [&](Executor &E, DoubleArray &O, std::string &Err) {
        O = Initial;
        return Compiled->evaluateInPlace(O, E, Err);
      },
      *Ref, Source);
}

} // namespace

TEST_P(PropertyTest, Rank1Updates) {
  std::mt19937 Rng(GetParam() * 51151 + 11);
  std::uniform_int_distribution<int64_t> NDist(8, 16);
  std::uniform_int_distribution<int> DDist(-3, 3);

  for (int Iter = 0; Iter != 40; ++Iter) {
    int64_t N = NDist(Rng);
    int D = DDist(Rng);
    if (D == 0)
      D = 1;
    int64_t Lo = 1 + std::max(0, -D);
    int64_t Hi = N - std::max(0, D);
    std::ostringstream OS;
    OS << "let n = " << N << " in bigupd a [ i := " << quarter(Rng)
       << " * a!(i+(" << D << ")) + " << quarter(Rng) << " * a!i | i <- ["
       << Lo << ".." << Hi << "] ]";
    checkUpdate(OS.str(), N, 1, Rng);
  }
}

TEST_P(PropertyTest, GuardedUpdatesForceSnapshotNotRolling) {
  // Rolling temporaries are unsound for guarded clauses (skipped
  // instances skip the saves); the scheduler must fall back to snapshots
  // and still match copying semantics exactly.
  std::mt19937 Rng(GetParam() * 7727 + 5);
  std::uniform_int_distribution<int64_t> NDist(8, 14);
  std::uniform_int_distribution<int> Mod(2, 4);

  for (int Iter = 0; Iter != 15; ++Iter) {
    int64_t N = NDist(Rng);
    int M = Mod(Rng);
    std::ostringstream OS;
    // Reads to the "left" under a guard: the anti edge is (>), violated
    // by the forward order another read forces.
    OS << "let n = " << N << " in bigupd a [ i := " << quarter(Rng)
       << " * a!(i-1) + " << quarter(Rng) << " * a!(i+1)"
       << " | i <- [2..n-1], i % " << M << " == 0 ]";
    std::string Source = OS.str();

    Compiler C;
    auto Compiled = C.compileUpdate(Source);
    ASSERT_TRUE(Compiled.has_value()) << C.diags().str() << "\n" << Source;
    ASSERT_TRUE(Compiled->InPlace)
        << Compiled->FallbackReason << "\n" << Source;
    for (const SplitAction &A : Compiled->Update.Splits)
      EXPECT_EQ(A.K, SplitAction::Kind::Snapshot)
          << "rolling split on a guarded clause: " << A.str();
    checkUpdate(Source, N, 1, Rng);
  }
}

TEST_P(PropertyTest, Rank2StencilUpdates) {
  std::mt19937 Rng(GetParam() * 31337 + 17);
  std::uniform_int_distribution<int64_t> NDist(6, 10);
  std::uniform_int_distribution<int> Off(-1, 1);
  std::uniform_int_distribution<int> Count(1, 4);

  for (int Iter = 0; Iter != 25; ++Iter) {
    int64_t N = NDist(Rng);
    int K = Count(Rng);
    std::ostringstream Value;
    for (int I = 0; I != K; ++I) {
      int Di = Off(Rng), Dj = Off(Rng);
      if (I)
        Value << " + ";
      Value << quarter(Rng) << " * a!(i+(" << Di << "),j+(" << Dj << "))";
    }
    std::ostringstream OS;
    OS << "let n = " << N << " in bigupd a [ (i,j) := " << Value.str()
       << " | i <- [2..n-1], j <- [2..n-1] ]";
    checkUpdate(OS.str(), N, 2, Rng);
  }
}

//===----------------------------------------------------------------------===//
// Random storage-reuse constructions (the SOR pattern)
//===----------------------------------------------------------------------===//

TEST_P(PropertyTest, StorageReuseConstructions) {
  // Gauss-Seidel-like sweeps: new west/north values, old east/south
  // values, result overwrites the old grid's storage. Compiled in place
  // (aliased reads) and compared against the purely functional reference.
  std::mt19937 Rng(GetParam() * 99991 + 23);
  std::uniform_int_distribution<int64_t> NDist(6, 10);
  std::uniform_real_distribution<double> Val(-2.0, 2.0);

  for (int Iter = 0; Iter != 12; ++Iter) {
    int64_t N = NDist(Rng);
    std::ostringstream OS;
    OS << "let n = " << N << " in letrec* a = array ((1,1),(n,n)) "
       << "([ (1,j) := b!(1,j) | j <- [1..n] ] ++ "
       << "[ (n,j) := b!(n,j) | j <- [1..n] ] ++ "
       << "[ (i,1) := b!(i,1) | i <- [2..n-1] ] ++ "
       << "[ (i,n) := b!(i,n) | i <- [2..n-1] ] ++ "
       << "[ (i,j) := " << quarter(Rng) << " * a!(i-1,j) + " << quarter(Rng)
       << " * a!(i,j-1) + " << quarter(Rng) << " * b!(i+1,j) + "
       << quarter(Rng) << " * b!(i,j+1) + " << quarter(Rng)
       << " * b!(i,j) | i <- [2..n-1], j <- [2..n-1] ]) in a";
    std::string Source = OS.str();

    DoubleArray B(DoubleArray::Dims{{1, N}, {1, N}});
    for (size_t I = 0; I != B.size(); ++I)
      B[I] = Val(Rng);

    // Functional reference via the interpreter (b stays intact there).
    Interpreter Interp;
    Interp.setFuel(100'000'000);
    DiagnosticEngine Diags;
    ValuePtr V = runThunked(Source, {{"b", &B}}, Interp, Diags);
    ASSERT_FALSE(V->isError()) << V->str() << "\n" << Source;
    std::string ConvErr;
    auto Ref = interpArrayToDouble(Interp, V, ConvErr);
    ASSERT_TRUE(Ref.has_value()) << ConvErr;

    // Compiled: overwrite b's storage in place.
    Compiler C;
    auto Compiled = C.compileArrayInPlace(Source, "b");
    ASSERT_TRUE(Compiled.has_value()) << C.diags().str() << "\n" << Source;
    ASSERT_TRUE(Compiled->Thunkless)
        << Compiled->FallbackReason << "\n" << Source;
    DoubleArray Target = B;
    Executor Exec(Compiled->Params);
    std::string Err;
    ASSERT_TRUE(Compiled->evaluateInPlace(Target, Exec, Err))
        << Err << "\n" << Source;
    EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, Target), 1e-9) << Source;
    // The wavefront needs no temporaries at all.
    EXPECT_EQ(Exec.stats().RingSaves + Exec.stats().SnapshotCopies, 0u);

    checkAcrossThreads(
        Compiled->Params,
        [&](Executor &E, DoubleArray &O, std::string &Err) {
          O = B;
          return Compiled->evaluateInPlace(O, E, Err);
        },
        *Ref, Source);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1u, 2u, 3u));
