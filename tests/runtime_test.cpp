//===- tests/runtime_test.cpp - DoubleArray / Executor tests --------------===//

#include "core/Compiler.h"
#include "runtime/BufferPool.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hac;

//===----------------------------------------------------------------------===//
// DoubleArray
//===----------------------------------------------------------------------===//

TEST(DoubleArrayTest, LinearizeRowMajor) {
  DoubleArray A(DoubleArray::Dims{{1, 3}, {1, 4}});
  EXPECT_EQ(A.size(), 12u);
  size_t Linear;
  ASSERT_TRUE(A.linearize((const int64_t[]){1, 1}, 2, Linear));
  EXPECT_EQ(Linear, 0u);
  ASSERT_TRUE(A.linearize((const int64_t[]){1, 4}, 2, Linear));
  EXPECT_EQ(Linear, 3u);
  ASSERT_TRUE(A.linearize((const int64_t[]){2, 1}, 2, Linear));
  EXPECT_EQ(Linear, 4u);
  ASSERT_TRUE(A.linearize((const int64_t[]){3, 4}, 2, Linear));
  EXPECT_EQ(Linear, 11u);
}

TEST(DoubleArrayTest, NonUnitLowerBounds) {
  DoubleArray A(DoubleArray::Dims{{-2, 2}});
  EXPECT_EQ(A.size(), 5u);
  A.set({-2}, 7.0);
  A.set({2}, 9.0);
  EXPECT_DOUBLE_EQ(A.at({-2}), 7.0);
  EXPECT_DOUBLE_EQ(A.at({2}), 9.0);
  size_t Linear;
  EXPECT_FALSE(A.linearize((const int64_t[]){3}, 1, Linear));
  EXPECT_FALSE(A.linearize((const int64_t[]){-3}, 1, Linear));
}

TEST(DoubleArrayTest, RankMismatchRejected) {
  DoubleArray A(DoubleArray::Dims{{1, 3}, {1, 3}});
  size_t Linear;
  EXPECT_FALSE(A.linearize((const int64_t[]){1}, 1, Linear));
  EXPECT_FALSE(A.linearize((const int64_t[]){1, 1, 1}, 3, Linear));
}

TEST(DoubleArrayTest, DefinedBits) {
  DoubleArray A(DoubleArray::Dims{{1, 4}});
  EXPECT_TRUE(A.isDefined(0)); // no bitmap: everything counts as defined
  A.enableDefinedBits();
  EXPECT_FALSE(A.isDefined(0));
  EXPECT_EQ(A.firstUndefined(), 0u);
  A.setDefined(0);
  A.setDefined(1);
  EXPECT_EQ(A.firstUndefined(), 2u);
  A.setDefined(2);
  A.setDefined(3);
  EXPECT_EQ(A.firstUndefined(), 4u);
  A.markAllDefined();
  EXPECT_TRUE(A.isDefined(2));
}

TEST(DoubleArrayTest, MaxAbsDiff) {
  DoubleArray A(DoubleArray::Dims{{1, 3}});
  DoubleArray B(DoubleArray::Dims{{1, 3}});
  A.set({1}, 1.0);
  B.set({1}, 1.5);
  A.set({3}, -2.0);
  B.set({3}, 2.0);
  EXPECT_DOUBLE_EQ(DoubleArray::maxAbsDiff(A, B), 4.0);
}

TEST(DoubleArrayTest, EmptyDimension) {
  DoubleArray A(DoubleArray::Dims{{5, 4}}); // hi < lo
  EXPECT_EQ(A.size(), 0u);
}

TEST(DoubleArrayTest, ReshapeKeepsStorage) {
  DoubleArray A(DoubleArray::Dims{{1, 8}});
  A.enableDefinedBits();
  const double *Storage = A.data();
  A.reshape({{1, 2}, {1, 4}});
  EXPECT_EQ(A.rank(), 2u);
  EXPECT_EQ(A.size(), 8u);
  EXPECT_EQ(A.data(), Storage);
  EXPECT_FALSE(A.hasDefinedBits());
  A.reshape({{0, 3}});
  EXPECT_EQ(A.size(), 4u);
  EXPECT_EQ(A.data(), Storage);
  A.reshape({{1, 100}, {1, 3}});
  EXPECT_EQ(A.size(), 300u);
  A.set({100, 3}, 2.5);
  EXPECT_DOUBLE_EQ(A.at({100, 3}), 2.5);
}

TEST(BufferPoolTest, AcquireRecyclesSlotStorage) {
  BufferPool Pool(2);
  DoubleArray &First = Pool.acquire(0, {{1, 8}});
  const double *Storage = First.data();
  Pool.acquire(1, {{1, 4}});
  DoubleArray &Again = Pool.acquire(0, {{1, 2}, {1, 4}});
  EXPECT_EQ(Again.data(), Storage);
  EXPECT_EQ(Again.size(), 8u);
  EXPECT_EQ(Pool.allocations(), 2u);
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(Pool.liveBytes(), 12 * sizeof(double));
  EXPECT_EQ(Pool.peakBytes(), 12 * sizeof(double));
}

//===----------------------------------------------------------------------===//
// Executor behavior through compiled plans
//===----------------------------------------------------------------------===//

namespace {

CompiledArray compileOk(const std::string &Source,
                        const CompileOptions &Options = CompileOptions()) {
  Compiler C(Options);
  auto Compiled = C.compileArray(Source);
  EXPECT_TRUE(Compiled.has_value()) << C.diags().str();
  EXPECT_TRUE(!Compiled || Compiled->Thunkless)
      << Compiled->FallbackReason;
  return std::move(*Compiled);
}

} // namespace

TEST(ExecutorTest, StatsCountStoresAndLoads) {
  CompiledArray Compiled = compileOk(
      "let n = 10 in letrec* a = array (1,n) "
      "([ 1 := 1.0 ] ++ [ i := a!(i-1) * 2.0 | i <- [2..n] ]) in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().Stores, 10u);
  EXPECT_EQ(Exec.stats().Loads, 9u);
  EXPECT_DOUBLE_EQ(Out.at({10}), 512.0);
}

TEST(ExecutorTest, GuardsSkipInstances) {
  CompiledArray Compiled = compileOk(
      "let n = 10 in letrec* a = array (1,n) "
      "([ i := 1.0 | i <- [1..n], i % 2 == 0 ] ++ "
      " [ i := 2.0 | i <- [1..n], i % 2 == 1 ]) in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().Stores, 10u);     // half of each clause
  EXPECT_EQ(Exec.stats().GuardEvals, 20u); // every instance evaluated
}

TEST(ExecutorTest, EmptiesCheckFires) {
  // Coverage analysis cannot prove fullness (guard), and the guard
  // actually leaves holes: the runtime empties check must fire.
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i := 1.0 | i <- [1..n], i % 2 == 0 ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  ASSERT_TRUE(Compiled->Plan.CheckEmpties);
  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  EXPECT_FALSE(Compiled->evaluate(Out, Exec, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
}

TEST(ExecutorTest, CollisionCheckFires) {
  // A guarded kernel whose guard does NOT prevent the collision: the
  // analysis cannot prove safety (guard), the runtime check catches it.
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i / 2 := 1.0 | i <- [2..n], i > 1 ] in a");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  ASSERT_TRUE(Compiled->Plan.CheckCollisions);
  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  EXPECT_FALSE(Compiled->evaluate(Out, Exec, Err));
  EXPECT_NE(Err.find("collision"), std::string::npos) << Err;
}

TEST(ExecutorTest, BoundsCheckFires) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i + 1 := 1.0 | i <- [1..n], i > 0 ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  ASSERT_TRUE(Compiled->Plan.CheckStoreBounds);
  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  EXPECT_FALSE(Compiled->evaluate(Out, Exec, Err));
  EXPECT_NE(Err.find("out of bounds"), std::string::npos) << Err;
}

TEST(ExecutorTest, FailedRunIgnoresWhatTheOutputHeld) {
  // Coverage is proven, so no empties sweep runs, but a!5 divides by
  // zero after a!1..a!4 landed and a!6..a!10 are never written. A
  // program that can fail runs on a zero-filled target, so the failure
  // state is the same from a fresh output and from a sentinel.
  CompiledArray Compiled = compileOk(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i := 1 / (i - 5) | i <- [1..n] ] in a");
  ASSERT_FALSE(Compiled.Plan.CheckEmpties);
  DoubleArray Outs[2];
  Outs[1] = DoubleArray(Compiled.Dims);
  std::fill_n(Outs[1].data(), Outs[1].size(), -7777.25);
  std::string Errs[2];
  for (int I = 0; I != 2; ++I) {
    Executor Exec(Compiled.Params);
    EXPECT_FALSE(Compiled.evaluate(Outs[I], Exec, Errs[I]));
  }
  EXPECT_NE(Errs[0].find("division by zero"), std::string::npos) << Errs[0];
  EXPECT_EQ(Errs[1], Errs[0]);
  EXPECT_DOUBLE_EQ(Outs[1].at({4}), -1.0);
  EXPECT_DOUBLE_EQ(Outs[1].at({10}), 0.0);
  EXPECT_EQ(DoubleArray::maxAbsDiff(Outs[0], Outs[1]), 0.0);
}

TEST(ExecutorTest, UnboundArrayIsRuntimeError) {
  CompiledArray Compiled = compileOk(
      "let n = 4 in letrec* a = array (1,n) "
      "[ i := missing!i | i <- [1..n] ] in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  EXPECT_FALSE(Compiled.evaluate(Out, Exec, Err));
  EXPECT_NE(Err.find("unbound array"), std::string::npos) << Err;
}

TEST(ExecutorTest, FusedFoldWithGuardAndLet) {
  CompiledArray Compiled = compileOk(
      "let n = 1 in letrec* s = array (1,1) "
      "[ 1 := sum [ v | k <- [1..10], k % 2 == 0, let v = 1.0 * k * k ] ]"
      " in s");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_DOUBLE_EQ(Out.at({1}), 4.0 + 16.0 + 36.0 + 64.0 + 100.0);
}

TEST(ExecutorTest, FusedProductAndNestedComp) {
  CompiledArray Compiled = compileOk(
      "letrec* s = array (1,2) "
      "[ 1 := product [ 1.0 * k | k <- [1..5] ], "
      "  2 := sum [* [1.0 * i, 2.0 * i] | i <- [1..3] *] ] in s");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_DOUBLE_EQ(Out.at({1}), 120.0);
  EXPECT_DOUBLE_EQ(Out.at({2}), (1 + 2 + 3) * 3.0);
}

TEST(ExecutorTest, ScalarLetAndIfInValues) {
  CompiledArray Compiled = compileOk(
      "let n = 6 in letrec* a = array (1,n) "
      "[ i := (let d = i * 2 in if d > 6 then 1.0 * d else 0.5 * d) "
      "| i <- [1..n] ] in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_DOUBLE_EQ(Out.at({2}), 2.0);  // 0.5 * 4
  EXPECT_DOUBLE_EQ(Out.at({5}), 10.0); // 1.0 * 10
}

TEST(ExecutorTest, IntegerSemanticsMatchInterpreter) {
  // Integer division and modulo must truncate exactly like the reference
  // interpreter.
  CompiledArray Compiled = compileOk(
      "let n = 7 in letrec* a = array (1,n) "
      "[ i := 1.0 * (i * 10 / 3 % 4) | i <- [1..n] ] in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  for (int64_t I = 1; I <= 7; ++I)
    EXPECT_DOUBLE_EQ(Out.at({I}), double(I * 10 / 3 % 4)) << I;
}

TEST(ExecutorTest, DivisionByZeroIsRuntimeError) {
  CompiledArray Compiled = compileOk(
      "let n = 3 in letrec* a = array (1,n) "
      "[ i := 1 / (i - 2) | i <- [1..n] ] in a");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  EXPECT_FALSE(Compiled.evaluate(Out, Exec, Err));
  EXPECT_NE(Err.find("division by zero"), std::string::npos) << Err;
}

TEST(ExecutorTest, RollingDistanceTwo) {
  // A distance-2 rolling split: b!i := a!(i-2) in place, forward loop
  // forced by another read. Ring must hold two phases.
  Compiler C;
  auto Compiled = C.compileUpdate(
      "let n = 10 in "
      "bigupd a [ i := a!(i-2) + 0 * a!(i+1) | i <- [3..n-1] ]");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->InPlace) << Compiled->FallbackReason;
  // The a!(i+1) read forces the forward direction; a!(i-2) then needs a
  // rolling temp of distance 2.
  bool HasDist2 = false;
  for (const SplitAction &A : Compiled->Update.Splits)
    HasDist2 |= A.K == SplitAction::Kind::Rolling && A.Distance == 2;
  ASSERT_TRUE(HasDist2) << Compiled->report();

  DoubleArray A(DoubleArray::Dims{{1, 10}});
  for (int64_t I = 1; I <= 10; ++I)
    A.set({I}, double(I * 100));
  DoubleArray Expect = A;
  for (int64_t I = 3; I <= 9; ++I)
    Expect.set({I}, double((I - 2) * 100)); // old values!
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(A, Exec, Err)) << Err;
  EXPECT_LE(DoubleArray::maxAbsDiff(A, Expect), 1e-12);
}

TEST(ExecutorTest, TempBytesTracksPeak) {
  // Conflicting vertical reads force a rolling split (a single direction
  // cannot satisfy both anti dependences).
  Compiler C;
  auto Compiled = C.compileUpdate(
      "let n = 12 in "
      "bigupd a [ (i,j) := a!(i-1,j) + a!(i+1,j) "
      "| i <- [2..n-1], j <- [1..n] ]");
  ASSERT_TRUE(Compiled && Compiled->InPlace) << C.diags().str();
  DoubleArray A(DoubleArray::Dims{{1, 12}, {1, 12}});
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(A, Exec, Err)) << Err;
  EXPECT_GT(Exec.stats().TempBytes, 0u);

  // High-water-mark regression: the peak equals the plan's own temporary
  // footprint (sum of ring and snapshot element counts, as doubles), and
  // stays the peak — re-running a plan with no temporaries must not
  // lower it.
  uint64_t PlanBytes = 0;
  for (const RingSpec &R : Compiled->Plan.Rings)
    PlanBytes += R.size() * sizeof(double);
  for (const SnapshotSpec &S : Compiled->Plan.Snapshots)
    PlanBytes += S.size() * sizeof(double);
  EXPECT_EQ(Exec.stats().TempBytes, PlanBytes);

  CompiledArray Plain = compileOk(
      "let n = 4 in letrec* b = array (1,n) "
      "[ i := 1.0 | i <- [1..n] ] in b");
  DoubleArray Out;
  ASSERT_TRUE(Plain.evaluate(Out, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().TempBytes, PlanBytes);
}

TEST(ExecutorTest, RingSavesCountRollingStores) {
  // Every store into a rolling-split region first saves the old value
  // into the ring: RingSaves == Stores for this kernel.
  Compiler C;
  auto Compiled = C.compileUpdate(
      "let n = 10 in "
      "bigupd a [ i := a!(i-2) + 0 * a!(i+1) | i <- [3..n-1] ]");
  ASSERT_TRUE(Compiled && Compiled->InPlace) << C.diags().str();
  DoubleArray A(DoubleArray::Dims{{1, 10}});
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(A, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().Stores, 7u); // i in [3..9]
  EXPECT_EQ(Exec.stats().RingSaves, 7u);
  EXPECT_EQ(Exec.stats().SnapshotCopies, 0u);
}

TEST(ExecutorTest, SnapshotCopiesCountRegionElements) {
  // Reversal reads at distance n+1-2i — not a constant, so the split
  // must snapshot the read region up front rather than roll a ring.
  Compiler C;
  auto Compiled = C.compileUpdate(
      "let n = 8 in bigupd a [ i := a!(n+1-i) | i <- [1..n] ]");
  ASSERT_TRUE(Compiled && Compiled->InPlace) << C.diags().str();
  ASSERT_FALSE(Compiled->Plan.Snapshots.empty());
  DoubleArray A(DoubleArray::Dims{{1, 8}});
  for (int64_t I = 1; I <= 8; ++I)
    A.set({I}, double(I));
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(A, Exec, Err)) << Err;
  uint64_t RegionElems = 0;
  for (const SnapshotSpec &S : Compiled->Plan.Snapshots)
    RegionElems += S.size();
  EXPECT_GT(RegionElems, 0u);
  EXPECT_EQ(Exec.stats().SnapshotCopies, RegionElems);
  EXPECT_DOUBLE_EQ(A.at({1}), 8.0); // reversed from the old values
  EXPECT_DOUBLE_EQ(A.at({8}), 1.0);
}

TEST(ExecutorTest, BoundsAndCollisionChecksCountCheckedStores) {
  // With check elimination ablated the checks stay on even though the
  // kernel is provably safe: each runs once per store without firing.
  CompileOptions Options;
  Options.EnableCheckElimination = false;
  CompiledArray Compiled =
      compileOk("let n = 10 in letrec* a = array (1,n) "
                "[ i := 1.0 | i <- [1..n] ] in a",
                Options);
  ASSERT_TRUE(Compiled.Plan.CheckStoreBounds);
  ASSERT_TRUE(Compiled.Plan.CheckCollisions);
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().Stores, 10u);
  EXPECT_EQ(Exec.stats().BoundsChecks, 10u);
  EXPECT_EQ(Exec.stats().CollisionChecks, 10u);
}

TEST(ExecutorTest, FusedItersCountFoldIterations) {
  // One fused sum over k in [1..10] plus one over k in [1..5]: the fold
  // loops run 15 iterations total without materializing a list.
  CompiledArray Compiled = compileOk(
      "letrec* s = array (1,2) "
      "[ 1 := sum [ 1.0 * k | k <- [1..10] ], "
      "  2 := sum [ 1.0 * k | k <- [1..5] ] ] in s");
  Executor Exec(Compiled.Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled.evaluate(Out, Exec, Err)) << Err;
  EXPECT_EQ(Exec.stats().FusedIters, 15u);
  EXPECT_DOUBLE_EQ(Out.at({1}), 55.0);
  EXPECT_DOUBLE_EQ(Out.at({2}), 15.0);
}
