//===- tests/accum_test.cpp - Accumulated arrays (Section 3) --------------===//
//
// The paper: "Haskell also offers a more general monolithic array
// function ... An interesting direction for further work would be to
// extend this analysis to general accumulated arrays." This suite covers
// the reference semantics (interpreter) and the static special case our
// pipeline compiles: when the collision analysis proves each element
// receives at most one pair, accumulation degenerates to a plain
// monolithic array with pre-initialized elements.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "core/InterpBridge.h"
#include "frontend/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hac;

namespace {

double interpElem(const std::string &Source, std::vector<int64_t> Index) {
  Interpreter Interp;
  Interp.setFuel(50'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  EXPECT_FALSE(V->isError()) << V->str();
  const auto *A = dyn_cast<ArrayValue>(V.get());
  EXPECT_TRUE(A) << V->str();
  if (!A)
    return -1e300;
  size_t Linear;
  EXPECT_TRUE(A->linearize(Index, Linear));
  ValuePtr EV = Interp.force(A->elemThunk(Linear));
  EXPECT_FALSE(EV->isError()) << EV->str();
  if (const auto *I = dyn_cast<IntValue>(EV.get()))
    return double(I->value());
  if (const auto *F = dyn_cast<FloatValue>(EV.get()))
    return F->value();
  return -1e300;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter semantics
//===----------------------------------------------------------------------===//

TEST(AccumTest, Histogram) {
  // Classic accumArray use: counting. Values 1,2,2,3,3,3 into 3 buckets.
  const char *Source =
      "accumArray (\\acc v . acc + v) 0 (1,3) "
      "[ 1 := 1, 2 := 1, 2 := 1, 3 := 1, 3 := 1, 3 := 1 ]";
  EXPECT_DOUBLE_EQ(interpElem(Source, {1}), 1.0);
  EXPECT_DOUBLE_EQ(interpElem(Source, {2}), 2.0);
  EXPECT_DOUBLE_EQ(interpElem(Source, {3}), 3.0);
}

TEST(AccumTest, UntouchedElementsAreInit) {
  const char *Source = "accumArray (\\a v . a + v) 7 (1,4) [ 2 := 10 ]";
  EXPECT_DOUBLE_EQ(interpElem(Source, {1}), 7.0);
  EXPECT_DOUBLE_EQ(interpElem(Source, {2}), 17.0);
  EXPECT_DOUBLE_EQ(interpElem(Source, {4}), 7.0);
}

TEST(AccumTest, NonCommutativeCombiningPreservesListOrder) {
  // f acc v = acc * 10 + v is order-sensitive: [1,2,3] -> 123.
  const char *Source = "accumArray (\\a v . a * 10 + v) 0 (1,1) "
                       "[ 1 := 1, 1 := 2, 1 := 3 ]";
  EXPECT_DOUBLE_EQ(interpElem(Source, {1}), 123.0);
}

TEST(AccumTest, ComprehensionPairs) {
  const char *Source =
      "let n = 10 in accumArray (\\a v . a + v) 0 (1,5) "
      "[ i % 5 + 1 := i | i <- [1..n] ]";
  // Buckets b collect i with i % 5 == b-1: e.g. bucket 1 gets 5 and 10.
  EXPECT_DOUBLE_EQ(interpElem(Source, {1}), 15.0);
  EXPECT_DOUBLE_EQ(interpElem(Source, {2}), 1.0 + 6.0);
}

TEST(AccumTest, OutOfBoundsIsError) {
  Interpreter Interp;
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(
      "accumArray (\\a v . a + v) 0 (1,2) [ 3 := 1 ]", {}, Interp, Diags);
  ASSERT_TRUE(V->isError());
  EXPECT_NE(cast<ErrorValue>(V.get())->message().find("out of bounds"),
            std::string::npos);
}

TEST(AccumTest, RoundTripsThroughPrinterAndTE) {
  DiagnosticEngine Diags;
  ExprPtr E = parseString(
      "accumArray (\\a v . a + v) 0 (1,3) [ i := 1 | i <- [1..3] ]", Diags);
  ASSERT_TRUE(E) << Diags.str();
  EXPECT_TRUE(isa<AccumArrayExpr>(E.get()));
}

//===----------------------------------------------------------------------===//
// The compiled special case
//===----------------------------------------------------------------------===//

TEST(AccumTest, CollisionFreeAccumCompiles) {
  // Each element receives exactly one pair: compiled thunklessly, values
  // become f z v = 0.5 + 2*i inlined.
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 12 in "
      "letrec* h = accumArray (\\acc v . acc + 2.0 * v) 0.5 (1,n) "
      "[ i := 1.0 * i | i <- [1..n] ] in h");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  EXPECT_FALSE(Compiled->Plan.CheckCollisions);
  EXPECT_FALSE(Compiled->Plan.CheckEmpties);

  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;
  EXPECT_DOUBLE_EQ(Out.at({5}), 0.5 + 10.0);
  EXPECT_DOUBLE_EQ(Out.at({12}), 0.5 + 24.0);
}

TEST(AccumTest, SparseAccumPreFillsInit) {
  // Only half the elements receive a pair; the rest are the initial
  // value, and NO empties error fires.
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 10 in "
      "letrec* h = accumArray (\\a v . a + v) 3.0 (1,n) "
      "[ 2*i := 1.0 * i | i <- [1..n/2] ] in h");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;
  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;
  EXPECT_DOUBLE_EQ(Out.at({1}), 3.0);      // untouched
  EXPECT_DOUBLE_EQ(Out.at({4}), 3.0 + 2.0); // pair (4, 2)
  EXPECT_DOUBLE_EQ(Out.at({9}), 3.0);
}

TEST(AccumTest, SparseAccumIntoReusedOutputPreFillsInit) {
  // The output arrives already shaped and holding other values (a
  // sentinel, then the previous run's result): the Executor, not the
  // caller's storage, gives untouched elements the initial value.
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 10 in "
      "letrec* h = accumArray (\\a v . a + v) 3.0 (1,n) "
      "[ 2*i := 1.0 * i | i <- [1..n/2] ] in h");
  ASSERT_TRUE(Compiled && Compiled->Thunkless)
      << (Compiled ? Compiled->FallbackReason : C.diags().str());
  ASSERT_TRUE(Compiled->Plan.AccumInit.has_value());
  EXPECT_EQ(*Compiled->Plan.AccumInit, 3.0);
  Executor Exec(Compiled->Params);
  DoubleArray Out(Compiled->Dims);
  std::fill_n(Out.data(), Out.size(), -7777.25);
  std::string Err;
  for (int Run = 0; Run != 2; ++Run) {
    ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;
    for (int64_t I = 1; I <= 10; ++I)
      EXPECT_DOUBLE_EQ(Out.at({I}), I % 2 ? 3.0 : 3.0 + I / 2)
          << "element " << I << ", run " << Run;
  }
}

TEST(AccumTest, CompiledMatchesInterpreter) {
  const char *Source =
      "let n = 16 in "
      "letrec* h = accumArray (\\a v . a + v * v) 1.0 (1,n) "
      "[ i := 0.5 * i | i <- [1..n] ] in h";
  Compiler C;
  auto Compiled = C.compileAccum(Source);
  ASSERT_TRUE(Compiled && Compiled->Thunkless)
      << (Compiled ? Compiled->FallbackReason : C.diags().str());
  Executor Exec(Compiled->Params);
  DoubleArray Out;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Out, Exec, Err)) << Err;

  Interpreter Interp;
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  ASSERT_FALSE(V->isError()) << V->str();
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  ASSERT_TRUE(Ref.has_value()) << ConvErr;
  EXPECT_LE(DoubleArray::maxAbsDiff(*Ref, Out), 1e-12);
}

TEST(AccumTest, PossibleCollisionsFallBack) {
  // A real histogram: many pairs per bucket. Order-sensitive combining
  // must not be statically reordered; the pipeline refuses.
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 20 in "
      "letrec* h = accumArray (\\a v . a + v) 0 (1,5) "
      "[ i % 5 + 1 := 1 | i <- [1..n] ] in h");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  EXPECT_FALSE(Compiled->Thunkless);
  EXPECT_NE(Compiled->FallbackReason.find("combining order"),
            std::string::npos)
      << Compiled->FallbackReason;
}

TEST(AccumTest, NonLambdaCombinerFallsBack) {
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 4 in letrec* h = accumArray f 0 (1,n) [ 1 := 1 ] in h");
  ASSERT_TRUE(Compiled.has_value());
  EXPECT_FALSE(Compiled->Thunkless);
  EXPECT_NE(Compiled->FallbackReason.find("lambda"), std::string::npos);
}
