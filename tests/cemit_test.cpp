//===- tests/cemit_test.cpp - C backend differential tests ----------------===//
//
// Emits C for compiled plans, builds it with the system C compiler, loads
// the shared object, and checks the native kernel computes exactly what
// the plan executor (and hence the lazy reference semantics) computes.
// This is the paper's end product made literal: the array comprehension
// really becomes a Fortran-grade C loop nest.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "jit/NativeBuild.h"
#include "core/Compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

using namespace hac;

namespace {

using KernelFn = int (*)(double *, const double *const *);

/// gtest shim over the shared jit/ cc + dlopen harness.
KernelFn buildKernel(const std::string &Code, const std::string &FnName) {
  std::string Error;
  KernelFn Fn = reinterpret_cast<KernelFn>(
      jit::buildNativeKernel(Code, FnName, Error));
  if (!Fn)
    ADD_FAILURE() << Error;
  return Fn;
}

/// End-to-end check for a construction program: executor result vs native
/// C kernel result.
void checkConstruction(const std::string &Source,
                       const std::map<std::string, DoubleArray> &Inputs =
                           {}) {
  Compiler C;
  auto Compiled = C.compileArray(Source);
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;

  // Reference: the plan executor.
  Executor Exec(Compiled->Params);
  for (const auto &[Name, Arr] : Inputs)
    Exec.bindInput(Name, &Arr);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Ref, Exec, Err)) << Err;

  // Native: emitted C.
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);

  DoubleArray Out(Compiled->Dims);
  std::vector<const double *> InputPtrs;
  for (const std::string &Name : Emitted.InputNames) {
    auto It = Inputs.find(Name);
    ASSERT_NE(It, Inputs.end()) << "missing input " << Name;
    InputPtrs.push_back(It->second.data());
  }
  int Rc = Fn(Out.data(), InputPtrs.data());
  ASSERT_EQ(Rc, HAC_OK);
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0) << Source;
}

/// End-to-end check for an update program applied to \p Start.
void checkUpdate(const std::string &Source, const DoubleArray &Start) {
  Compiler C;
  auto Compiled = C.compileUpdate(Source);
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->InPlace) << Compiled->FallbackReason;

  DoubleArray Ref = Start;
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(Ref, Exec, Err)) << Err;

  ExecPlan Plan = Compiled->Plan;
  Plan.Dims.assign(Start.dims().begin(), Start.dims().end());
  CEmitResult Emitted = emitC(Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);

  DoubleArray Out = Start;
  int Rc = Fn(Out.data(), nullptr);
  ASSERT_EQ(Rc, HAC_OK);
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0) << Source;
}

DoubleArray grid(int64_t N) {
  DoubleArray A(DoubleArray::Dims{{1, N}, {1, N}});
  for (int64_t I = 1; I <= N; ++I)
    for (int64_t J = 1; J <= N; ++J)
      A.set({I, J}, double((I * 7 + J * 3) % 13) + 0.5);
  return A;
}

} // namespace

TEST(CEmitTest, Wavefront) {
  checkConstruction(
      "let n = 24 in letrec* a = array ((1,1),(n,n)) "
      "([ (1,j) := 1.0 | j <- [1..n] ] ++ "
      " [ (i,1) := 1.0 | i <- [2..n] ] ++ "
      " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0 "
      "   | i <- [2..n], j <- [2..n] ]) in a");
}

TEST(CEmitTest, BackwardInnerLoop) {
  checkConstruction(
      "let n = 12 in letrec* a = array ((1,1),(n,n)) "
      "([ (i,n) := 1.0 * i | i <- [1..n] ] ++ "
      " [ (i,j) := a!(i,j+1) + 0.25 | i <- [1..n], j <- [1..n-1] ]) in a");
}

TEST(CEmitTest, Section5Example1) {
  checkConstruction(
      "letrec* a = array (1,300) "
      "([* [3*i := 1.0] ++ [3*i-1 := a!(3*(i-1)) + 1.0] ++ "
      "[3*i-2 := a!(3*i) * 2.0] | i <- [2..100] *] "
      "++ [ 1 := 2.0, 2 := 2.0, 3 := 1.0 ]) in a");
}

TEST(CEmitTest, GuardedPartitionWithChecks) {
  // The guard keeps the empties check; the C kernel maintains the defined
  // bitmap and still succeeds (the guard is a tautology).
  checkConstruction("let k = 40 in letrec* a = array (1,3*k) "
                    "[* [3*i := 1.0] ++ [3*i-1 := 2.0] ++ [3*i-2 := 3.0] "
                    "| i <- [1..k], i > 0 *] in a");
}

TEST(CEmitTest, EmptiesDetectedAtRuntime) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "[ i := 1.0 | i <- [1..n], i % 2 == 0 ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out(Compiled->Dims);
  EXPECT_EQ(Fn(Out.data(), nullptr), HAC_ERR_EMPTY);
}

TEST(CEmitTest, FusedFoldsAndLets) {
  DoubleArray B(DoubleArray::Dims{{1, 12}});
  for (int64_t I = 1; I <= 12; ++I)
    B.set({I}, double(I) * 0.5);
  checkConstruction(
      "let n = 12 in letrec* a = array (1,n) "
      "[ i := (let s = sum [ b!k | k <- [1..i], k % 2 == 1 ] in "
      "if s > 3.0 then s else s * 2.0) | i <- [1..n] ] in a",
      {{"b", std::move(B)}});
}

TEST(CEmitTest, IntegerDivisionSemantics) {
  checkConstruction("let n = 9 in letrec* a = array (1,n) "
                    "[ i := 1.0 * (i * 7 / 2 % 5) | i <- [1..n] ] in a");
}

TEST(CEmitTest, DivisionByZeroReported) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 4 in letrec* a = array (1,n) "
      "[ i := 1 / (i - 2) | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out(Compiled->Dims);
  EXPECT_EQ(Fn(Out.data(), nullptr), HAC_ERR_DIV_ZERO);
}

TEST(CEmitTest, ResidualReadCheckReported) {
  // a!(2*i - 12) reads a!0 at i = 6: the read check the analyses keep
  // must fail in the C kernel exactly as it does in the evaluator,
  // instead of reading target[-1].
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 10 in letrec* a = array (1,n) "
      "([ i := 1.0 | i <- [1..5] ] ++ "
      " [ i := a!(2*i - 12) + 1.0 | i <- [6..n] ]) in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  Executor Exec(Compiled->Params);
  DoubleArray Ref;
  std::string Err;
  ASSERT_FALSE(Compiled->evaluate(Ref, Exec, Err));
  EXPECT_NE(Err.find("array read out of bounds on 'a'"), std::string::npos)
      << Err;
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out(Compiled->Dims);
  EXPECT_EQ(Fn(Out.data(), nullptr), HAC_ERR_BOUNDS);
}

TEST(CEmitTest, JacobiRollingRings) {
  checkUpdate("let n = 12 in "
              "bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + "
              "a!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ]",
              grid(12));
}

TEST(CEmitTest, RowSwapSnapshot) {
  checkUpdate("let n = 8 in "
              "bigupd a ([ (1,j) := a!(2,j) | j <- [1..n] ] ++ "
              "          [ (2,j) := a!(1,j) | j <- [1..n] ])",
              grid(8));
}

TEST(CEmitTest, ReversalSnapshot) {
  DoubleArray V(DoubleArray::Dims{{1, 11}});
  for (int64_t I = 1; I <= 11; ++I)
    V.set({I}, double(I * I));
  checkUpdate("let n = 11 in bigupd a [ i := a!(n+1-i) | i <- [1..n] ]", V);
}

TEST(CEmitTest, RollingDistanceTwo) {
  DoubleArray V(DoubleArray::Dims{{1, 12}});
  for (int64_t I = 1; I <= 12; ++I)
    V.set({I}, double(I * 10));
  checkUpdate("let n = 12 in "
              "bigupd a [ i := a!(i-2) + 0.0 * a!(i+1) | i <- [3..n-1] ]",
              V);
}

TEST(CEmitTest, SorInPlaceAliased) {
  // Storage reuse: reads of the old grid alias the target buffer.
  int64_t N = 10;
  std::string Source =
      "let n = 10 in letrec* a = array ((1,1),(n,n)) "
      "([ (1,j) := b!(1,j) | j <- [1..n] ] ++ "
      " [ (n,j) := b!(n,j) | j <- [1..n] ] ++ "
      " [ (i,1) := b!(i,1) | i <- [2..n-1] ] ++ "
      " [ (i,n) := b!(i,n) | i <- [2..n-1] ] ++ "
      " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + b!(i+1,j) + b!(i,j+1)) / 4.0 "
      "   | i <- [2..n-1], j <- [2..n-1] ]) in a";
  Compiler C;
  auto Compiled = C.compileArrayInPlace(Source, "b");
  ASSERT_TRUE(Compiled.has_value()) << C.diags().str();
  ASSERT_TRUE(Compiled->Thunkless) << Compiled->FallbackReason;

  DoubleArray Ref = grid(N);
  Executor Exec(Compiled->Params);
  std::string Err;
  ASSERT_TRUE(Compiled->evaluateInPlace(Ref, Exec, Err)) << Err;

  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  // Reads of "b" alias the target: no inputs expected.
  EXPECT_TRUE(Emitted.InputNames.empty());
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out = grid(N);
  ASSERT_EQ(Fn(Out.data(), nullptr), HAC_OK);
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0);
}

TEST(CEmitTest, InputWithDifferentShape) {
  // The input array has its own bounds (0..20, lower bound 0!) distinct
  // from the target's: the emitter must linearize reads with the
  // supplied input shape.
  DoubleArray B(DoubleArray::Dims{{0, 20}});
  for (int64_t I = 0; I <= 20; ++I)
    B.set({I}, double(I * 3));
  const char *Source = "let n = 10 in letrec* a = array (1,n) "
                       "[ i := b!(2*i) + b!0 | i <- [1..n] ] in a";
  Compiler C;
  auto Compiled = C.compileArray(Source);
  ASSERT_TRUE(Compiled && Compiled->Thunkless) << C.diags().str();

  Executor Exec(Compiled->Params);
  Exec.bindInput("b", &B);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Ref, Exec, Err)) << Err;
  ASSERT_DOUBLE_EQ(Ref.at({4}), 24.0); // b!8 + b!0 = 24 + 0

  CEmitResult Emitted =
      emitC(Compiled->Plan, "kernel", Compiled->Params,
            {{"b", ArrayDims{{0, 20}}}});
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out(Compiled->Dims);
  const double *Inputs[] = {B.data()};
  ASSERT_EQ(Fn(Out.data(), Inputs), HAC_OK);
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0);
}

TEST(CEmitTest, RandomizedNativeDifferential) {
  // Random rank-1 recurrences and rank-2 wavefronts (the same generator
  // family as property_test), each emitted as C, built natively, and
  // compared against the plan executor exactly.
  std::mt19937 Rng(20260705);
  std::uniform_int_distribution<int64_t> NDist(8, 14);
  std::uniform_int_distribution<int> BDist(1, 2);
  std::uniform_int_distribution<int> SignDist(0, 1);
  auto Q = [&]() {
    static const char *Vals[] = {"0.25", "0.5",  "0.75", "1.0",
                                 "-0.5", "1.25", "-1.0", "2.0"};
    return std::string(Vals[Rng() % 8]);
  };

  for (int Iter = 0; Iter != 6; ++Iter) {
    int64_t N = NDist(Rng);
    int B = BDist(Rng);
    bool Forward = SignDist(Rng) != 0;
    int D = Forward ? -(1 + int(Rng() % B)) : (1 + int(Rng() % B));
    std::ostringstream OS;
    OS << "let n = " << N << " in letrec* a = array (1,n) "
       << "([ i := " << Q() << " * i + " << Q() << " | i <- [1.." << B
       << "] ] ++ "
       << "[ i := " << Q() << " * i | i <- [n-" << (B - 1) << "..n] ] ++ "
       << "[ i := " << Q() << " * a!(i+(" << D << ")) + " << Q()
       << " | i <- [" << (B + 1) << "..n-" << B << "] ]) in a";
    checkConstruction(OS.str());
  }

  for (int Iter = 0; Iter != 4; ++Iter) {
    int64_t N = 8 + int64_t(Rng() % 4);
    std::ostringstream OS;
    OS << "let n = " << N << " in letrec* a = array ((1,1),(n,n)) "
       << "([ (1,j) := " << Q() << " * j | j <- [1..n] ] ++ "
       << "[ (i,1) := " << Q() << " * i | i <- [2..n] ] ++ "
       << "[ (i,j) := " << Q() << " * a!(i-1,j) + " << Q()
       << " * a!(i,j-1) + " << Q()
       << " | i <- [2..n], j <- [2..n] ]) in a";
    checkConstruction(OS.str());
  }
}

TEST(CEmitTest, AccumPlanWithPrefilledTarget) {
  // Accumulated arrays compile to plans whose untouched elements are the
  // initial value; the C-kernel contract is that the caller pre-fills the
  // buffer (exactly like CompiledArray::evaluate does for the executor).
  Compiler C;
  auto Compiled = C.compileAccum(
      "let n = 10 in letrec* h = accumArray (\\a v . a + 2.0 * v) 1.5 "
      "(1,n) [ 2*i := 1.0 * i | i <- [1..n/2] ] in h");
  ASSERT_TRUE(Compiled && Compiled->Thunkless)
      << (Compiled ? Compiled->FallbackReason : C.diags().str());

  Executor Exec(Compiled->Params);
  DoubleArray Ref;
  std::string Err;
  ASSERT_TRUE(Compiled->evaluate(Ref, Exec, Err)) << Err;

  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  ASSERT_TRUE(Emitted.OK) << Emitted.Error;
  KernelFn Fn = buildKernel(Emitted.Code, "kernel");
  ASSERT_NE(Fn, nullptr);
  DoubleArray Out(Compiled->Dims);
  std::fill_n(Out.data(), Out.size(), *Compiled->Plan.AccumInit);
  ASSERT_EQ(Fn(Out.data(), nullptr), HAC_OK);
  EXPECT_LE(DoubleArray::maxAbsDiff(Ref, Out), 0.0);
  EXPECT_DOUBLE_EQ(Out.at({1}), 1.5);       // untouched
  EXPECT_DOUBLE_EQ(Out.at({6}), 1.5 + 6.0); // pair (6, 3)
}

TEST(CEmitTest, UnsupportedFunctionFailsCleanly) {
  Compiler C;
  auto Compiled = C.compileArray(
      "let n = 4 in letrec* a = array (1,n) "
      "[ i := foldl (\\x y . x + y) 0 [1,2] | i <- [1..n] ] in a");
  ASSERT_TRUE(Compiled && Compiled->Thunkless);
  CEmitResult Emitted = emitC(Compiled->Plan, "kernel", Compiled->Params);
  EXPECT_FALSE(Emitted.OK);
  EXPECT_NE(Emitted.Error.find("foldl"), std::string::npos);
}
