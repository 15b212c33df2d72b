//===- tests/analysis_test.cpp - Subscript analysis tests -----------------===//
//
// Covers affine extraction/normalization, the GCD / Banerjee / exact
// dependence tests (including a randomized soundness property: the inexact
// tests are *necessary* conditions, so they may never contradict an exact
// witness), direction-vector refinement, the dependence graphs of the
// paper's Section 5 examples, and the collision/coverage analyses of
// Sections 7 and 4.
//
//===----------------------------------------------------------------------===//

#include "analysis/ArrayChecks.h"
#include "analysis/DepGraph.h"
#include "frontend/Parser.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace hac;

namespace {

ExprPtr parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  ExprPtr E = parseString(Source, Diags);
  EXPECT_TRUE(E != nullptr) << Diags.str();
  return E;
}

/// Parses `array bounds svlist`, builds the nest, and returns it.
struct NestFixture {
  ExprPtr Ast;
  CompNest Nest;

  NestFixture(const std::string &ArraySource, const ParamEnv &Params) {
    Ast = parseOk(ArraySource);
    const auto *M = cast<MakeArrayExpr>(Ast.get());
    DiagnosticEngine Diags;
    Nest = buildCompNest(M->svList(), Params, Diags);
    EXPECT_TRUE(Nest.Analyzable) << Nest.FallbackReason;
  }
};

bool hasEdge(const DepGraph &G, const std::string &S) {
  for (const DepEdge &E : G.Edges)
    if (E.str() == S)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Affine extraction
//===----------------------------------------------------------------------===//

TEST(AffineTest, SimpleExtraction) {
  NestFixture F("array (1,100) [ i := a!(2*i - 3) | i <- [1..100] ]", {});
  const ClauseNode *C = F.Nest.clause(0);
  auto Sub = extractAffine(C->subscript(0), C->loops(), {});
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Const, 0);
  EXPECT_EQ(Sub->coeff(C->loops()[0]), 1);

  // The read 2*i - 3: constant -3, coefficient 2.
  const auto *Val = cast<ArraySubExpr>(C->value());
  auto Read = extractAffine(Val->index(), C->loops(), {});
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->Const, -3);
  EXPECT_EQ(Read->coeff(C->loops()[0]), 2);
}

TEST(AffineTest, NormalizationOfSteppedLoop) {
  // i <- [5, 8 .. 20]: Lo=5 Step=3, so i = 5 + (i'-1)*3 = 2 + 3i'.
  // Subscript i becomes 2 + 3*i' with i' in [1..6].
  NestFixture F("array (1,100) [ i := 0 | i <- [5, 8 .. 20] ]", {});
  const ClauseNode *C = F.Nest.clause(0);
  auto Sub = extractAffine(C->subscript(0), C->loops(), {});
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Const, 2);
  EXPECT_EQ(Sub->coeff(C->loops()[0]), 3);
  EXPECT_EQ(C->loops()[0]->bounds().tripCount(), 6);
  EXPECT_EQ(Sub->minValue(), 5);
  EXPECT_EQ(Sub->maxValue(), 20);
}

TEST(AffineTest, BackwardLoopNormalization) {
  // i <- [10, 9 .. 1]: Lo=10 Step=-1; i = 10 + (i'-1)*(-1) = 11 - i'.
  NestFixture F("array (1,10) [ i := 0 | i <- [10, 9 .. 1] ]", {});
  const ClauseNode *C = F.Nest.clause(0);
  auto Sub = extractAffine(C->subscript(0), C->loops(), {});
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Const, 11);
  EXPECT_EQ(Sub->coeff(C->loops()[0]), -1);
  EXPECT_EQ(Sub->minValue(), 1);
  EXPECT_EQ(Sub->maxValue(), 10);
}

TEST(AffineTest, ParametersFoldIntoConstant) {
  NestFixture F("array (1,100) [ i + n := 0 | i <- [1..10] ]", {{"n", 7}});
  const ClauseNode *C = F.Nest.clause(0);
  auto Sub = extractAffine(C->subscript(0), C->loops(), {{"n", 7}});
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Const, 7);
  EXPECT_EQ(Sub->coeff(C->loops()[0]), 1);
}

TEST(AffineTest, NonLinearRejected) {
  NestFixture F("array (1,100) [ i := a!(i*i) + a!(i/2) | i <- [1..10] ]",
                {});
  const ClauseNode *C = F.Nest.clause(0);
  const auto *Add = cast<BinaryExpr>(C->value());
  const auto *R1 = cast<ArraySubExpr>(Add->lhs());
  const auto *R2 = cast<ArraySubExpr>(Add->rhs());
  EXPECT_FALSE(extractAffine(R1->index(), C->loops(), {}).has_value());
  EXPECT_FALSE(extractAffine(R2->index(), C->loops(), {}).has_value());
}

TEST(AffineTest, ConstantTimesIndexBothSides) {
  NestFixture F("array (1,300) [ 3*(i-1) := 0 | i <- [1..100] ]", {});
  const ClauseNode *C = F.Nest.clause(0);
  auto Sub = extractAffine(C->subscript(0), C->loops(), {});
  ASSERT_TRUE(Sub.has_value());
  EXPECT_EQ(Sub->Const, -3);
  EXPECT_EQ(Sub->coeff(C->loops()[0]), 3);
}

//===----------------------------------------------------------------------===//
// Dependence tests on hand-built problems
//===----------------------------------------------------------------------===//

namespace {

/// Hand-built single-loop problem: f = A*x + C1, g = B*y + C2, loop [1..M].
struct OneLoopProblem {
  LoopNode Loop;
  DepProblem P;

  OneLoopProblem(int64_t A, int64_t C1, int64_t B, int64_t C2, int64_t M)
      : Loop(0, "i", LoopBounds{1, M, 1}, 0) {
    AffineForm F, G;
    F.Const = C1;
    F.Coeffs[&Loop] = A;
    G.Const = C2;
    G.Coeffs[&Loop] = B;
    P.Dims.emplace_back(F, G);
    P.SharedLoops.push_back(&Loop);
  }
};

} // namespace

TEST(DependenceTest, GcdProvesIndependence) {
  // f = 2x, g = 2y + 1: parity differs, gcd(2,2)=2 does not divide 1.
  OneLoopProblem Q(2, 0, 2, 1, 100);
  DirVector Any{Dir::Any};
  EXPECT_EQ(gcdTest(Q.P, Any), TestResult::Independent);
  EXPECT_EQ(exactTest(Q.P, Any), TestResult::Independent);
}

TEST(DependenceTest, GcdMissesWhatBanerjeeCatches) {
  // f = x, g = y + 200 over [1..100]: gcd(1,1)=1 divides 200 (possible),
  // but ranges [1..100] and [201..300] cannot meet (Banerjee).
  OneLoopProblem Q(1, 0, 1, 200, 100);
  DirVector Any{Dir::Any};
  EXPECT_EQ(gcdTest(Q.P, Any), TestResult::Possible);
  EXPECT_EQ(banerjeeTest(Q.P, Any), TestResult::Independent);
  EXPECT_EQ(exactTest(Q.P, Any), TestResult::Independent);
}

TEST(DependenceTest, BanerjeeMissesWhatGcdCatches) {
  // f = 2x, g = 2y + 1 over a large range: value ranges overlap but
  // parity rules dependence out — Banerjee passes, GCD refutes.
  OneLoopProblem Q(2, 0, 2, 1, 100);
  DirVector Any{Dir::Any};
  EXPECT_EQ(banerjeeTest(Q.P, Any), TestResult::Possible);
  EXPECT_EQ(gcdTest(Q.P, Any), TestResult::Independent);
}

TEST(DependenceTest, ExactFindsWitness) {
  // f = x, g = y - 1: x = y - 1 has many solutions; with constraint '<'
  // (x < y) they survive, with '>' they vanish.
  OneLoopProblem Q(1, 0, 1, -1, 50);
  EXPECT_EQ(exactTest(Q.P, {Dir::Lt}), TestResult::Definite);
  EXPECT_EQ(exactTest(Q.P, {Dir::Gt}), TestResult::Independent);
  EXPECT_EQ(exactTest(Q.P, {Dir::Eq}), TestResult::Independent);
}

TEST(DependenceTest, DirectionConstraintsInBanerjee) {
  // Same problem: under '>' or '=', Banerjee must prove independence.
  OneLoopProblem Q(1, 0, 1, -1, 50);
  EXPECT_EQ(banerjeeTest(Q.P, {Dir::Lt}), TestResult::Possible);
  EXPECT_EQ(banerjeeTest(Q.P, {Dir::Gt}), TestResult::Independent);
  EXPECT_EQ(banerjeeTest(Q.P, {Dir::Eq}), TestResult::Independent);
}

TEST(DependenceTest, GcdEqConstraintUsesDifference) {
  // f = 3x, g = 3y + 3 with '=': term (a-b)x = 0, needs 0 | 3 -> indep
  // ... wait, gcd(∅∪{a-b=0}) = 0 and D = 3 != 0 -> independent.
  OneLoopProblem Q(3, 0, 3, 3, 100);
  EXPECT_EQ(gcdTest(Q.P, {Dir::Eq}), TestResult::Independent);
  EXPECT_EQ(gcdTest(Q.P, {Dir::Any}), TestResult::Possible);
}

TEST(DependenceTest, EmptyLoopMeansIndependent) {
  OneLoopProblem Q(1, 0, 1, 0, 0); // M = 0: no instances
  DirVector Any{Dir::Any};
  EXPECT_EQ(gcdTest(Q.P, Any), TestResult::Independent);
  EXPECT_EQ(banerjeeTest(Q.P, Any), TestResult::Independent);
  EXPECT_EQ(exactTest(Q.P, Any), TestResult::Independent);
}

TEST(DependenceTest, SingleIterationLoopDirections) {
  // M = 1: '<' and '>' regions are empty, '=' may hold.
  OneLoopProblem Q(1, 0, 1, 0, 1);
  EXPECT_EQ(banerjeeTest(Q.P, {Dir::Lt}), TestResult::Independent);
  EXPECT_EQ(banerjeeTest(Q.P, {Dir::Gt}), TestResult::Independent);
  EXPECT_EQ(exactTest(Q.P, {Dir::Eq}), TestResult::Definite);
}

TEST(DependenceTest, RefineDirectionsFindsExactlyLt) {
  // f = x (write), g = y - 1 (read of a!(i-1)): only '<' survives.
  OneLoopProblem Q(1, 0, 1, -1, 50);
  auto Dirs = refineDirections(Q.P);
  ASSERT_EQ(Dirs.size(), 1u);
  EXPECT_EQ(Dirs[0], (DirVector{Dir::Lt}));
}

TEST(DependenceTest, RefineDirectionsEmptyWhenIndependent) {
  OneLoopProblem Q(2, 0, 2, 1, 100);
  EXPECT_TRUE(refineDirections(Q.P).empty());
}

TEST(DependenceTest, BudgetExhaustionReportsPossible) {
  // Two jointly unsatisfiable dimensions (2x - y = 0 and 2x - y = 1) that
  // each look feasible, forcing real enumeration; a tiny budget must give
  // up with Possible rather than answer wrongly.
  LoopNode L(0, "i", LoopBounds{1, 100, 1}, 0);
  AffineForm F;
  F.Coeffs[&L] = 2;
  AffineForm G0, G1;
  G0.Coeffs[&L] = 1;
  G1.Coeffs[&L] = 1;
  G1.Const = 1;
  DepProblem P;
  P.SharedLoops.push_back(&L);
  P.Dims.emplace_back(F, G0);
  P.Dims.emplace_back(F, G1);
  ExactStats Stats;
  TestResult R = exactTest(P, {Dir::Any}, /*Budget=*/3, &Stats);
  EXPECT_EQ(R, TestResult::Possible);
  EXPECT_TRUE(Stats.BudgetExhausted);
  // With an adequate budget the search proves independence.
  EXPECT_EQ(exactTest(P, {Dir::Any}, 1'000'000), TestResult::Independent);
}

TEST(DependenceTest, UnsharedLoopsLemma) {
  // Source surrounded by loop x in [1..10] with f = x; sink is loop-free
  // with g = 20. Range of f is [1..10]: cannot reach 20.
  LoopNode L(0, "i", LoopBounds{1, 10, 1}, 0);
  AffineForm F, G;
  F.Coeffs[&L] = 1;
  G.Const = 20;
  DepProblem P;
  P.Dims.emplace_back(F, G);
  P.SrcOnlyLoops.push_back(&L);
  EXPECT_EQ(banerjeeTest(P, {}), TestResult::Independent);

  G.Const = 7; // reachable
  DepProblem P2;
  P2.Dims.emplace_back(F, G);
  P2.SrcOnlyLoops.push_back(&L);
  EXPECT_EQ(banerjeeTest(P2, {}), TestResult::Possible);
  EXPECT_EQ(exactTest(P2, {}), TestResult::Definite);
}

TEST(DependenceTest, MultiDimensionalAnd) {
  // 2-D: dim0 f=x g=y (dependence on '='), dim1 f=x g=y+5, M=3: dim1 has
  // no solution with x=y, so overall independent on every direction.
  LoopNode L(0, "i", LoopBounds{1, 3, 1}, 0);
  AffineForm FX;
  FX.Coeffs[&L] = 1;
  AffineForm G1 = FX;
  AffineForm G2 = FX;
  G2.Const = 5;
  DepProblem P;
  P.SharedLoops.push_back(&L);
  P.Dims.emplace_back(FX, G1);
  P.Dims.emplace_back(FX, G2);
  EXPECT_TRUE(refineDirections(P).empty());
  EXPECT_EQ(exactTest(P, {Dir::Any}), TestResult::Independent);
}

//===----------------------------------------------------------------------===//
// Soundness property: GCD and Banerjee are necessary conditions
//===----------------------------------------------------------------------===//

namespace {

struct RandomCase {
  unsigned Seed;
};

class SoundnessTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(SoundnessTest, InexactTestsNeverContradictExactWitness) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int64_t> Coef(-3, 3);
  std::uniform_int_distribution<int64_t> Const(-12, 12);
  std::uniform_int_distribution<int64_t> Trip(1, 7);
  std::uniform_int_distribution<int> NumLoops(1, 2);
  std::uniform_int_distribution<int> NumDims(1, 2);

  for (int Iter = 0; Iter != 200; ++Iter) {
    int NL = NumLoops(Rng);
    std::vector<std::unique_ptr<LoopNode>> Loops;
    for (int K = 0; K != NL; ++K)
      Loops.push_back(std::make_unique<LoopNode>(
          K, std::string("i").append(std::to_string(K)),
          LoopBounds{1, Trip(Rng), 1}, K));

    DepProblem P;
    for (auto &L : Loops)
      P.SharedLoops.push_back(L.get());
    int ND = NumDims(Rng);
    for (int D = 0; D != ND; ++D) {
      AffineForm F, G;
      F.Const = Const(Rng);
      G.Const = Const(Rng);
      for (auto &L : Loops) {
        F.Coeffs[L.get()] = Coef(Rng);
        G.Coeffs[L.get()] = Coef(Rng);
      }
      P.Dims.emplace_back(F, G);
    }

    // Enumerate every fully refined direction vector.
    std::vector<DirVector> All;
    DirVector Cur(NL, Dir::Any);
    std::function<void(int)> Enum = [&](int Pos) {
      if (Pos == NL) {
        All.push_back(Cur);
        return;
      }
      for (Dir D : {Dir::Lt, Dir::Eq, Dir::Gt}) {
        Cur[Pos] = D;
        Enum(Pos + 1);
      }
    };
    Enum(0);

    for (const DirVector &Dirs : All) {
      TestResult Exact = exactTest(P, Dirs, 10'000'000);
      ASSERT_NE(Exact, TestResult::Possible) << "budget too small";
      if (Exact == TestResult::Definite) {
        // Necessity: neither inexact test may claim independence.
        EXPECT_NE(gcdTest(P, Dirs), TestResult::Independent)
            << "GCD unsound at iter " << Iter << " dirs "
            << dirVectorToString(Dirs);
        EXPECT_NE(banerjeeTest(P, Dirs), TestResult::Independent)
            << "Banerjee unsound at iter " << Iter << " dirs "
            << dirVectorToString(Dirs);
      }
    }

    // refineDirections must return a superset of the exactly dependent
    // leaves.
    auto Refined = refineDirections(P);
    for (const DirVector &Dirs : All) {
      if (exactTest(P, Dirs, 10'000'000) == TestResult::Definite) {
        EXPECT_TRUE(std::find(Refined.begin(), Refined.end(), Dirs) !=
                    Refined.end())
            << "refinement dropped a real dependence "
            << dirVectorToString(Dirs);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

//===----------------------------------------------------------------------===//
// Dependence graphs for the paper's examples
//===----------------------------------------------------------------------===//

TEST(DepGraphTest, PaperSection5Example1) {
  // let a = array (1,300)
  //   [* [3*i := ...] ++ [3*i-1 := ... a!(3*(i-1)) ...] ++
  //      [3*i-2 := ... a!(3*i) ...] | i <- [1..100] *]
  // Expected: 1 -> 2 (<) and 1 -> 3 (=), i.e. with 0-based clause ids
  // 0 -> 1 (<) and 0 -> 2 (=).
  NestFixture F("array (1,300) "
                "[* [3*i := 1] ++ [3*i-1 := a!(3*(i-1)) + 1] ++ "
                "[3*i-2 := a!(3*i) * 2] | i <- [1..100] *]",
                {});
  DepGraph G = buildDepGraph(F.Nest, "a", {}, DepGraphMode::Monolithic);
  auto Flow = G.edgesOfKind(DepKind::Flow);
  ASSERT_EQ(Flow.size(), 2u) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 1 (<) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 2 (=) flow")) << G.str();
  // And no collisions among the three stride-3 phases.
  EXPECT_TRUE(G.edgesOfKind(DepKind::Output).empty()) << G.str();
}

TEST(DepGraphTest, WavefrontSelfEdges) {
  // Section 3's wavefront: interior clause (id 2) has self flow edges
  // (<,=), (=,<), (<,<); border clauses feed it with loop-free () edges.
  NestFixture F(
      "array ((1,1),(n,n)) "
      "([ (1,j) := 1 | j <- [1..n] ] ++ "
      " [ (i,1) := 1 | i <- [2..n] ] ++ "
      " [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) "
      "   | i <- [2..n], j <- [2..n] ])",
      {{"n", 10}});
  DepGraph G = buildDepGraph(F.Nest, "a", {{"n", 10}},
                             DepGraphMode::Monolithic);
  EXPECT_TRUE(hasEdge(G, "2 -> 2 (<,=) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "2 -> 2 (=,<) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "2 -> 2 (<,<) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 2 () flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "1 -> 2 () flow")) << G.str();
  // No spurious self edges like (>,...) and no collisions.
  EXPECT_FALSE(hasEdge(G, "2 -> 2 (>,=) flow")) << G.str();
  EXPECT_TRUE(G.edgesOfKind(DepKind::Output).empty()) << G.str();
}

TEST(DepGraphTest, BackwardInnerLoopDependence) {
  // Clause reads a!(i, j+1): under normalized loops the self edge is
  // (=,>) — the source is computed at a *later* inner index, so the inner
  // loop must run backward for thunkless evaluation (Section 5 ex. 2).
  NestFixture F("array ((1,1),(n,n)) "
                "([ (i,n) := 1 | i <- [1..n] ] ++ "
                " [ (i,j) := a!(i,j+1) + 1 | i <- [1..n], j <- [1..n-1] ])",
                {{"n", 10}});
  DepGraph G = buildDepGraph(F.Nest, "a", {{"n", 10}},
                             DepGraphMode::Monolithic);
  EXPECT_TRUE(hasEdge(G, "1 -> 1 (=,>) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 1 () flow")) << G.str();
}

TEST(DepGraphTest, MixedCycleUnschedulable) {
  // a!i := f(a!(i-1), a!(i+1)): self edges (<) and (>) — the paper's
  // "cycle containing both (<) and (>) edges" case.
  NestFixture F("array (1,n) "
                "([ 1 := 1, n := 1 ] ++ "
                " [ i := a!(i-1) + a!(i+1) | i <- [2..n-1] ])",
                {{"n", 20}});
  DepGraph G = buildDepGraph(F.Nest, "a", {{"n", 20}},
                             DepGraphMode::Monolithic);
  EXPECT_TRUE(hasEdge(G, "2 -> 2 (<) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "2 -> 2 (>) flow")) << G.str();
}

TEST(DepGraphTest, JacobiAntiDependences) {
  // bigupd a [ (i,j) := (a!(i-1,j)+a!(i+1,j)+a!(i,j-1)+a!(i,j+1))/4 ...]:
  // four self anti edges (Section 9's Jacobi example), in both directions
  // of both loops.
  NestFixture F("array ((1,1),(n,n)) "
                "[ (i,j) := (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + "
                "a!(i,j+1)) / 4 | i <- [2..n-1], j <- [2..n-1] ]",
                {{"n", 12}});
  DepGraph G =
      buildDepGraph(F.Nest, "a", {{"n", 12}}, DepGraphMode::Update);
  EXPECT_TRUE(hasEdge(G, "0 -> 0 (<,=) anti")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 0 (>,=) anti")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 0 (=,<) anti")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 0 (=,>) anti")) << G.str();
  // Same-instance read/write of the same element is naturally ordered.
  EXPECT_FALSE(hasEdge(G, "0 -> 0 (=,=) anti")) << G.str();
}

TEST(DepGraphTest, SorWavefrontAgreeingDirections) {
  // Gauss-Seidel / SOR (Livermore 23 shape): reads of the *new* array at
  // (i-1,j) and (i,j-1) give flow self edges delta(<,=) and delta(=,<);
  // reads of the *old* array b at (i+1,j), (i,j+1) give anti edges
  // delta-bar(<,=) and delta-bar(=,<) when the result overwrites b. All
  // four agree on forward loop directions.
  const char *Source =
      "array ((1,1),(n,n)) "
      "[ (i,j) := a!(i-1,j) + a!(i,j-1) + b!(i+1,j) + b!(i,j+1) "
      "| i <- [2..n-1], j <- [2..n-1] ]";
  NestFixture F(Source, {{"n", 12}});
  DepGraph Flow = buildDepGraph(F.Nest, "a", {{"n", 12}},
                                DepGraphMode::Monolithic);
  EXPECT_TRUE(hasEdge(Flow, "0 -> 0 (<,=) flow")) << Flow.str();
  EXPECT_TRUE(hasEdge(Flow, "0 -> 0 (=,<) flow")) << Flow.str();
  EXPECT_EQ(Flow.edgesOfKind(DepKind::Flow).size(), 2u) << Flow.str();

  DepGraph Anti =
      buildDepGraph(F.Nest, "b", {{"n", 12}}, DepGraphMode::Update);
  EXPECT_TRUE(hasEdge(Anti, "0 -> 0 (<,=) anti")) << Anti.str();
  EXPECT_TRUE(hasEdge(Anti, "0 -> 0 (=,<) anti")) << Anti.str();
  EXPECT_EQ(Anti.edgesOfKind(DepKind::Anti).size(), 2u) << Anti.str();
}

TEST(DepGraphTest, RowSwapAntiCycle) {
  // LINPACK row swap (Section 9): two clauses exchanging rows i and k are
  // locked in an antidependence cycle with (=) labels.
  NestFixture F("array ((1,1),(2,n)) "
                "([ (1,j) := a!(2,j) | j <- [1..n] ] ++ "
                " [ (2,j) := a!(1,j) | j <- [1..n] ])",
                {{"n", 16}});
  DepGraph G =
      buildDepGraph(F.Nest, "a", {{"n", 16}}, DepGraphMode::Update);
  EXPECT_TRUE(hasEdge(G, "0 -> 1 () anti")) << G.str();
  EXPECT_TRUE(hasEdge(G, "1 -> 0 () anti")) << G.str();
}

TEST(DepGraphTest, UnknownRefPoisons) {
  NestFixture F("array (1,n) [ i := sum [ a!k | k <- [1..i] ] + f a "
                "| i <- [1..n] ]",
                {{"n", 8}});
  DepGraph G =
      buildDepGraph(F.Nest, "a", {{"n", 8}}, DepGraphMode::Monolithic);
  EXPECT_TRUE(G.HasUnknownRef);
}

TEST(DepGraphTest, NonAffineReadMakesAnyEdge) {
  NestFixture F("array (1,n) "
                "([ 1 := 1 ] ++ [ i := a!(i*i % n + 1) | i <- [2..n] ])",
                {{"n", 9}});
  DepGraph G =
      buildDepGraph(F.Nest, "a", {{"n", 9}}, DepGraphMode::Monolithic);
  EXPECT_GT(G.NonAffinePairs, 0u);
  // The non-affine read produces conservative all-'*' edges from every
  // writer.
  EXPECT_TRUE(hasEdge(G, "1 -> 1 (*) flow")) << G.str();
  EXPECT_TRUE(hasEdge(G, "0 -> 1 () flow")) << G.str();
}

TEST(DepGraphTest, NoSelfDependenceWithoutReads) {
  NestFixture F("array (1,n) [ i := i * 2 | i <- [1..n] ]", {{"n", 50}});
  DepGraph G =
      buildDepGraph(F.Nest, "a", {{"n", 50}}, DepGraphMode::Monolithic);
  EXPECT_TRUE(G.Edges.empty()) << G.str();
}

//===----------------------------------------------------------------------===//
// Collision analysis (Section 7)
//===----------------------------------------------------------------------===//

TEST(CollisionTest, ProvenNoCollisions) {
  NestFixture F("array (1,300) "
                "[* [3*i := 1] ++ [3*i-1 := 2] ++ [3*i-2 := 3] "
                "| i <- [1..100] *]",
                {});
  auto R = analyzeCollisions(F.Nest, {});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Proven) << R.witnessStr();
}

TEST(CollisionTest, DefiniteCollisionDetected) {
  // Clause writes i and i+1 over overlapping ranges: element 2..n collide.
  NestFixture F("array (1,n) ([ i := 1 | i <- [1..n-1] ] ++ "
                "             [ i+1 := 2 | i <- [1..n-1] ])",
                {{"n", 10}});
  auto R = analyzeCollisions(F.Nest, {});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Disproven);
  EXPECT_TRUE(R.Witness.has_value());
}

TEST(CollisionTest, SelfCollisionAcrossInstances) {
  // i % ... no — use stride-0 shape: clause writes (i/1...) constant 5.
  NestFixture F("array (1,10) [ 5 := i | i <- [1..3] ]", {});
  auto R = analyzeCollisions(F.Nest, {});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Disproven);
}

TEST(CollisionTest, GuardedCollisionIsUnknown) {
  // The guard may filter instances: a potential collision is not definite.
  NestFixture F("array (1,10) [ 5 := i | i <- [1..3], i % 2 == 0 ]", {});
  auto R = analyzeCollisions(F.Nest, {});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Unknown);
}

TEST(CollisionTest, NonAffineIsUnknown) {
  NestFixture F("array (1,10) [ i*i % 10 + 1 := 1 | i <- [1..3] ]", {});
  auto R = analyzeCollisions(F.Nest, {});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Unknown);
  EXPECT_GT(R.UnresolvedPairs, 0u);
}

TEST(CollisionTest, WavefrontProven) {
  NestFixture F(
      "array ((1,1),(n,n)) "
      "([ (1,j) := 1 | j <- [1..n] ] ++ "
      " [ (i,1) := 1 | i <- [2..n] ] ++ "
      " [ (i,j) := 0 | i <- [2..n], j <- [2..n] ])",
      {{"n", 10}});
  auto R = analyzeCollisions(F.Nest, {{"n", 10}});
  EXPECT_EQ(R.NoCollisions, CheckOutcome::Proven) << R.witnessStr();
}

//===----------------------------------------------------------------------===//
// Coverage / empties analysis (Section 4)
//===----------------------------------------------------------------------===//

TEST(CoverageTest, WavefrontNoEmpties) {
  ParamEnv Params{{"n", 10}};
  NestFixture F(
      "array ((1,1),(n,n)) "
      "([ (1,j) := 1 | j <- [1..n] ] ++ "
      " [ (i,1) := 1 | i <- [2..n] ] ++ "
      " [ (i,j) := 0 | i <- [2..n], j <- [2..n] ])",
      Params);
  auto Col = analyzeCollisions(F.Nest, Params);
  auto Cov = analyzeCoverage(F.Nest, {{1, 10}, {1, 10}}, Params, Col);
  EXPECT_EQ(Cov.InBounds, CheckOutcome::Proven) << Cov.detail();
  EXPECT_EQ(Cov.TotalInstances, 100);
  EXPECT_EQ(Cov.ArraySize, 100);
  EXPECT_EQ(Cov.NoEmpties, CheckOutcome::Proven) << Cov.detail();
}

TEST(CoverageTest, MissingElementDisproven) {
  ParamEnv Params{{"n", 10}};
  NestFixture F("array (1,n) [ i := 1 | i <- [2..n] ]", Params);
  auto Col = analyzeCollisions(F.Nest, Params);
  auto Cov = analyzeCoverage(F.Nest, {{1, 10}}, Params, Col);
  EXPECT_EQ(Cov.TotalInstances, 9);
  EXPECT_EQ(Cov.NoEmpties, CheckOutcome::Disproven) << Cov.detail();
}

TEST(CoverageTest, OutOfBoundsDisproven) {
  ParamEnv Params{{"n", 10}};
  NestFixture F("array (1,n) [ i + 5 := 1 | i <- [1..n] ]", Params);
  auto Col = analyzeCollisions(F.Nest, Params);
  auto Cov = analyzeCoverage(F.Nest, {{1, 10}}, Params, Col);
  EXPECT_EQ(Cov.InBounds, CheckOutcome::Unknown) << Cov.detail();
  EXPECT_NE(Cov.NoEmpties, CheckOutcome::Proven);
}

TEST(CoverageTest, EntirelyOutOfBoundsIsError) {
  ParamEnv Params{{"n", 10}};
  NestFixture F("array (1,n) ([ i := 1 | i <- [1..n] ] ++ [ n + 3 := 9 ])",
                Params);
  auto Col = analyzeCollisions(F.Nest, Params);
  auto Cov = analyzeCoverage(F.Nest, {{1, 10}}, Params, Col);
  EXPECT_EQ(Cov.InBounds, CheckOutcome::Disproven) << Cov.detail();
  EXPECT_EQ(Cov.NoEmpties, CheckOutcome::Disproven);
}

TEST(CoverageTest, GuardsMakeCoverageUnknown) {
  ParamEnv Params{{"n", 10}};
  NestFixture F("array (1,n) [ i := 1 | i <- [1..n], i > 0 ]", Params);
  auto Col = analyzeCollisions(F.Nest, Params);
  auto Cov = analyzeCoverage(F.Nest, {{1, 10}}, Params, Col);
  EXPECT_EQ(Cov.TotalInstances, -1);
  EXPECT_EQ(Cov.NoEmpties, CheckOutcome::Unknown);
}

TEST(CoverageTest, SteppedPartition) {
  // Three stride-3 clauses tile [1..300] exactly.
  NestFixture F("array (1,300) "
                "[* [3*i := 1] ++ [3*i-1 := 2] ++ [3*i-2 := 3] "
                "| i <- [1..100] *]",
                {});
  auto Col = analyzeCollisions(F.Nest, {});
  auto Cov = analyzeCoverage(F.Nest, {{1, 300}}, {}, Col);
  EXPECT_EQ(Cov.NoEmpties, CheckOutcome::Proven) << Cov.detail();
}
