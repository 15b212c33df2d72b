//===- perfbench/src/Corpus.cpp - Benchmark programs ----------------------===//

#include "Corpus.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <utility>

using namespace perfbench;
using hac::DoubleArray;

const DoubleArray *Program::input(const std::string &N) const {
  for (const Input &I : Inputs)
    if (I.Name == N)
      return &I.Data;
  return nullptr;
}

const std::vector<std::string> &perfbench::corpusShapes() {
  static const std::vector<std::string> Shapes = {
      "stencil", "recurrence", "partition", "scatter",
      "collide", "bigupd",     "module"};
  return Shapes;
}

namespace {

/// A multiple of 1/8 in (0, 1): exactly representable, so the source
/// text and the value the interpreter and the compiled code see agree.
std::string eighth(Rng &R) {
  static const char *const Tab[] = {"0.125", "0.25",  "0.375", "0.5",
                                    "0.625", "0.75",  "0.875"};
  return Tab[R.range(0, 6)];
}

std::string offset(const char *Var, int64_t K) {
  std::string S = Var;
  if (K > 0)
    S += std::string("+") + std::to_string(K);
  else if (K < 0)
    S += std::string("-") + std::to_string(-K);
  return S;
}

DoubleArray randomGrid(Rng &R, const hac::DoubleArray::Dims &D) {
  DoubleArray A(D);
  for (size_t I = 0; I != A.size(); ++I)
    A[I] = R.unit();
  return A;
}

hac::DoubleArray::Dims square(int64_t N, unsigned Rank) {
  return hac::DoubleArray::Dims(Rank, {1, N});
}

/// The draw for one shape's programs. Choices that set a program's size
/// are balanced: over the shape's Count programs every value of a range
/// appears equally often (up to rounding), in a seeded order. The seed
/// still picks the order, every pairing of sizes and every other choice,
/// but the amount of work in a corpus barely moves between seeds.
class Draw {
public:
  Draw(Rng &R, unsigned Count) : R(R), Count(Count) {}

  Rng &R;
  unsigned I = 0; ///< the program being generated

  /// The I-th balanced value of parameter \p Key over [Lo, Hi].
  int64_t even(const std::string &Key, int64_t Lo, int64_t Hi) {
    std::vector<int64_t> &V = Lists[Key];
    if (V.empty()) {
      for (unsigned K = 0; K != Count; ++K)
        V.push_back(Lo + static_cast<int64_t>(K) * (Hi - Lo + 1) / Count);
      for (size_t K = V.size(); K > 1; --K)
        std::swap(V[K - 1], V[R.range(0, static_cast<int64_t>(K) - 1)]);
    }
    return V[I];
  }

private:
  unsigned Count;
  std::map<std::string, std::vector<int64_t>> Lists;
};

/// Stencils reading an input array: every element reads only `b`, so no
/// loop carries a dependence (DOALL).
Program stencil(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Array;
  const unsigned Rank = Dr.even("rank", 1, 2);
  const int64_t N = Dr.even("n", 8, 32);
  const int64_t H = Dr.even("halo", 1, 2);
  const int64_t Cells = Rank == 1 ? 2 * H + 1 : (2 * H + 1) * (2 * H + 1);
  const int64_t Taps = std::min<int64_t>(Dr.even("taps", 2, 5), Cells);
  std::set<std::pair<int64_t, int64_t>> Offs;
  while (static_cast<int64_t>(Offs.size()) != Taps)
    Offs.insert({R.range(0, 2 * H), Rank == 2 ? R.range(0, 2 * H) : 0});
  std::ostringstream V;
  bool First = true;
  for (const auto &[Di, Dj] : Offs) {
    V << (First ? "" : " + ") << eighth(R) << " * b!";
    if (Rank == 1)
      V << "(" << offset("i", Di) << ")";
    else
      V << "(" << offset("i", Di) << "," << offset("j", Dj) << ")";
    First = false;
  }
  if (R.range(0, 1))
    V << " + " << eighth(R);
  std::ostringstream S;
  S << "let n = " << N << " in\nletrec* a = array "
    << (Rank == 1 ? "(1,n)" : "((1,1),(n,n))") << "\n  [ "
    << (Rank == 1 ? "i" : "(i,j)") << " := " << V.str() << "\n  | "
    << (Rank == 1 ? "i <- [1..n]" : "i <- [1..n], j <- [1..n]")
    << " ]\nin a\n";
  P.Source = S.str();
  P.Inputs.push_back({"b", randomGrid(R, square(N + 2 * H, Rank))});
  return P;
}

/// Uniform-distance recurrences: the Section 3 wavefront and the
/// Section 5 forward and backward loops.
Program recurrence(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Array;
  std::ostringstream S;
  switch (Dr.even("variant", 0, 2)) {
  case 0: { // 2-D wavefront over lexicographically earlier neighbours
    const int64_t N = Dr.even("n2", 8, 24);
    static const std::pair<int64_t, int64_t> Cand[] = {
        {1, 0}, {0, 1}, {1, 1}, {2, 0}, {0, 2}, {2, 1}, {1, 2}};
    std::set<std::pair<int64_t, int64_t>> Reads;
    const int64_t Count = Dr.even("reads", 1, 3);
    while (static_cast<int64_t>(Reads.size()) != Count)
      Reads.insert(Cand[R.range(0, 6)]);
    int64_t W = 1;
    std::ostringstream V;
    bool First = true;
    for (const auto &[Di, Dj] : Reads) {
      W = std::max({W, Di, Dj});
      V << (First ? "" : " + ") << (R.range(0, 1) ? "0.125" : "0.25")
        << " * a!(" << offset("i", -Di) << "," << offset("j", -Dj) << ")";
      First = false;
    }
    V << " + " << eighth(R);
    S << "let n = " << N << " in\nletrec* a = array ((1,1),(n,n))\n"
      << "  ([ (i,j) := " << eighth(R) << " | i <- [1.." << W
      << "], j <- [1..n] ] ++\n"
      << "   [ (i,j) := " << eighth(R) << " | i <- [" << W + 1
      << "..n], j <- [1.." << W << "] ] ++\n"
      << "   [ (i,j) := " << V.str() << "\n     | i <- [" << W + 1
      << "..n], j <- [" << W + 1 << "..n] ])\nin a\n";
    break;
  }
  case 1: { // Section 5 example 2: the inner loop must run backward
    const int64_t N = Dr.even("n2", 8, 24);
    const int64_t D = Dr.even("distance", 1, 2);
    S << "let n = " << N << " in\nletrec* a = array ((1,1),(n,n))\n"
      << "  ([ (i,j) := " << eighth(R) << " * i | i <- [1..n], j <- [n-"
      << D - 1 << "..n] ] ++\n"
      << "   [ (i,j) := " << eighth(R) << " * a!(i,j+" << D << ") + "
      << eighth(R) << "\n     | i <- [1..n], j <- [1..n-" << D
      << "] ])\nin a\n";
    break;
  }
  default: { // 1-D recurrence at distance D, forward or backward
    const int64_t N = Dr.even("n1", 8, 32);
    const int64_t D = Dr.even("distance", 1, 3);
    const bool Forward = R.range(0, 1);
    S << "let n = " << N << " in\nletrec* a = array (1,n)\n";
    if (Forward)
      S << "  ([ i := " << eighth(R) << " * i | i <- [1.." << D
        << "] ] ++\n   [ i := " << eighth(R) << " * a!(i-" << D << ") + "
        << eighth(R) << " * a!(i-1) + " << eighth(R) << " | i <- [" << D + 1
        << "..n] ])\nin a\n";
    else
      S << "  ([ i := " << eighth(R) << " * i | i <- [n-" << D - 1
        << "..n] ] ++\n   [ i := " << eighth(R) << " * a!(i+" << D
        << ") + " << eighth(R) << " * a!(i+1) + " << eighth(R)
        << " | i <- [1..n-" << D << "] ])\nin a\n";
    break;
  }
  }
  P.Source = S.str();
  return P;
}

/// Stride-k partitions (Sections 2 and 4): k interleaved clause families
/// that together cover 1..k*m exactly once, written either as one nested
/// `[* ... *]` comprehension or as `++` of flat ones, with optional
/// always-true guards (which blind the coverage proof, so the runtime
/// checks stay) and `let`-bound values.
Program partition(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Array;
  const int64_t K = Dr.even("stride", 2, 4);
  const int64_t M = Dr.even("m", 8, 32);
  const bool Nested = Dr.even("nested", 0, 1);
  const bool Guard = Dr.even("guard", 0, 1);
  std::vector<std::string> Lhs, Val;
  for (int64_t T = 0; T != K; ++T) {
    Lhs.push_back(T == 0 ? std::to_string(K) + "*i"
                         : std::to_string(K) + "*i-" + std::to_string(T));
    std::ostringstream V;
    switch (T == 0 ? 0 : R.range(0, 2)) {
    case 0:
      V << eighth(R) << " * i + " << eighth(R);
      break;
    case 1: // reads the same instance's first family (Section 5, ex. 1)
      V << "a!(" << K << "*i) * " << eighth(R) << " + " << eighth(R);
      break;
    default:
      V << "(let x = " << eighth(R) << " * i in x * x + " << eighth(R)
        << ")";
      break;
    }
    Val.push_back(V.str());
  }
  const std::string Gens =
      std::string("i <- [1..m]") + (Guard ? ", i > 0" : "");
  std::ostringstream S;
  S << "let m = " << M << " in\nletrec* a = array (1," << K << "*m)\n  ";
  if (Nested) {
    S << "[* ";
    for (int64_t T = 0; T != K; ++T)
      S << (T ? " ++\n     " : "") << "[" << Lhs[T] << " := " << Val[T]
        << "]";
    S << "\n   | " << Gens << " *]";
  } else {
    S << "(";
    for (int64_t T = 0; T != K; ++T)
      S << (T ? " ++\n   " : "") << "[ " << Lhs[T] << " := " << Val[T]
        << " | " << Gens << " ]";
    S << ")";
  }
  S << "\nin a\n";
  P.Source = S.str();
  return P;
}

/// Coupled-subscript scatters (Section 7 with the Omega tier): the write
/// (A*i + B*j, C*i + D*j) is injective because A*D - B*C != 0, which
/// only the coupled system shows, so the accumArray compiles thunkless.
Program scatter(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Accum;
  // Every coefficient matrix with entries in 1..3 whose determinant is
  // nonzero, so the write is injective.
  std::vector<std::array<int64_t, 4>> Mats;
  for (int64_t A = 1; A <= 3; ++A)
    for (int64_t B = 1; B <= 3; ++B)
      for (int64_t C = 1; C <= 3; ++C)
        for (int64_t D = 1; D <= 3; ++D)
          if (A * D != B * C)
            Mats.push_back({A, B, C, D});
  const auto [A, B, C, D] =
      Mats[Dr.even("matrix", 0, static_cast<int64_t>(Mats.size()) - 1)];
  const int64_t N = Dr.even("n", 6, 12);
  auto Term = [](int64_t Coef, const char *Var) {
    return Coef == 1 ? std::string(Var) : std::to_string(Coef) + "*" + Var;
  };
  std::ostringstream S;
  S << "let n = " << N << " in\n"
    << "letrec* a = accumArray (\\acc v . acc + v) 0.0 ((1,1),(" << A + B
    << "*n," << C + D << "*n))\n  [ (" << Term(A, "i") << " + "
    << Term(B, "j") << ", " << Term(C, "i") << " + " << Term(D, "j")
    << ") := " << eighth(R) << " * i + " << eighth(R)
    << " * j | i <- [1..n], j <- [1..n] ]\nin a\n";
  P.Source = S.str();
  return P;
}

/// accumArrays whose pairs collide: the combining order is observable,
/// so the compiler falls back to the lazy interpreter.
Program collide(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Accum;
  std::ostringstream S;
  if (Dr.even("variant", 0, 1)) {
    const int64_t N = Dr.even("n1", 16, 32);
    const int64_t M = Dr.even("buckets", 3, 9);
    S << "let n = " << N << "; m = " << M << " in\n"
      << "letrec* h = accumArray (\\acc v . acc + v) 0.0 (1,m)\n"
      << "  [ i % m + 1 := " << eighth(R) << " * i | i <- [1..n] ]\nin h\n";
  } else {
    const int64_t N = Dr.even("n2", 8, 20);
    S << "let n = " << N << " in\n"
      << "letrec* h = accumArray (\\acc v . acc + v) " << eighth(R)
      << " (2,2*n)\n  [ i + j := " << eighth(R) << " * i + " << eighth(R)
      << " * j | i <- [1..n], j <- [1..n] ]\nin h\n";
  }
  P.Source = S.str();
  return P;
}

/// bigupd updates whose reads are overwritten later (anti-dependence
/// cycles), so node splitting saves old values (Section 9).
Program bigupd(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Update;
  std::ostringstream S;
  switch (Dr.even("variant", 0, 2)) {
  case 0: { // in-place Jacobi-like relaxation: a ring of old values
    const int64_t N = Dr.even("n2", 8, 24);
    static const char *const Back[] = {"a!(i-1,j)", "a!(i,j-1)"};
    static const char *const Fwd[] = {"a!(i+1,j)", "a!(i,j+1)"};
    std::vector<std::string> Reads = {Back[R.range(0, 1)], Fwd[R.range(0, 1)]};
    if (R.range(0, 1))
      Reads.push_back(R.range(0, 1) ? "a!(i,j)" : Fwd[R.range(0, 1)]);
    std::ostringstream V;
    for (size_t I = 0; I != Reads.size(); ++I)
      V << (I ? " + " : "") << eighth(R) << " * " << Reads[I];
    S << "let n = " << N << " in\nbigupd a [ (i,j) := " << V.str()
      << "\n          | i <- [2..n-1], j <- [2..n-1] ]\n";
    P.Target = "a";
    P.Inputs.push_back({"a", randomGrid(R, square(N, 2))});
    break;
  }
  case 1: { // LINPACK row swap: a one-row snapshot breaks the cycle
    const int64_t N = Dr.even("rows", 6, 16);
    const int64_t Row1 = R.range(1, N);
    int64_t Row2 = R.range(1, N - 1);
    if (Row2 >= Row1)
      ++Row2;
    S << "let n = " << N << " in\nbigupd m ([ (" << Row1
      << ",j) := m!(" << Row2 << ",j) | j <- [1..n] ] ++\n          [ ("
      << Row2 << ",j) := m!(" << Row1 << ",j) | j <- [1..n] ])\n";
    P.Target = "m";
    P.Inputs.push_back({"m", randomGrid(R, square(N, 2))});
    break;
  }
  default: { // 1-D three-point relaxation
    const int64_t N = Dr.even("n1", 8, 32);
    S << "let n = " << N << " in\nbigupd a [ i := " << eighth(R)
      << " * a!(i-1) + " << eighth(R) << " * a!(i+1) | i <- [2..n-1] ]\n";
    P.Target = "a";
    P.Inputs.push_back({"a", randomGrid(R, square(N, 1))});
    break;
  }
  }
  P.Source = S.str();
  return P;
}

/// letrec* modules of 2..6 arrays feeding each other: the inter-array
/// DAG, its topological schedule and the buffer planner.
Program module(Draw &Dr) {
  Rng &R = Dr.R;
  Program P;
  P.K = Kind::Module;
  const int64_t B = Dr.even("arrays", 2, 6);
  const bool Rank2 = Dr.even("rank2", 0, 1);
  const int64_t N = Rank2 ? Dr.even("n2", 6, 16) : Dr.even("n1", 8, 32);
  const std::string Bounds = Rank2 ? "((1,1),(n,n))" : "(1,n)";
  const std::string Ix = Rank2 ? "(i,j)" : "i";
  const std::string Gens = Rank2 ? "i <- [1..n], j <- [1..n]" : "i <- [1..n]";
  std::ostringstream S;
  S << "let n = " << N << " in\nletrec* ";
  for (int64_t K = 0; K != B; ++K) {
    const std::string X = std::string("x") + std::to_string(K);
    S << (K ? ";\n        " : "") << X << " = array " << Bounds << " ";
    if (K == 0) {
      S << "[ " << Ix << " := " << eighth(R) << " * i"
        << (Rank2 ? " + " + eighth(R) + " * j" : "") << " | " << Gens
        << " ]";
      continue;
    }
    const std::string Src = std::string("x") + std::to_string(R.range(0, K - 1));
    const std::string Other = std::string("x") + std::to_string(R.range(0, K - 1));
    if (R.range(0, 1)) { // pointwise combination of one or two producers
      S << "[ " << Ix << " := " << eighth(R) << " * " << Src << "!" << Ix
        << " + " << eighth(R) << " * " << Other << "!" << Ix << " | "
        << Gens << " ]";
    } else if (!Rank2) { // three-point smoothing with copied borders
      S << "([ i := " << Src << "!i | i <- [1..1] ] ++ [ i := " << Src
        << "!i | i <- [n..n] ] ++\n           [ i := 0.5 * " << Src
        << "!(i-1) + 0.5 * " << Src << "!(i+1) | i <- [2..n-1] ])";
    } else { // five-point smoothing with copied borders
      S << "([ (1,j) := " << Src << "!(1,j) | j <- [1..n] ] ++ [ (n,j) := "
        << Src << "!(n,j) | j <- [1..n] ] ++\n"
        << "           [ (i,1) := " << Src
        << "!(i,1) | i <- [2..n-1] ] ++ [ (i,n) := " << Src
        << "!(i,n) | i <- [2..n-1] ] ++\n"
        << "           [ (i,j) := (" << Src << "!(i-1,j) + " << Src
        << "!(i+1,j) + " << Src << "!(i,j-1) + " << Src
        << "!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ])";
    }
  }
  S << "\nin x" << B - 1 << "\n";
  P.Source = S.str();
  return P;
}

} // namespace

std::vector<Program> perfbench::generateCorpus(uint64_t Seed,
                                               unsigned PerShape) {
  Rng R(Seed * 0x2545f4914f6cdd1dull + 0x1234567);
  using Gen = Program (*)(Draw &);
  static const Gen Gens[] = {stencil, recurrence, partition, scatter,
                             collide, bigupd,     module};
  std::vector<Program> Out;
  const std::vector<std::string> &Shapes = corpusShapes();
  for (size_t S = 0; S != Shapes.size(); ++S) {
    Draw D(R, PerShape);
    for (D.I = 0; D.I != PerShape; ++D.I) {
      Program P = Gens[S](D);
      P.Shape = Shapes[S];
      P.Name = Shapes[S] + "." + std::to_string(D.I);
      Out.push_back(std::move(P));
    }
  }
  // Seeded interleaving, so consecutive ops exercise different shapes.
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.range(0, static_cast<int64_t>(I) - 1)]);
  return Out;
}

std::vector<Program> perfbench::paperKernels(int64_t N, uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  const std::string Head = "let n = " + std::to_string(N) + " in\n";
  const hac::DoubleArray::Dims Grid = square(N, 2);
  std::vector<Program> K(6);

  // Section 3's wavefront, averaged so values stay bounded at any n.
  const std::string Edge = std::string("1.") + std::to_string(R.range(0, 9));
  K[0].Name = "wavefront";
  K[0].K = Kind::Array;
  K[0].Source = Head + "letrec* a = array ((1,1),(n,n))\n"
                       "  ([ (1,j) := " + Edge + " | j <- [1..n] ] ++\n"
                       "   [ (i,1) := " + Edge + " | i <- [2..n] ] ++\n"
                       "   [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0\n"
                       "     | i <- [2..n], j <- [2..n] ])\nin a\n";

  // Borders copied from array In, then a four-neighbour average whose
  // reads of the centre's neighbours are given by Reads.
  auto Relax = [&](const std::string &Res, const std::string &In,
                   const std::string &Reads) {
    return Head + "letrec* " + Res + " = array ((1,1),(n,n))\n" +
           "  ([ (1,j) := " + In + "!(1,j) | j <- [1..n] ] ++\n" +
           "   [ (n,j) := " + In + "!(n,j) | j <- [1..n] ] ++\n" +
           "   [ (i,1) := " + In + "!(i,1) | i <- [2..n-1] ] ++\n" +
           "   [ (i,n) := " + In + "!(i,n) | i <- [2..n-1] ] ++\n" +
           "   [ (i,j) := (" + Reads +
           ") / 4.0\n     | i <- [2..n-1], j <- [2..n-1] ])\nin " + Res + "\n";
  };

  // Out-of-place Jacobi: every read is of the old grid b (DOALL).
  K[1].Name = "jacobi";
  K[1].K = Kind::Array;
  K[1].Source =
      Relax("a", "b", "b!(i-1,j) + b!(i+1,j) + b!(i,j-1) + b!(i,j+1)");
  K[1].Inputs.push_back({"b", randomGrid(R, Grid)});

  // SOR (Gauss-Seidel) whose result overwrites its input b.
  K[2].Name = "sor";
  K[2].K = Kind::InPlace;
  K[2].Target = "b";
  K[2].Source =
      Relax("a", "b", "a!(i-1,j) + a!(i,j-1) + b!(i+1,j) + b!(i,j+1)");
  K[2].Inputs.push_back({"b", randomGrid(R, Grid)});

  // In-place Jacobi: node splitting keeps a ring of old values.
  K[3].Name = "jacobi_inplace";
  K[3].K = Kind::Update;
  K[3].Target = "a";
  K[3].Source = Head + "bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + "
                       "a!(i,j-1) + a!(i,j+1)) / 4.0\n"
                       "          | i <- [2..n-1], j <- [2..n-1] ]\n";
  K[3].Inputs.push_back({"a", randomGrid(R, Grid)});
  // The interpreter's bigupd costs time quadratic in the array size
  // (0.1 s at n=64, 2.2 s at n=128), so the reference evaluates bigupd's
  // copying semantics written as a construction: borders keep the old
  // values, the interior reads only the old array.
  K[3].RefSource =
      Relax("r", "a", "a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + a!(i,j+1)");

  // Section 5, example 2: the inner loop runs backward.
  K[4].Name = "sec5_backward";
  K[4].K = Kind::Array;
  K[4].Source = Head + "letrec* a = array ((1,1),(n,n))\n"
                       "  ([ (i,n) := " + eighth(R) + " * i | i <- [1..n] ] ++\n"
                       "   [ (i,j) := a!(i,j+1) + " + eighth(R) +
                "\n     | i <- [1..n], j <- [1..n-1] ])\nin a\n";

  // Section 9's smooth-then-residual module (three arrays).
  K[5].Name = "smooth_residual";
  K[5].K = Kind::Module;
  K[5].Source =
      Head + "letrec* u = array ((1,1),(n,n)) [ (i,j) := " + eighth(R) +
      " * i + " + eighth(R) + " * j | i <- [1..n], j <- [1..n] ];\n"
      "        s = array ((1,1),(n,n))\n"
      "          ([ (1,j) := u!(1,j) | j <- [1..n] ] ++\n"
      "           [ (n,j) := u!(n,j) | j <- [1..n] ] ++\n"
      "           [ (i,1) := u!(i,1) | i <- [2..n-1] ] ++\n"
      "           [ (i,n) := u!(i,n) | i <- [2..n-1] ] ++\n"
      "           [ (i,j) := (u!(i-1,j) + u!(i+1,j) + u!(i,j-1) + "
      "u!(i,j+1)) / 4.0\n"
      "             | i <- [2..n-1], j <- [2..n-1] ]);\n"
      "        r = array ((1,1),(n,n)) [ (i,j) := u!(i,j) - s!(i,j) | "
      "i <- [1..n], j <- [1..n] ]\nin r\n";

  for (Program &P : K)
    P.Shape = P.Name;
  return K;
}
