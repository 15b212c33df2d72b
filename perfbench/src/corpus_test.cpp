//===- perfbench/src/corpus_test.cpp - Tests of the program generator -----===//
//
// The compile_corpus generator's contract: one seed gives byte-identical
// sources and inputs, different seeds give different programs, every
// program parses, every shape appears, and each shape compiles the way
// its description says (thunkless, except the colliding accumArrays,
// which fall back to the interpreter). Exits non-zero on a violation.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Runner.h"

#include "frontend/Parser.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <set>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const std::string &What) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

bool sameInputs(const Program &A, const Program &B) {
  if (A.Inputs.size() != B.Inputs.size())
    return false;
  for (size_t I = 0; I != A.Inputs.size(); ++I)
    if (A.Inputs[I].Name != B.Inputs[I].Name ||
        !sameBits(A.Inputs[I].Data, B.Inputs[I].Data))
      return false;
  return true;
}

void checkSet(const std::vector<Program> &Ps, const std::string &Label) {
  for (const Program &P : Ps) {
    hac::DiagnosticEngine Diags;
    expect(hac::parseString(P.Source, Diags) != nullptr,
           Label + " " + P.Name + " does not parse:\n" + P.Source +
               Diags.str());
    CompiledProgram C = compileProgram(P, pinnedOptions());
    expect(C.ok(), Label + " " + P.Name + " does not compile:\n" + P.Source +
                       C.Diags);
    const bool WantThunkless = P.Shape != "collide";
    expect(C.thunkless() == WantThunkless,
           Label + " " + P.Name + (WantThunkless ? " is not" : " is") +
               " thunkless:\n" + P.Source);
  }
}

} // namespace

int main() {
  const unsigned PerShape = 16;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    const std::vector<Program> A = generateCorpus(Seed, PerShape);
    const std::vector<Program> B = generateCorpus(Seed, PerShape);
    const std::vector<Program> C = generateCorpus(Seed + 1000, PerShape);
    const std::string Tag = "seed " + std::to_string(Seed);
    expect(A.size() == PerShape * corpusShapes().size(),
           Tag + ": wrong corpus size");
    bool Same = A.size() == B.size(), Differs = false;
    for (size_t I = 0; Same && I != A.size(); ++I) {
      Same = A[I].Name == B[I].Name && A[I].Source == B[I].Source &&
             A[I].Target == B[I].Target && sameInputs(A[I], B[I]);
      Differs |= I < C.size() && A[I].Source != C[I].Source;
    }
    expect(Same, Tag + ": the same seed gave different programs");
    expect(Differs, Tag + ": another seed gave the same programs");

    std::map<std::string, unsigned> PerShapeSeen;
    std::set<std::string> Names;
    for (const Program &P : A) {
      ++PerShapeSeen[P.Shape];
      expect(Names.insert(P.Name).second, Tag + ": duplicate name " + P.Name);
    }
    for (const std::string &S : corpusShapes())
      expect(PerShapeSeen[S] == PerShape, Tag + ": shape " + S + " missing");
    checkSet(A, Tag);
  }

  // The paper kernels, at a small size: same seed, same bytes.
  const std::vector<Program> K1 = paperKernels(24, 7), K2 = paperKernels(24, 7);
  for (size_t I = 0; I != K1.size(); ++I)
    expect(K1[I].Source == K2[I].Source && sameInputs(K1[I], K2[I]),
           "kernel " + K1[I].Name + " is not deterministic");
  checkSet(K1, "kernel");

  if (Failures)
    std::fprintf(stderr, "%d failure(s)\n", Failures);
  else
    std::printf("corpus generator: all checks passed\n");
  return Failures ? 1 : 0;
}
