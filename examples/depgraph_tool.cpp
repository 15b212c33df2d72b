//===- examples/depgraph_tool.cpp - The compiler explorer -----------------===//
//
// A small CLI that shows every stage of the pipeline for a program given
// on the command line (or one of the built-in paper examples): the clause
// tree, the labeled dependence graph (Section 5), the collision and
// coverage analyses (Sections 4, 7), the static schedule (Section 8), and
// the final loop program with its surviving runtime checks.
//
// Usage:
//   depgraph_tool                        # run all built-in paper examples
//   depgraph_tool 'letrec* a = ... in a' # explore your own program
//   depgraph_tool 'bigupd a [...]'       # updates, accumArrays and
//                                        # modules are recognized too
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <cstdio>
#include <string>

using namespace hac;

namespace {

void explore(const std::string &Source) {
  DiagnosticEngine ParseDiags;
  ProgramCompiler P(
      classifyProgram(Source, ParseDiags).value_or(ProgramKind::Array));
  std::printf("---------------------------------------------------------\n");
  std::printf("%s program:\n  %s\n\n", programKindName(P.kind()),
              Source.c_str());
  if (!P.compile(Source)) {
    std::printf("compile error:\n%s\n", P.diags().str().c_str());
    return;
  }
  if (P.Array || P.Update)
    std::printf("clause tree:\n%s\n",
                compNestToString(P.Array ? P.Array->Nest : P.Update->Nest)
                    .c_str());
  std::printf("%s\n", P.report().c_str());
  if (P.thunkless())
    for (const ProgramPart &Part : P.parts())
      std::printf("loop program:\n%s\n", Part.Plan->str().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2) {
    explore(Argv[1]);
    return 0;
  }

  // The paper's worked examples.
  explore( // Section 5, example 1: stride-3 clauses in one loop.
      "letrec* a = array (1,300) "
      "([* [3*i := 1.0] ++ "
      "    [3*i-1 := a!(3*(i-1)) + 1] ++ "
      "    [3*i-2 := a!(3*i) * 2] | i <- [2..100] *] "
      " ++ [ 1 := 2.0, 2 := 2.0, 3 := 1.0 ]) in a");

  explore( // Section 3: the wavefront recurrence.
      "let n = 8 in "
      "letrec* a = array ((1,1),(n,n)) "
      "([ (1,j) := 1 | j <- [1..n] ] ++ "
      " [ (i,1) := 1 | i <- [2..n] ] ++ "
      " [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) "
      "   | i <- [2..n], j <- [2..n] ]) in a");

  explore( // Section 5, example 2 shape: backward inner loop.
      "let n = 8 in "
      "letrec* a = array ((1,1),(n,n)) "
      "([ (i,n) := i | i <- [1..n] ] ++ "
      " [ (i,j) := a!(i,j+1) + 1 | i <- [1..n], j <- [1..n-1] ]) in a");

  explore( // A mixed (<)(>) cycle: thunks are unavoidable.
      "let n = 12 in "
      "letrec* a = array (1,n) "
      "([ 1 := 1, n := 1 ] ++ "
      " [ i := a!(i-1) + a!(i+1) | i <- [2..n-1] ]) in a");

  explore( // Section 9: LINPACK row swap (anti cycle, snapshot).
      "let n = 6 in "
      "bigupd m ([ (1,j) := m!(2,j) | j <- [1..n] ] ++ "
      "          [ (2,j) := m!(1,j) | j <- [1..n] ])");

  explore( // Section 9: Jacobi (anti cycles, rolling temporaries).
      "let n = 8 in "
      "bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + "
      "a!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ]");
  return 0;
}
