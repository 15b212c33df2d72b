//===- perfbench/src/Corpus.h - Benchmark programs --------------*- C++ -*-===//
//
// The programs the benchmark feeds to the library: a seeded corpus of
// small programs over the paper's shapes (compile_corpus), and the six
// paper kernels at grid size n (stencil_eval, native_sweep). Sources and
// input grids depend only on the seed, so a seed names one exact input.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include "runtime/DoubleArray.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable generator, so one seed gives the same
/// bytes with every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  /// Uniform double in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Which Compiler entry point a program goes through (the choice hacc
/// makes from its -u / -accum flags and module auto-detection).
enum class Kind {
  Array,   ///< Compiler::compileArray
  InPlace, ///< Compiler::compileArrayInPlace, result overwrites Target
  Update,  ///< Compiler::compileUpdate, bigupd of Target
  Accum,   ///< Compiler::compileAccum
  Module,  ///< ModuleCompiler::compileModule
};

struct Input {
  std::string Name;
  hac::DoubleArray Data;
};

struct Program {
  std::string Name;  ///< unique within its workload, e.g. "stencil.3"
  std::string Shape; ///< one of corpusShapes(), or the kernel name
  Kind K = Kind::Array;
  std::string Source;
  /// What the reference interpreter evaluates when it is not Source: an
  /// equivalent program whose lazy evaluation is fast at the kernel's size.
  std::string RefSource;
  /// InPlace: the input array the result overwrites; Update: the bigupd
  /// base. Its contents come from Inputs.
  std::string Target;
  std::vector<Input> Inputs;

  const hac::DoubleArray *input(const std::string &N) const;
};

/// The seven shapes of compile_corpus, in generation order.
const std::vector<std::string> &corpusShapes();

/// compile_corpus: PerShape programs of every shape at small n (8..32),
/// in a seeded order.
std::vector<Program> generateCorpus(uint64_t Seed, unsigned PerShape);

/// stencil_eval / native_sweep: the six paper kernels at N x N. The seed
/// picks the input grids and the border constants.
std::vector<Program> paperKernels(int64_t N, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
