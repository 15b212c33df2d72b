//===- bench/BenchCommon.h - Shared benchmark helpers -----------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel sources and setup helpers shared by the benchmark binaries.
/// Each experiment in EXPERIMENTS.md maps to one bench binary; the
/// kernels here are the paper's worked examples.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_BENCH_BENCHCOMMON_H
#define HAC_BENCH_BENCHCOMMON_H

#include "codegen/CEmitter.h"
#include "jit/NativeBuild.h"
#include "core/Compiler.h"
#include "core/InterpBridge.h"
#include "parallel/ThreadPool.h"
#include "support/Trace.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

// Build provenance for the JSON header, filled in by bench/CMakeLists.txt.
// The fallbacks keep the header self-contained for ad-hoc compiles.
#ifndef HAC_BENCH_BUILD_TYPE
#define HAC_BENCH_BUILD_TYPE ""
#endif
#ifndef HAC_BENCH_CXX_FLAGS
#define HAC_BENCH_CXX_FLAGS ""
#endif

namespace hacbench {

using namespace hac;

//===--------------------------------------------------------------------===//
// JSON telemetry
//===--------------------------------------------------------------------===//

/// When the HAC_BENCH_JSON environment variable names a file, tracing is
/// enabled for the whole bench process and an atexit hook writes a JSON
/// document there: any rows recorded via benchJsonRow() plus the trace
/// fragment (phase spans and hac counters accumulated across every
/// compile and run the bench performed). Without the variable this is
/// completely inert. Call benchJsonInit() at the top of main — the
/// HAC_BENCH_MAIN() macro below does so for google-benchmark binaries.
class BenchJsonSink {
public:
  static BenchJsonSink &get() {
    // Leaked for the same reason as TraceSink::get(): the atexit dump
    // registered in the constructor would otherwise run after this
    // object's destructor.
    static BenchJsonSink *S = new BenchJsonSink;
    return *S;
  }

  bool enabled() const { return !Path.empty(); }

  /// Records one result row. \p Fields are (key, already-rendered JSON
  /// value) pairs: use hac::jsonQuote for strings, std::to_string for
  /// numbers.
  void row(const std::string &Name,
           std::vector<std::pair<std::string, std::string>> Fields) {
    if (!enabled())
      return;
    std::string R = "  {\"name\": " + jsonQuote(Name);
    for (const auto &[Key, Value] : Fields)
      R += ", " + jsonQuote(Key) + ": " + Value;
    R += "}";
    Rows.push_back(std::move(R));
  }

private:
  BenchJsonSink() {
    const char *Env = std::getenv("HAC_BENCH_JSON");
    if (!Env || !*Env)
      return;
    Path = Env;
    TraceSink::get().setEnabled(true);
    std::atexit(dumpAtExit);
  }

  static void dumpAtExit() {
    BenchJsonSink &S = get();
    std::ofstream OS(S.Path);
    if (!OS) {
      std::fprintf(stderr, "hacbench: cannot write '%s'\n", S.Path.c_str());
      return;
    }
    // schema_version history: 1 = rows + trace; 2 adds threads (the
    // HAC_THREADS/hardware default the parallel benches use) and build
    // provenance so bench_diff can refuse apples-to-oranges comparisons.
    OS << "{\n \"schema_version\": 2,\n"
       << " \"threads\": " << par::ThreadPool::defaultThreads() << ",\n"
       << " \"build\": {\"compiler\": " << jsonQuote(__VERSION__)
       << ", \"type\": " << jsonQuote(HAC_BENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << jsonQuote(HAC_BENCH_CXX_FLAGS) << "},\n";
    OS << " \"rows\": [\n";
    for (size_t I = 0; I != S.Rows.size(); ++I)
      OS << S.Rows[I] << (I + 1 == S.Rows.size() ? "\n" : ",\n");
    OS << " ],\n \"trace\":\n";
    TraceSink::get().writeJson(OS, 2);
    OS << "\n}\n";
  }

  std::string Path;
  std::vector<std::string> Rows;
};

/// Arms the HAC_BENCH_JSON emitter (constructs the singleton so the
/// atexit hook registers before any bench work runs).
inline void benchJsonInit() { (void)BenchJsonSink::get(); }

inline void
benchJsonRow(const std::string &Name,
             std::vector<std::pair<std::string, std::string>> Fields) {
  BenchJsonSink::get().row(Name, std::move(Fields));
}

/// Drop-in replacement for BENCHMARK_MAIN() that arms the JSON emitter
/// before google-benchmark takes over.
#define HAC_BENCH_MAIN()                                                    \
  int main(int argc, char **argv) {                                         \
    ::hacbench::benchJsonInit();                                            \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))               \
      return 1;                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    return 0;                                                               \
  }                                                                         \
  static_assert(true, "require a trailing semicolon")

/// A scratch kernel-cache directory, fresh per construction and removed
/// at destruction, so JIT benches never touch the user's kernel cache.
struct ScratchCache {
  std::filesystem::path Dir;
  explicit ScratchCache(const std::string &Tag) {
    Dir = std::filesystem::temp_directory_path() /
          ("hac-bench-jit-" + Tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~ScratchCache() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

/// Section 3's wavefront recurrence over an n x n grid.
inline std::string wavefrontSource(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "letrec* a = array ((1,1),(n,n)) "
         "([ (1,j) := 1.0 | j <- [1..n] ] ++ "
         " [ (i,1) := 1.0 | i <- [2..n] ] ++ "
         " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)) / 3.0 "
         "   | i <- [2..n], j <- [2..n] ]) in a";
}

/// Section 5 example 1: three stride-3 clauses sharing one loop; scaled
/// so the array has 3*K elements.
inline std::string sec5Ex1Source(int64_t K) {
  return "let k = " + std::to_string(K) +
         " in "
         "letrec* a = array (1,3*k) "
         "([* [3*i := 1.0] ++ "
         "    [3*i-1 := a!(3*(i-1)) + 1.0] ++ "
         "    [3*i-2 := a!(3*i) * 2.0] | i <- [2..k] *] "
         " ++ [ 1 := 2.0, 2 := 2.0, 3 := 1.0 ]) in a";
}

/// Section 5 example 2 shape: the inner loop must run backward.
inline std::string sec5Ex2Source(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "letrec* a = array ((1,1),(n,n)) "
         "([ (i,n) := 1.0 * i | i <- [1..n] ] ++ "
         " [ (i,j) := a!(i,j+1) + 1.0 | i <- [1..n], j <- [1..n-1] ]) "
         "in a";
}

/// Section 3.1: sum of products, wrapped in a 1-element array so the
/// compiled pipeline can run it (the fold itself is fused either way).
inline std::string dotSource(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "letrec* s = array (1,1) "
         "[ 1 := sum [ xs!k * ys!k | k <- [1..n] ] ] in s";
}

/// Section 9: LINPACK-style swap of rows 1 and n/2 of an n x n matrix.
inline std::string rowSwapSource(int64_t N) {
  return "let n = " + std::to_string(N) + "; k = " + std::to_string(N / 2) +
         " in "
         "bigupd m ([ (1,j) := m!(k,j) | j <- [1..n] ] ++ "
         "          [ (k,j) := m!(1,j) | j <- [1..n] ])";
}

/// Section 9: one Jacobi relaxation step, the expressive
/// non-single-threaded form.
inline std::string jacobiSource(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "bigupd a [ (i,j) := (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + "
         "a!(i,j+1)) / 4.0 | i <- [2..n-1], j <- [2..n-1] ]";
}

/// One Jacobi relaxation step in the out-of-place form: every read comes
/// from the previous grid `b`, so no dependence is carried by any loop
/// and the parallel planner proves every pass DOALL (contrast with
/// jacobiSource, whose in-place update needs a serial ring-buffer pass).
inline std::string jacobiDoallSource(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "letrec* a = array ((1,1),(n,n)) "
         "([ (1,j) := b!(1,j) | j <- [1..n] ] ++ "
         " [ (n,j) := b!(n,j) | j <- [1..n] ] ++ "
         " [ (i,1) := b!(i,1) | i <- [2..n-1] ] ++ "
         " [ (i,n) := b!(i,n) | i <- [2..n-1] ] ++ "
         " [ (i,j) := (b!(i-1,j) + b!(i+1,j) + b!(i,j-1) + b!(i,j+1)) "
         "/ 4.0 | i <- [2..n-1], j <- [2..n-1] ]) in a";
}

/// Section 9 / Livermore 23: one Gauss-Seidel (SOR omega=1) sweep as a
/// monolithic array whose result overwrites the old grid `b`.
inline std::string sorSource(int64_t N) {
  return "let n = " + std::to_string(N) +
         " in "
         "letrec* a = array ((1,1),(n,n)) "
         "([ (1,j) := b!(1,j) | j <- [1..n] ] ++ "
         " [ (n,j) := b!(n,j) | j <- [1..n] ] ++ "
         " [ (i,1) := b!(i,1) | i <- [2..n-1] ] ++ "
         " [ (i,n) := b!(i,n) | i <- [2..n-1] ] ++ "
         " [ (i,j) := (a!(i-1,j) + a!(i,j-1) + b!(i+1,j) + b!(i,j+1)) "
         "/ 4.0 | i <- [2..n-1], j <- [2..n-1] ]) in a";
}

/// A stride-3 partition kernel where all checks are provably removable.
inline std::string partitionSource(int64_t K) {
  return "let k = " + std::to_string(K) +
         " in "
         "letrec* a = array (1,3*k) "
         "[* [3*i := 1.0] ++ [3*i-1 := 2.0] ++ [3*i-2 := 3.0] "
         "| i <- [1..k] *] in a";
}

/// The same partition with a redundant guard: semantically identical, but
/// the guard blinds the coverage analysis, so the empties/collision
/// checks must stay (Section 4's conditions fail statically).
inline std::string guardedPartitionSource(int64_t K) {
  return "let k = " + std::to_string(K) +
         " in "
         "letrec* a = array (1,3*k) "
         "[* [3*i := 1.0] ++ [3*i-1 := 2.0] ++ [3*i-2 := 3.0] "
         "| i <- [1..k], i > 0 *] in a";
}

/// Compiles an array program, aborting the benchmark on failure.
inline CompiledArray mustCompile(const std::string &Source,
                                 const CompileOptions &Options =
                                     CompileOptions()) {
  Compiler TheCompiler(Options);
  auto Compiled = TheCompiler.compileArray(Source);
  if (!Compiled || !Compiled->Thunkless) {
    std::fprintf(stderr, "bench kernel failed to compile thunklessly:\n%s\n%s\n",
                 TheCompiler.diags().str().c_str(),
                 Compiled ? Compiled->FallbackReason.c_str() : "");
    std::abort();
  }
  return std::move(*Compiled);
}

inline CompiledUpdate mustCompileUpdate(const std::string &Source) {
  Compiler TheCompiler;
  auto Compiled = TheCompiler.compileUpdate(Source);
  if (!Compiled || !Compiled->InPlace) {
    std::fprintf(stderr, "bench update failed to compile in place:\n%s\n%s\n",
                 TheCompiler.diags().str().c_str(),
                 Compiled ? Compiled->FallbackReason.c_str() : "");
    std::abort();
  }
  return std::move(*Compiled);
}

using KernelFn = int (*)(double *, const double *const *);

/// Emits C for a compiled array (the JIT kernel with its residual checks
/// and counters, behind emitC's two-argument wrapper) and builds it
/// through the shared jit/ native-build path (managed scratch directory,
/// HAC_JIT_CC override).
/// Returns the loaded kernel (null on any failure); the handle is
/// process-lifetime.
inline KernelFn buildNativeKernel(const CompiledArray &Compiled,
                                  const std::string &FnName) {
  CEmitResult Emitted = emitC(Compiled.Plan, FnName, Compiled.Params);
  if (!Emitted.OK) {
    std::fprintf(stderr, "C emission failed: %s\n", Emitted.Error.c_str());
    return nullptr;
  }
  std::string Error;
  return reinterpret_cast<KernelFn>(
      jit::buildNativeKernel(Emitted.Code, FnName, Error));
}

/// Fills an n x n grid with a smooth deterministic pattern.
inline DoubleArray makeGrid(int64_t N) {
  DoubleArray A(DoubleArray::Dims{{1, N}, {1, N}});
  for (int64_t I = 1; I <= N; ++I)
    for (int64_t J = 1; J <= N; ++J)
      A.set({I, J}, double((I * 31 + J * 17) % 97) / 97.0);
  return A;
}

/// Fills a 1-D vector deterministically.
inline DoubleArray makeVector(int64_t N) {
  DoubleArray A(DoubleArray::Dims{{1, N}});
  for (int64_t I = 1; I <= N; ++I)
    A.set({I}, double((I * 13) % 31) / 31.0 + 0.5);
  return A;
}

} // namespace hacbench

#endif // HAC_BENCH_BENCHCOMMON_H
