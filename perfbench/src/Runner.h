//===- perfbench/src/Runner.h - Calls into the library ----------*- C++ -*-===//
//
// The calls hacc makes, one program at a time: compile through the
// entry point the program's kind selects, run the compiled plan on an
// Executor, or fall back to the lazy interpreter. Also computes the lazy
// interpreter reference every result is compared with.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_RUNNER_H
#define PERFBENCH_RUNNER_H

#include "Corpus.h"

#include "core/Compiler.h"
#include "core/Module.h"
#include "runtime/Executor.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The compile options every benchmark compile uses: each budget is
/// spelled out, so HAC_DEP_BUDGET or a changed default cannot move it.
hac::CompileOptions pinnedOptions();

/// One program after compilation; exactly one member is set when the
/// compile succeeded.
struct CompiledProgram {
  std::optional<hac::CompiledArray> Array;
  std::optional<hac::CompiledUpdate> Update;
  std::optional<hac::CompiledModule> Module;
  std::string Diags; ///< compiler diagnostics when nothing compiled

  bool ok() const { return Array || Update || Module; }
  /// True when the result runs on the Executor instead of the interpreter.
  bool thunkless() const;
  const hac::ParamEnv &params() const;
};

/// Compiles \p P with a fresh Compiler or ModuleCompiler.
CompiledProgram compileProgram(const Program &P,
                               const hac::CompileOptions &Options);

/// A fresh single-threaded, JIT-off Executor for \p C.
hac::Executor makeExecutor(const CompiledProgram &C);

/// Puts \p P's starting contents in \p Out before a run: a copy of the
/// target input for in-place kinds, nothing otherwise.
void prepareTarget(const Program &P, hac::DoubleArray &Out);

/// Runs a thunkless compiled program on \p Exec into \p Out (which
/// prepareTarget filled). Binds \p P's inputs first.
bool runCompiled(const Program &P, const CompiledProgram &C,
                 hac::Executor &Exec, hac::DoubleArray &Out,
                 std::string &Err);

/// The lazy interpreter: runThunked over \p P's source and inputs, forced
/// and converted to a flat array (hacc's fallback path).
bool runInterpreter(const Program &P, hac::DoubleArray &Out,
                    std::string &Err);

/// Elements of the arrays one run of \p C produces (every binding of a
/// module), or of \p Result for interpreter fallbacks.
uint64_t cellsProduced(const CompiledProgram &C,
                       const hac::DoubleArray &Result);

/// Same shape and the same bits in every element.
bool sameBits(const hac::DoubleArray &A, const hac::DoubleArray &B);

struct Reference {
  bool OK = false;
  std::string Err;
  hac::DoubleArray Value;
  uint64_t InterpNanos = 0; ///< runThunked + conversion
};

/// Computes every program's interpreter result in a child process, so
/// the interpreter's heap never shows in the benchmark's own peak RSS.
/// \p Scratch is a directory for the hand-over file.
std::vector<Reference> computeReferences(const std::vector<Program> &Ps,
                                         const std::string &Scratch);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_H
