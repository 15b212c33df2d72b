//===- driver/Driver.h - One program-kind decision --------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's program forms are distinct syntax: a `letrec*` array
/// construction, an `accumArray` (Section 3), a `bigupd` update
/// (Section 9), and a `letrec*` binding several arrays (a module).
/// classifyProgram reads which one a source is from its parsed AST, and
/// ProgramCompiler compiles it through that kind's entry point, so a
/// driver never asks its user which kind of program it was given.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_DRIVER_DRIVER_H
#define HAC_DRIVER_DRIVER_H

#include "core/Module.h"

#include <optional>
#include <string>
#include <vector>

namespace hac {

enum class ProgramKind { Array, Accum, Update, Module };

/// "array", "accum", "update" or "module".
const char *programKindName(ProgramKind K);

/// Reads the kind of \p Source from its AST after the outer constant
/// lets are peeled (stages::stripOuterLets). Checked in this order:
///  * a let binding two or more `array`s is a Module;
///  * an `accumArray` target is Accum;
///  * a `bigupd`, bare or let-bound (`let b = bigupd a ... in b`), is
///    Update;
///  * anything else is Array (whose compile diagnoses a missing array).
/// Returns nullopt on a parse error, with the diagnostics in \p Diags.
std::optional<ProgramKind> classifyProgram(const std::string &Source,
                                           DiagnosticEngine &Diags);

/// One array a compiled program computes, in execution order.
struct ProgramPart {
  const std::string *Name;
  const DepGraph *Graph;
  const ExecPlan *Plan; ///< Plan->Dims is the array's shape
  const ParamEnv *Params;
};

/// Compiles a source as one kind: Compiler::compileArray, compileAccum
/// or compileUpdate, or ModuleCompiler::compileModule. After a
/// successful compile() exactly one of Array, Update and Module is set.
class ProgramCompiler {
public:
  ProgramCompiler(ProgramKind K, CompileOptions Options = CompileOptions());

  ProgramKind kind() const { return K; }
  /// The engine the compile and any later verification report through.
  DiagnosticEngine &diags();

  /// False when compilation failed (diagnostics explain).
  bool compile(const std::string &Source);

  std::optional<CompiledArray> Array; ///< Array and Accum kinds
  std::optional<CompiledUpdate> Update;
  std::optional<CompiledModule> Module;

  // The accessors below need a successful compile().

  /// Whether the statically scheduled path applies: Thunkless, or
  /// InPlace for an update.
  bool thunkless() const;
  const std::string &fallbackReason() const;
  const ParamEnv &params() const;
  std::string report() const;

  /// The target of an Array, Accum or Update program, or every module
  /// binding in topological order. An update's plan carries the shape
  /// estimated from its subscripts; empty Dims when none can be derived.
  std::vector<ProgramPart> parts() const;

  /// What the result array holds before the program's plans run: the
  /// accumArray initial value, an update's deterministic start array
  /// (1 + 0.25 * (k mod 7) in row-major position k), or zeros.
  DoubleArray startState() const;

  /// Runs a thunkless program on \p Exec (which must carry params())
  /// into \p Out; an update is applied to startState(). A module that is
  /// not thunkless runs under the interpreter inside evaluateModule.
  bool run(Executor &Exec, DoubleArray &Out, std::string &Err,
           ModuleRunStats *Stats = nullptr) const;

private:
  ProgramKind K;
  Compiler C;
  ModuleCompiler MC;
};

} // namespace hac

#endif // HAC_DRIVER_DRIVER_H
