//===- core/Compiler.h - The end-to-end compilation driver ------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public one-call API: compile an array-comprehension program through
/// the full pipeline (parse -> clause tree -> subscript analysis ->
/// dependence graph -> collision/coverage analyses -> static scheduling
/// [-> node splitting] -> executable plan), and run it thunklessly. The
/// lazy interpreter remains the semantic reference and the fallback for
/// programs the static pipeline cannot handle.
///
/// Two program shapes are supported:
///
///  * Array construction (`compileArray`):
///    \code
///      let n = 100 in
///      letrec* a = array ((1,1),(n,n)) ( ... s/v list ... ) in a
///    \endcode
///    Outer `let`s binding compile-time integers become parameters; outer
///    `let`s binding anything else name *input arrays* supplied to the
///    Executor at run time.
///
///  * In-place update (`compileUpdate`):
///    \code
///      let n = 100 in bigupd a ( ... s/v list ... )
///    \endcode
///    `a` is the array updated in place at run time.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CORE_COMPILER_H
#define HAC_CORE_COMPILER_H

#include "analysis/ArrayChecks.h"
#include "analysis/DepGraph.h"
#include "codegen/ExecPlan.h"
#include "schedule/Vectorize.h"
#include "comp/CompNest.h"
#include "runtime/Executor.h"
#include "schedule/Scheduler.h"
#include "support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace hac {

/// Knobs for the compilation pipeline (the ablation benchmarks toggle
/// these).
struct CompileOptions {
  /// Compile-time integer parameters (merged with constant outer `let`s).
  ParamEnv Params;
  /// Node budget for exact dependence tests (0 disables exact screening).
  uint64_t ExactBudget = 100'000;
  /// Step budget for the Omega (exact Presburger) dependence tier; 0
  /// disables it. Defaults to the HAC_DEP_BUDGET environment knob.
  uint64_t OmegaBudget = omega::depBudgetFromEnv();
  /// Cross-check every Omega verdict against brute-force enumeration
  /// (`hacc -Xdep-selfcheck`); aborts on a mismatch.
  bool DepSelfCheck = false;
  /// When false, all runtime checks stay on even if the analyses prove
  /// them unnecessary (ablation of Sections 4 and 7).
  bool EnableCheckElimination = true;
  /// When true, compiled reads of the target verify the element was
  /// already computed (schedule-safety validation for property tests).
  bool ValidateReads = false;
  /// When true, every compiled plan is re-lowered to LIR and checked by
  /// the abstract interpreter (translation validation of dropped checks,
  /// HAC009; static race checking of par-flagged loops, HAC010/HAC011).
  /// Findings surface through the compiler's DiagnosticEngine. Off by
  /// default — `hacc -analyze` and `-verify-lir` turn it on.
  bool VerifyLIR = false;
  /// Unread (one program serves every thread count); kept for callers.
  unsigned VerifyLIRThreads = 1;
};

/// Everything the pipeline derived about one array construction.
struct CompiledArray {
  std::string Name;
  ArrayDims Dims;
  ParamEnv Params;
  /// Names of outer non-constant bindings: expected runtime inputs.
  std::vector<std::string> InputNames;

  ExprPtr Ast; ///< the parsed program (kept for tooling)
  CompNest Nest;
  DepGraph Graph;
  CollisionAnalysis Collisions;
  CoverageAnalysis Coverage;
  /// Symbolic interval analysis of every array read against statically
  /// known extents (the target and, for storage reuse, its alias). A
  /// Proven outcome lets the Executor elide per-read bounds checks.
  ReadBoundsAnalysis ReadBounds;
  Schedule Sched;
  /// Section 10: which innermost loop passes are vectorizable.
  VectorizationReport Vectorization;

  bool Thunkless = false;
  std::string FallbackReason;
  ExecPlan Plan; ///< valid only when Thunkless

  /// Set by compileAccum: the target is an accumulated array. A
  /// thunkless one's plan carries the initial value its untouched
  /// elements hold (ExecPlan::AccumInit).
  bool IsAccum = false;

  /// Set by compileArrayInPlace: the construction overwrites the storage
  /// of this input array (Section 9's storage-reuse case).
  std::string ReuseName;
  UpdateSchedule InPlaceSched; ///< schedule + splits for the reuse case

  /// Runs the compiled plan into \p Out, reshaped to Dims in place: an
  /// \p Out that already has this size keeps its storage, and the run
  /// writes every element once (the Executor prefills only when the
  /// program needs defined starting contents). Input arrays must have
  /// been bound on \p Exec.
  bool evaluate(DoubleArray &Out, Executor &Exec, std::string &Err) const;

  /// For in-place constructions: builds the result directly into
  /// \p Target, which holds the old contents of the reused input array.
  bool evaluateInPlace(DoubleArray &Target, Executor &Exec,
                       std::string &Err) const;

  /// Multi-line analysis report (what was proven, what was eliminated).
  std::string report() const;
};

/// Everything the pipeline derived about one in-place update.
struct CompiledUpdate {
  std::string BaseName;
  ParamEnv Params;

  ExprPtr Ast;
  CompNest Nest;
  DepGraph Graph;
  /// Read analysis for the verifier; the updated array's extents are
  /// runtime values, so reads are at best Unknown here.
  ReadBoundsAnalysis ReadBounds;
  UpdateSchedule Update;
  /// Section 10: which innermost loop passes are vectorizable.
  VectorizationReport Vectorization;

  bool InPlace = false;
  std::string FallbackReason;
  ExecPlan Plan; ///< valid only when InPlace

  /// Applies the update to \p Target in place.
  bool evaluateInPlace(DoubleArray &Target, Executor &Exec,
                       std::string &Err) const;

  std::string report() const;
};

/// The pipeline driver.
class Compiler {
public:
  explicit Compiler(CompileOptions Options = CompileOptions());

  DiagnosticEngine &diags() { return Diags; }
  const CompileOptions &options() const { return Options; }

  /// Compiles an array-construction program; nullopt on a syntax or
  /// structural error (diagnostics explain). A result with
  /// Thunkless == false still carries the full analysis (and the caller
  /// falls back to the interpreter for evaluation).
  std::optional<CompiledArray> compileArray(const std::string &Source);

  /// Compiles a `bigupd` program.
  std::optional<CompiledUpdate> compileUpdate(const std::string &Source);

  /// Compiles `letrec* a = accumArray f z bounds svlist in a` — the
  /// paper's "interesting direction for further work" (Section 3). When
  /// the collision analysis proves each element receives at most one
  /// pair, the accumulation degenerates to a plain monolithic array whose
  /// values are `f z v` with untouched elements pre-filled to z, and the
  /// standard thunkless pipeline applies. With possible collisions the
  /// combining order matters and the result falls back to the
  /// interpreter.
  std::optional<CompiledArray> compileAccum(const std::string &Source);

  /// Compiles an array construction whose result *overwrites the storage*
  /// of input array \p ReuseName (Section 9, storage reuse: "the result
  /// array completely changes the input array, but the result can
  /// overwrite the input in place"). Antidependences on \p ReuseName join
  /// the flow dependences as scheduling constraints; anti cycles are
  /// broken by node splitting.
  std::optional<CompiledArray>
  compileArrayInPlace(const std::string &Source,
                      const std::string &ReuseName);

private:
  CompileOptions Options;
  DiagnosticEngine Diags;
};

} // namespace hac

#endif // HAC_CORE_COMPILER_H
