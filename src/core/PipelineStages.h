//===- core/PipelineStages.h - Shared compilation stages --------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged pipeline every Compiler entry point is a thin wrapper over:
///
///   parse -> strip-outer-lets -> nest -> dependence -> analyses ->
///   schedule -> plan (+ parallel classification + LIR verification)
///
/// Each stage carries its own trace-span, CompileOptions, and
/// DiagnosticEngine wiring exactly once, so a cross-cutting feature
/// (tracing, check-elimination ablation, translation validation, the
/// parallel planner) is threaded through the pipeline in one place
/// instead of once per entry point. The ModuleCompiler drives the same
/// stages once per binding of a multi-array program.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CORE_PIPELINESTAGES_H
#define HAC_CORE_PIPELINESTAGES_H

#include "core/Compiler.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hac {
namespace stages {

/// Everything a stage needs from its driver: the compile knobs and the
/// engine findings report through.
struct StageContext {
  const CompileOptions &Options;
  DiagnosticEngine &Diags;
};

//===----------------------------------------------------------------------===//
// Frontend stages
//===----------------------------------------------------------------------===//

/// Parses \p Source under a "parse" span. Null on syntax errors
/// (diagnostics explain).
ExprPtr parse(StageContext &Ctx, const std::string &Source);

/// Peels outer `let` wrappers: constant integer bindings extend
/// \p Params; other plain-let bindings are recorded as expected runtime
/// inputs. Returns the first non-let expression, or the defining let:
/// any let, letrec or letrec* whose bindings include an array,
/// accumArray or bigupd (so `let a = array … in a` defines `a`).
const Expr *stripOuterLets(const Expr *E, ParamEnv &Params,
                           std::vector<std::string> &InputNames);

/// Parses the bounds argument of `array` into concrete dimensions given
/// the parameter environment. Accepts (lo,hi) and ((l1..),(h1..)).
bool arrayBoundsToDims(StageContext &Ctx, const Expr *Bounds,
                       const ParamEnv &Params, ArrayDims &Out);

//===----------------------------------------------------------------------===//
// Analysis stages
//===----------------------------------------------------------------------===//

/// Builds the clause tree under a "clause-tree" span.
CompNest nest(StageContext &Ctx, const Expr *SvList, const ParamEnv &Params);

/// Builds the dependence graph with the context's exact-test budget.
DepGraph dependence(StageContext &Ctx, const CompNest &Nest,
                    const std::string &Target, const ParamEnv &Params,
                    DepGraphMode Mode);

/// Runs the collision / coverage / read-bounds analyses over
/// \p Result.Nest into the result. \p Extents maps statically known
/// array shapes for the read-bounds analysis; the target's own entry is
/// added automatically.
void arrayAnalyses(StageContext &Ctx, CompiledArray &Result,
                   std::map<std::string, ArrayDims> Extents = {});

//===----------------------------------------------------------------------===//
// Outcome helpers
//===----------------------------------------------------------------------===//

/// Records a thunked fallback on the result and the enclosing "compile"
/// trace span.
void fallback(CompiledArray &Result, const std::string &Reason);
void fallback(CompiledUpdate &Result, const std::string &Reason);

//===----------------------------------------------------------------------===//
// Scheduling and planning stages
//===----------------------------------------------------------------------===//

/// Static scheduling of an array construction against \p Edges, plus the
/// Section 10 vectorization report. Returns false (after recording the
/// fallback) when no thunkless schedule exists.
bool scheduleArray(StageContext &Ctx, CompiledArray &Result,
                   const std::vector<const DepEdge *> &Edges);

/// The check-elimination ablation: when the context disables
/// elimination, every Proven outcome is masked back to Unknown so all
/// runtime checks stay on.
void maskUnprovenChecks(StageContext &Ctx, CollisionAnalysis &Collisions,
                        CoverageAnalysis &Coverage,
                        ReadBoundsAnalysis &ReadBounds);

/// The dependence edges that survive node splitting (anti edges whose
/// reads were redirected to temporaries no longer constrain anything).
std::vector<const DepEdge *>
edgesAfterSplits(const std::vector<DepEdge> &Edges,
                 const std::vector<SplitAction> &Splits);

/// The shared pipeline tail: builds the plan under a "plan-build" span
/// via \p Build, classifies every plan loop for the parallel backends
/// against \p ParEdges, optionally runs the LIR translation validator
/// (CompileOptions::VerifyLIR; \p Dims may be empty for updates, in
/// which case the shape estimate gates validation), and records the
/// thunkless outcome on the trace.
void planAndFinish(StageContext &Ctx, ExecPlan &Plan,
                   const std::function<ExecPlan()> &Build,
                   const std::vector<const DepEdge *> &ParEdges,
                   const ArrayDims &Dims, const ParamEnv &Params);

//===----------------------------------------------------------------------===//
// The full mid-pipeline for one array construction
//===----------------------------------------------------------------------===//

/// Compiles one named `array BOUNDS SVLIST` construction through the
/// shared stages: nest -> dependence -> analyses -> schedule -> plan.
/// \p Result must have Name, Dims, and Params filled in; \p Extents maps
/// statically known shapes of *other* arrays the values may read (the
/// ModuleCompiler passes sibling bindings here). On return
/// Result.Thunkless says whether a plan was produced; a false return
/// with diagnostics means a hard error (definite write collision).
void compileArrayBinding(StageContext &Ctx, CompiledArray &Result,
                         const MakeArrayExpr *Make,
                         std::map<std::string, ArrayDims> Extents = {});

} // namespace stages
} // namespace hac

#endif // HAC_CORE_PIPELINESTAGES_H
