//===- core/PipelineStages.cpp - Shared compilation stages ----------------===//

#include "core/PipelineStages.h"

#include "codegen/ShapeEstimate.h"
#include "frontend/Parser.h"
#include "lir/LIRAbsint.h"
#include "parallel/ParPlanner.h"
#include "support/Casting.h"
#include "support/Trace.h"

#include <set>

using namespace hac;
using namespace hac::stages;

namespace {

/// Records how one compile ended on the enclosing "compile" span.
void traceOutcome(bool Thunkless, const std::string &FallbackReason) {
  if (!traceEnabled())
    return;
  TraceSink::get().count(Thunkless ? "compile.thunkless"
                                   : "compile.fallback");
  TraceSink::get().annotate(Thunkless ? "thunkless"
                                      : "fallback: " + FallbackReason);
}

} // namespace

ExprPtr stages::parse(StageContext &Ctx, const std::string &Source) {
  HAC_TRACE_SPAN(Span, "parse");
  return parseString(Source, Ctx.Diags);
}

const Expr *stages::stripOuterLets(const Expr *E, ParamEnv &Params,
                                   std::vector<std::string> &InputNames) {
  for (;;) {
    const auto *L = dyn_cast<LetExpr>(E);
    if (!L)
      return E;
    // Stop at the defining let of any kind: `let a = array ... in a`
    // defines `a` as `letrec*` does, `let b = bigupd a ... in b` `b`.
    bool IsTarget = false;
    for (const LetBind &B : L->binds())
      IsTarget |= isa<BigUpdExpr>(B.Value.get()) ||
                  isa<MakeArrayExpr>(B.Value.get()) ||
                  isa<AccumArrayExpr>(B.Value.get());
    if (IsTarget)
      return E;
    for (const LetBind &B : L->binds()) {
      int64_t V;
      if (tryEvalConstInt(B.Value.get(), Params, V))
        Params[B.Name] = V;
      else
        InputNames.push_back(B.Name);
    }
    E = L->body();
  }
}

bool stages::arrayBoundsToDims(StageContext &Ctx, const Expr *Bounds,
                               const ParamEnv &Params, ArrayDims &Out) {
  const auto *T = dyn_cast<TupleExpr>(Bounds);
  if (!T || T->size() != 2) {
    Ctx.Diags.error(Bounds->loc(), "array bounds must be a pair");
    return false;
  }
  int64_t Lo, Hi;
  if (tryEvalConstInt(T->elem(0), Params, Lo) &&
      tryEvalConstInt(T->elem(1), Params, Hi)) {
    Out.emplace_back(Lo, Hi);
    return true;
  }
  const auto *LoT = dyn_cast<TupleExpr>(T->elem(0));
  const auto *HiT = dyn_cast<TupleExpr>(T->elem(1));
  if (!LoT || !HiT || LoT->size() != HiT->size()) {
    Ctx.Diags.error(Bounds->loc(),
                    "array bounds are not compile-time constants");
    return false;
  }
  for (unsigned D = 0; D != LoT->size(); ++D) {
    if (!tryEvalConstInt(LoT->elem(D), Params, Lo) ||
        !tryEvalConstInt(HiT->elem(D), Params, Hi)) {
      Ctx.Diags.error(Bounds->loc(),
                      "array bound is not a compile-time constant");
      return false;
    }
    Out.emplace_back(Lo, Hi);
  }
  return true;
}

CompNest stages::nest(StageContext &Ctx, const Expr *SvList,
                      const ParamEnv &Params) {
  HAC_TRACE_SPAN(Span, "clause-tree");
  return buildCompNest(SvList, Params, Ctx.Diags);
}

DepGraph stages::dependence(StageContext &Ctx, const CompNest &Nest,
                            const std::string &Target,
                            const ParamEnv &Params, DepGraphMode Mode) {
  DepGraphOptions GraphOptions;
  GraphOptions.ExactBudget = Ctx.Options.ExactBudget;
  GraphOptions.OmegaBudget = Ctx.Options.OmegaBudget;
  GraphOptions.SelfCheck = Ctx.Options.DepSelfCheck;
  return buildDepGraph(Nest, Target, Params, Mode, GraphOptions);
}

void stages::arrayAnalyses(StageContext &Ctx, CompiledArray &Result,
                           std::map<std::string, ArrayDims> Extents) {
  CollisionOptions ColOpts;
  ColOpts.ExactBudget = Ctx.Options.ExactBudget;
  ColOpts.OmegaBudget = Ctx.Options.OmegaBudget;
  ColOpts.SelfCheck = Ctx.Options.DepSelfCheck;
  Result.Collisions = analyzeCollisions(Result.Nest, Result.Params, ColOpts);
  Result.Coverage = analyzeCoverage(Result.Nest, Result.Dims, Result.Params,
                                    Result.Collisions);
  Extents[Result.Name] = Result.Dims;
  Result.ReadBounds =
      analyzeReadBounds(Result.Nest, Extents, Result.Params);
}

void stages::fallback(CompiledArray &Result, const std::string &Reason) {
  Result.Thunkless = false;
  Result.FallbackReason = Reason;
  traceOutcome(false, Reason);
}

void stages::fallback(CompiledUpdate &Result, const std::string &Reason) {
  Result.InPlace = false;
  Result.FallbackReason = Reason;
  traceOutcome(false, Reason);
}

bool stages::scheduleArray(StageContext &Ctx, CompiledArray &Result,
                           const std::vector<const DepEdge *> &Edges) {
  (void)Ctx;
  Result.Sched = scheduleNest(Result.Nest, Edges);
  if (!Result.Sched.Thunkless) {
    fallback(Result, Result.Sched.FailureReason);
    return false;
  }
  Result.Vectorization = analyzeVectorization(Result.Sched, Edges);
  return true;
}

void stages::maskUnprovenChecks(StageContext &Ctx,
                                CollisionAnalysis &Collisions,
                                CoverageAnalysis &Coverage,
                                ReadBoundsAnalysis &ReadBounds) {
  if (Ctx.Options.EnableCheckElimination)
    return;
  // Ablation: pretend nothing was proven.
  Collisions.NoCollisions = CheckOutcome::Unknown;
  Coverage.InBounds = CheckOutcome::Unknown;
  Coverage.NoEmpties = CheckOutcome::Unknown;
  ReadBounds.AllInBounds = CheckOutcome::Unknown;
}

std::vector<const DepEdge *>
stages::edgesAfterSplits(const std::vector<DepEdge> &Edges,
                         const std::vector<SplitAction> &Splits) {
  std::set<const Expr *> SplitReads;
  for (const SplitAction &A : Splits)
    SplitReads.insert(A.ReadRef);
  std::vector<const DepEdge *> Remaining;
  for (const DepEdge &E : Edges)
    if (!(E.Kind == DepKind::Anti && SplitReads.count(E.ReadRef)))
      Remaining.push_back(&E);
  return Remaining;
}

void stages::planAndFinish(StageContext &Ctx, ExecPlan &Plan,
                           const std::function<ExecPlan()> &Build,
                           const std::vector<const DepEdge *> &ParEdges,
                           const ArrayDims &Dims, const ParamEnv &Params) {
  {
    HAC_TRACE_SPAN(PlanSpan, "plan-build");
    Plan = Build();
  }
  // Classify every loop of the plan for the parallel backends; \p
  // ParEdges are the constraints the serial schedule honors.
  par::planParallel(Plan, ParEdges);
  if (Ctx.Options.VerifyLIR) {
    // Re-lower the plan to LIR and run the abstract interpreter over it:
    // translation validation of the checks the plan dropped (HAC009) and
    // static race checking of whatever the parallel planner flagged
    // and legalizePar kept (HAC010/HAC011).
    // Update plans carry no static dims; the shape estimate (the same
    // one the profiler uses) gates validation there.
    ArrayDims VerifyDims = Dims;
    if (!VerifyDims.empty() ||
        estimateUpdateDims(Plan, Params, VerifyDims)) {
      HAC_TRACE_SPAN(Span, "verify-lir");
      lir::PlanVerifyResult R =
          lir::verifyPlanLIR(Plan, VerifyDims, Params, {});
      lir::reportLIRFindings(R, Ctx.Diags);
    }
  }
  traceOutcome(true, "");
}

void stages::compileArrayBinding(StageContext &Ctx, CompiledArray &Result,
                                 const MakeArrayExpr *Make,
                                 std::map<std::string, ArrayDims> Extents) {
  Result.Nest = nest(Ctx, Make->svList(), Result.Params);
  if (!Result.Nest.Analyzable) {
    fallback(Result, Result.Nest.FallbackReason);
    return;
  }

  Result.Graph = dependence(Ctx, Result.Nest, Result.Name, Result.Params,
                            DepGraphMode::Monolithic);
  arrayAnalyses(Ctx, Result, std::move(Extents));

  if (Result.Collisions.NoCollisions == CheckOutcome::Disproven) {
    Ctx.Diags.error(SourceLoc(),
                    "write collision: " + Result.Collisions.witnessStr());
    fallback(Result, "definite write collision");
    return;
  }
  if (Result.Coverage.InBounds == CheckOutcome::Disproven)
    Ctx.Diags.warning(SourceLoc(),
                      "some array definitions are provably out of bounds: " +
                          Result.Coverage.detail());

  if (Result.Graph.HasUnknownRef) {
    fallback(Result, Result.Graph.UnknownRefReason);
    return;
  }

  // Schedule against the flow edges (output edges are error reports, not
  // ordering constraints, for plain monolithic arrays).
  std::vector<const DepEdge *> FlowEdges;
  for (const DepEdge &Edge : Result.Graph.Edges)
    if (Edge.Kind == DepKind::Flow)
      FlowEdges.push_back(&Edge);
  if (!scheduleArray(Ctx, Result, FlowEdges))
    return;

  Result.Thunkless = true;
  CollisionAnalysis EffCollisions = Result.Collisions;
  CoverageAnalysis EffCoverage = Result.Coverage;
  ReadBoundsAnalysis EffReadBounds = Result.ReadBounds;
  maskUnprovenChecks(Ctx, EffCollisions, EffCoverage, EffReadBounds);

  // The monolithic graph's flow and output edges are the constraints the
  // serial schedule honors.
  std::vector<const DepEdge *> AllEdges;
  for (const DepEdge &E : Result.Graph.Edges)
    AllEdges.push_back(&E);
  planAndFinish(
      Ctx, Result.Plan,
      [&] {
        return buildArrayPlan(Result.Nest, Result.Sched, Result.Name,
                              Result.Dims, EffCollisions, EffCoverage,
                              EffReadBounds);
      },
      AllEdges, Result.Dims, Result.Params);
}
