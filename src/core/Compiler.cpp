//===- core/Compiler.cpp - The end-to-end compilation driver --------------===//
//
// Each entry point here is a thin wrapper: locate the program shape it
// accepts (array construction, bigupd, accumArray, storage reuse), then
// drive the shared stages in core/PipelineStages.h. All cross-cutting
// wiring (trace spans, options, diagnostics, parallel classification,
// LIR translation validation) lives in the stages, once.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "ast/ASTUtils.h"
#include "core/PipelineStages.h"
#include "support/Casting.h"
#include "support/Trace.h"

#include <sstream>

using namespace hac;

Compiler::Compiler(CompileOptions Options) : Options(std::move(Options)) {}

std::optional<CompiledArray>
Compiler::compileArray(const std::string &Source) {
  HAC_TRACE_SPAN(CompileSpan, "compile");
  if (traceEnabled())
    TraceSink::get().annotate("mode=array");
  stages::StageContext Ctx{Options, Diags};
  ExprPtr Ast = stages::parse(Ctx, Source);
  if (!Ast)
    return std::nullopt;

  CompiledArray Result;
  Result.Params = Options.Params;
  const Expr *E =
      stages::stripOuterLets(Ast.get(), Result.Params, Result.InputNames);

  // Locate the defining binding: letrec/letrec*/let NAME = array ... .
  const MakeArrayExpr *Make = nullptr;
  if (const auto *L = dyn_cast<LetExpr>(E)) {
    for (const LetBind &B : L->binds()) {
      if (const auto *M = dyn_cast<MakeArrayExpr>(B.Value.get())) {
        Result.Name = B.Name;
        Make = M;
        break;
      }
    }
  } else if (const auto *M = dyn_cast<MakeArrayExpr>(E)) {
    // A bare array expression: anonymous target.
    Result.Name = "a";
    Make = M;
  }
  if (!Make) {
    Diags.error(E->loc(), "program does not define an array "
                          "(expected `letrec* NAME = array BOUNDS LIST`)");
    return std::nullopt;
  }

  if (!stages::arrayBoundsToDims(Ctx, Make->bounds(), Result.Params,
                                 Result.Dims))
    return std::nullopt;

  Result.Ast = std::move(Ast);
  stages::compileArrayBinding(Ctx, Result, Make);
  return Result;
}

std::optional<CompiledUpdate>
Compiler::compileUpdate(const std::string &Source) {
  HAC_TRACE_SPAN(CompileSpan, "compile");
  if (traceEnabled())
    TraceSink::get().annotate("mode=update");
  stages::StageContext Ctx{Options, Diags};
  ExprPtr Ast = stages::parse(Ctx, Source);
  if (!Ast)
    return std::nullopt;

  CompiledUpdate Result;
  Result.Params = Options.Params;
  std::vector<std::string> InputNames;
  const Expr *E = stages::stripOuterLets(Ast.get(), Result.Params, InputNames);

  const BigUpdExpr *Upd = dyn_cast<BigUpdExpr>(E);
  if (!Upd) {
    // Allow `let b = bigupd a ... in b` shape.
    if (const auto *L = dyn_cast<LetExpr>(E))
      for (const LetBind &B : L->binds())
        if ((Upd = dyn_cast<BigUpdExpr>(B.Value.get())))
          break;
  }
  if (!Upd) {
    Diags.error(E->loc(), "program does not contain a bigupd");
    return std::nullopt;
  }
  const auto *Base = dyn_cast<VarExpr>(Upd->base());
  if (!Base) {
    Diags.error(Upd->base()->loc(), "bigupd base must be an array name");
    return std::nullopt;
  }
  Result.BaseName = Base->name();

  Result.Ast = std::move(Ast);
  Result.Nest = stages::nest(Ctx, Upd->svList(), Result.Params);
  if (!Result.Nest.Analyzable) {
    stages::fallback(Result, Result.Nest.FallbackReason);
    return Result;
  }
  // The updated array's extents are runtime values: reads can be
  // enumerated for the verifier but never proven in bounds here.
  Result.ReadBounds = analyzeReadBounds(Result.Nest, {}, Result.Params);

  Result.Graph = stages::dependence(Ctx, Result.Nest, Result.BaseName,
                                    Result.Params, DepGraphMode::Update);
  Result.Update = scheduleUpdate(Result.Nest, Result.Graph);
  if (!Result.Update.InPlace) {
    stages::fallback(Result, Result.Update.Reason);
    return Result;
  }
  // Vectorization and the parallel planner are judged against the
  // surviving (post-split) edges.
  std::vector<const DepEdge *> Remaining =
      stages::edgesAfterSplits(Result.Graph.Edges, Result.Update.Splits);
  Result.Vectorization = analyzeVectorization(Result.Update.Sched, Remaining);

  Result.InPlace = true;
  stages::planAndFinish(
      Ctx, Result.Plan,
      [&] {
        return buildUpdatePlan(Result.Nest, Result.Update, Result.BaseName,
                               /*Dims=*/{});
      },
      Remaining, /*Dims=*/{}, Result.Params);
  return Result;
}

namespace {

/// Rewrites every s/v pair value `v` in \p SvList into the combining
/// expression `f z v` with the lambda inlined: body[p0 := z, p1 := v].
ExprPtr transformAccumValues(const Expr *SvList, const LambdaExpr *Fn,
                             const Expr *Init) {
  switch (SvList->kind()) {
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(SvList);
    if (B->op() != BinaryOpKind::Append)
      break;
    return makeBinary(BinaryOpKind::Append,
                      transformAccumValues(B->lhs(), Fn, Init),
                      transformAccumValues(B->rhs(), Fn, Init));
  }
  case ExprKind::List: {
    std::vector<ExprPtr> Elems;
    for (const ExprPtr &Elem : cast<ListExpr>(SvList)->elems())
      Elems.push_back(transformAccumValues(Elem.get(), Fn, Init));
    return std::make_unique<ListExpr>(std::move(Elems), SvList->loc());
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(SvList);
    std::vector<LetBind> Binds;
    for (const LetBind &B : L->binds())
      Binds.emplace_back(B.Name, cloneExpr(B.Value.get()), B.Loc);
    return std::make_unique<LetExpr>(
        L->letKind(), std::move(Binds),
        transformAccumValues(L->body(), Fn, Init), SvList->loc());
  }
  case ExprKind::Comp: {
    const auto *C = cast<CompExpr>(SvList);
    // Clone the whole comprehension to obtain owned qualifier copies,
    // then rebuild it around the transformed head.
    ExprPtr Scratch = cloneExpr(SvList);
    std::vector<CompQual> Quals =
        std::move(cast<CompExpr>(Scratch.get())->quals());
    return std::make_unique<CompExpr>(
        transformAccumValues(C->head(), Fn, Init), std::move(Quals),
        C->isNested(), C->loc());
  }
  case ExprKind::SvPair: {
    const auto *P = cast<SvPairExpr>(SvList);
    // body[p0 := z] first (z is a literal, no capture possible), then
    // [p1 := v].
    ExprPtr Step1 =
        substitute(Fn->body(), Fn->params()[0], Init);
    ExprPtr NewValue =
        substitute(Step1.get(), Fn->params()[1], P->value());
    return std::make_unique<SvPairExpr>(cloneExpr(P->subscript()),
                                        std::move(NewValue), P->loc());
  }
  default:
    break;
  }
  return cloneExpr(SvList);
}

} // namespace

std::optional<CompiledArray>
Compiler::compileAccum(const std::string &Source) {
  HAC_TRACE_SPAN(CompileSpan, "compile");
  if (traceEnabled())
    TraceSink::get().annotate("mode=accum");
  stages::StageContext Ctx{Options, Diags};
  ExprPtr Ast = stages::parse(Ctx, Source);
  if (!Ast)
    return std::nullopt;

  CompiledArray Result;
  Result.Params = Options.Params;
  const Expr *E =
      stages::stripOuterLets(Ast.get(), Result.Params, Result.InputNames);

  const AccumArrayExpr *Accum = nullptr;
  if (const auto *L = dyn_cast<LetExpr>(E)) {
    for (const LetBind &B : L->binds())
      if (const auto *A = dyn_cast<AccumArrayExpr>(B.Value.get())) {
        Result.Name = B.Name;
        Accum = A;
        break;
      }
  } else if (const auto *A = dyn_cast<AccumArrayExpr>(E)) {
    Result.Name = "a";
    Accum = A;
  }
  if (!Accum) {
    Diags.error(E->loc(), "program does not define an accumulated array");
    return std::nullopt;
  }

  if (!stages::arrayBoundsToDims(Ctx, Accum->bounds(), Result.Params,
                                 Result.Dims))
    return std::nullopt;
  Result.Ast = std::move(Ast);
  Result.IsAccum = true;

  // The static special case needs a two-parameter lambda and a constant
  // initial value.
  const auto *Fn = dyn_cast<LambdaExpr>(Accum->fn());
  if (!Fn || Fn->params().size() != 2) {
    stages::fallback(
        Result, "accumArray combining function is not a two-parameter lambda");
    return Result;
  }
  double InitValue = 0;
  if (const auto *IL = dyn_cast<IntLitExpr>(Accum->init()))
    InitValue = static_cast<double>(IL->value());
  else if (const auto *FL = dyn_cast<FloatLitExpr>(Accum->init()))
    InitValue = FL->value();
  else {
    int64_t IV;
    if (!tryEvalConstInt(Accum->init(), Result.Params, IV)) {
      stages::fallback(
          Result, "accumArray initial value is not a compile-time constant");
      return Result;
    }
    InitValue = static_cast<double>(IV);
  }

  // Inline the combining function into every pair value.
  ExprPtr Transformed =
      transformAccumValues(Accum->svList(), Fn, Accum->init());
  Result.Nest = stages::nest(Ctx, Transformed.get(), Result.Params);
  if (!Result.Nest.Analyzable) {
    stages::fallback(Result, Result.Nest.FallbackReason);
    return Result;
  }

  Result.Graph = stages::dependence(Ctx, Result.Nest, Result.Name,
                                    Result.Params, DepGraphMode::Monolithic);
  if (Result.Graph.HasUnknownRef ||
      !Result.Graph.edgesOfKind(DepKind::Flow).empty()) {
    stages::fallback(Result, "self-referencing accumulated arrays read "
                             "partially combined values; falling back");
    return Result;
  }

  // Soundness gate: the combining order is unobservable only when no
  // element receives more than one pair.
  stages::arrayAnalyses(Ctx, Result);
  if (Result.Collisions.NoCollisions != CheckOutcome::Proven) {
    stages::fallback(Result,
                     "possible multiple pairs per element: combining order "
                     "must be preserved (interpreter fallback)");
    return Result;
  }

  if (!stages::scheduleArray(Ctx, Result, {}))
    return Result;

  Result.Thunkless = true;
  CoverageAnalysis EffCoverage = Result.Coverage;
  // Untouched elements are the initial value, never "empties".
  EffCoverage.NoEmpties = CheckOutcome::Proven;
  // The gates above proved there are no flow edges and no collisions:
  // every loop of an accumulated array is trivially independent.
  stages::planAndFinish(
      Ctx, Result.Plan,
      [&] {
        ExecPlan Plan =
            buildArrayPlan(Result.Nest, Result.Sched, Result.Name,
                           Result.Dims, Result.Collisions, EffCoverage,
                           Result.ReadBounds);
        Plan.AccumInit = InitValue;
        return Plan;
      },
      {}, Result.Dims, Result.Params);
  return Result;
}

std::optional<CompiledArray>
Compiler::compileArrayInPlace(const std::string &Source,
                              const std::string &ReuseName) {
  HAC_TRACE_SPAN(CompileSpan, "compile");
  if (traceEnabled())
    TraceSink::get().annotate("mode=array-in-place reuse=" + ReuseName);
  stages::StageContext Ctx{Options, Diags};
  auto Result = compileArray(Source);
  if (!Result)
    return std::nullopt;
  Result->ReuseName = ReuseName;
  if (!Result->Nest.Analyzable || Result->Graph.HasUnknownRef ||
      Result->Collisions.NoCollisions == CheckOutcome::Disproven) {
    stages::fallback(*Result, Result->FallbackReason);
    return Result;
  }

  // Antidependences on the reused input join the flow dependences.
  DepGraph AntiGraph = stages::dependence(Ctx, Result->Nest, ReuseName,
                                          Result->Params, DepGraphMode::Update);
  if (AntiGraph.HasUnknownRef) {
    stages::fallback(*Result, AntiGraph.UnknownRefReason);
    return Result;
  }
  DepGraph Combined;
  Combined.NumClauses = Result->Graph.NumClauses;
  for (const DepEdge &E : Result->Graph.Edges)
    if (E.Kind == DepKind::Flow)
      Combined.Edges.push_back(E);
  for (const DepEdge &E : AntiGraph.Edges)
    Combined.Edges.push_back(E);

  Result->InPlaceSched = scheduleUpdate(Result->Nest, Combined);
  // FailingEdges point into the local Combined graph; never expose them.
  Result->InPlaceSched.Sched.FailingEdges.clear();
  if (!Result->InPlaceSched.InPlace) {
    stages::fallback(*Result, Result->InPlaceSched.Reason);
    return Result;
  }

  Result->Thunkless = true;
  std::vector<const DepEdge *> Remaining =
      stages::edgesAfterSplits(Combined.Edges, Result->InPlaceSched.Splits);
  Result->Vectorization =
      analyzeVectorization(Result->InPlaceSched.Sched, Remaining);
  // With storage reuse the alias shares the target's extents, so its
  // reads become provable too.
  Result->ReadBounds = analyzeReadBounds(
      Result->Nest,
      {{Result->Name, Result->Dims}, {ReuseName, Result->Dims}},
      Result->Params);
  CollisionAnalysis EffCollisions = Result->Collisions;
  CoverageAnalysis EffCoverage = Result->Coverage;
  ReadBoundsAnalysis EffReadBounds = Result->ReadBounds;
  stages::maskUnprovenChecks(Ctx, EffCollisions, EffCoverage, EffReadBounds);
  stages::planAndFinish(
      Ctx, Result->Plan,
      [&] {
        return buildInPlaceArrayPlan(Result->Nest, Result->InPlaceSched,
                                     Result->Name, ReuseName, Result->Dims,
                                     EffCollisions, EffCoverage,
                                     EffReadBounds);
      },
      Remaining, Result->Dims, Result->Params);
  Result->Sched = Result->InPlaceSched.Sched;
  return Result;
}

bool CompiledArray::evaluate(DoubleArray &Out, Executor &Exec,
                             std::string &Err) const {
  if (!Thunkless) {
    Err = "array was not compiled thunklessly: " + FallbackReason;
    return false;
  }
  Out.reshape(Dims);
  if (Plan.CheckCollisions || Plan.CheckEmpties)
    Out.enableDefinedBits();
  return Exec.run(Plan, Out, Err);
}

bool CompiledArray::evaluateInPlace(DoubleArray &Target, Executor &Exec,
                                    std::string &Err) const {
  if (!Thunkless || ReuseName.empty()) {
    Err = "array was not compiled for in-place reuse: " + FallbackReason;
    return false;
  }
  if (Target.dims() != Dims) {
    Err = "in-place target has the wrong shape";
    return false;
  }
  if (Plan.CheckCollisions || Plan.CheckEmpties)
    Target.enableDefinedBits();
  return Exec.run(Plan, Target, Err);
}

bool CompiledUpdate::evaluateInPlace(DoubleArray &Target, Executor &Exec,
                                     std::string &Err) const {
  if (!InPlace) {
    Err = "update was not compiled in place: " + FallbackReason;
    return false;
  }
  return Exec.run(Plan, Target, Err);
}

std::string CompiledArray::report() const {
  std::ostringstream OS;
  OS << "=== array '" << Name << "'";
  for (const auto &[Lo, Hi] : Dims)
    OS << " [" << Lo << ".." << Hi << "]";
  OS << " ===\n";
  if (!Nest.Analyzable) {
    OS << "not analyzable: " << Nest.FallbackReason << "\n";
    return OS.str();
  }
  OS << "clauses: " << Nest.numClauses() << ", loops: " << Nest.Loops.size()
     << "\n";
  OS << "dependence graph:\n" << Graph.str();
  OS << "collisions: " << checkOutcomeName(Collisions.NoCollisions);
  if (Collisions.Witness)
    OS << " (" << Collisions.witnessStr() << ")";
  OS << "\n";
  OS << "in-bounds: " << checkOutcomeName(Coverage.InBounds)
     << ", empties: " << checkOutcomeName(Coverage.NoEmpties)
     << " (instances " << Coverage.TotalInstances << " / size "
     << Coverage.ArraySize << ")\n";
  OS << "read-bounds: " << checkOutcomeName(ReadBounds.AllInBounds) << " ("
     << ReadBounds.numProven() << "/" << ReadBounds.Reads.size()
     << " reads proven)\n";
  if (Thunkless) {
    OS << "schedule (thunkless, " << Sched.PassCount << " passes):\n"
       << Sched.str();
    OS << "runtime checks: bounds="
       << (Plan.CheckStoreBounds ? "on" : "off")
       << " collisions=" << (Plan.CheckCollisions ? "on" : "off")
       << " empties=" << (Plan.CheckEmpties ? "on" : "off")
       << " reads=" << (Plan.CheckReadBounds ? "on" : "off") << "\n";
    OS << Vectorization.str();
  } else {
    OS << "thunked fallback: " << FallbackReason << "\n";
  }
  return OS.str();
}

std::string CompiledUpdate::report() const {
  std::ostringstream OS;
  OS << "=== bigupd '" << BaseName << "' ===\n";
  if (!Nest.Analyzable) {
    OS << "not analyzable: " << Nest.FallbackReason << "\n";
    return OS.str();
  }
  OS << "clauses: " << Nest.numClauses() << "\n";
  OS << "dependence graph:\n" << Graph.str();
  if (InPlace) {
    OS << "in place (splits: " << Update.Splits.size()
       << ", extra copies: " << Update.splitCopyCost() << ")\n";
    for (const SplitAction &A : Update.Splits)
      OS << "  " << A.str() << "\n";
    OS << "schedule:\n" << Update.Sched.str();
    OS << Vectorization.str();
  } else {
    OS << "copying fallback: " << FallbackReason << "\n";
  }
  return OS.str();
}
