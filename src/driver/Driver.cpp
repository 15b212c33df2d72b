//===- driver/Driver.cpp - One program-kind decision ----------------------===//

#include "driver/Driver.h"

#include "codegen/ShapeEstimate.h"
#include "core/PipelineStages.h"
#include "frontend/Parser.h"
#include "support/Casting.h"

#include <algorithm>

using namespace hac;

const char *hac::programKindName(ProgramKind K) {
  switch (K) {
  case ProgramKind::Array:
    return "array";
  case ProgramKind::Accum:
    return "accum";
  case ProgramKind::Update:
    return "update";
  case ProgramKind::Module:
    return "module";
  }
  return "array";
}

std::optional<ProgramKind> hac::classifyProgram(const std::string &Source,
                                                DiagnosticEngine &Diags) {
  ExprPtr Ast = parseString(Source, Diags);
  if (!Ast)
    return std::nullopt;
  ParamEnv Params;
  std::vector<std::string> InputNames;
  const Expr *E = stages::stripOuterLets(Ast.get(), Params, InputNames);
  // The candidates for the target: the peeled expression itself, or the
  // bindings of the let it stopped at.
  std::vector<const Expr *> Targets;
  if (const auto *L = dyn_cast<LetExpr>(E))
    for (const LetBind &B : L->binds())
      Targets.push_back(B.Value.get());
  else
    Targets.push_back(E);
  unsigned Arrays = 0;
  bool Accum = false, Update = false;
  for (const Expr *T : Targets) {
    Arrays += isa<MakeArrayExpr>(T);
    Accum |= isa<AccumArrayExpr>(T);
    Update |= isa<BigUpdExpr>(T);
  }
  if (Arrays >= 2)
    return ProgramKind::Module;
  if (Accum)
    return ProgramKind::Accum;
  if (Update)
    return ProgramKind::Update;
  return ProgramKind::Array;
}

ProgramCompiler::ProgramCompiler(ProgramKind K, CompileOptions Options)
    : K(K), C(Options), MC(Options) {}

DiagnosticEngine &ProgramCompiler::diags() {
  return K == ProgramKind::Module ? MC.diags() : C.diags();
}

bool ProgramCompiler::compile(const std::string &Source) {
  switch (K) {
  case ProgramKind::Array:
    Array = C.compileArray(Source);
    return Array.has_value();
  case ProgramKind::Accum:
    Array = C.compileAccum(Source);
    return Array.has_value();
  case ProgramKind::Update:
    Update = C.compileUpdate(Source);
    // The updated array's extents are runtime values; a driver that runs
    // the update, or prints its C, needs the shape its subscripts cover.
    if (Update && Update->InPlace && Update->Plan.Dims.empty()) {
      ArrayDims Dims;
      if (estimateUpdateDims(Update->Plan, Update->Params, Dims))
        Update->Plan.Dims = std::move(Dims);
    }
    return Update.has_value();
  case ProgramKind::Module:
    Module = MC.compileModule(Source);
    return Module.has_value();
  }
  return false;
}

bool ProgramCompiler::thunkless() const {
  if (Update)
    return Update->InPlace;
  return Module ? Module->Thunkless : Array->Thunkless;
}

const std::string &ProgramCompiler::fallbackReason() const {
  if (Update)
    return Update->FallbackReason;
  return Module ? Module->FallbackReason : Array->FallbackReason;
}

const ParamEnv &ProgramCompiler::params() const {
  if (Update)
    return Update->Params;
  return Module ? Module->Params : Array->Params;
}

std::string ProgramCompiler::report() const {
  if (Update)
    return Update->report();
  return Module ? Module->report() : Array->report();
}

std::vector<ProgramPart> ProgramCompiler::parts() const {
  if (Update)
    return {{&Update->BaseName, &Update->Graph, &Update->Plan,
             &Update->Params}};
  if (Array)
    return {{&Array->Name, &Array->Graph, &Array->Plan, &Array->Params}};
  std::vector<ProgramPart> Parts;
  for (unsigned B : Module->TopoOrder) {
    const ModuleBinding &MB = Module->Bindings[B];
    Parts.push_back(
        {&MB.Name, &MB.Array.Graph, &MB.Array.Plan, &MB.Array.Params});
  }
  return Parts;
}

DoubleArray ProgramCompiler::startState() const {
  if (Module)
    return DoubleArray(Module->result().Array.Dims);
  if (Array) {
    DoubleArray Start(Array->Dims);
    if (Array->Plan.AccumInit)
      std::fill_n(Start.data(), Start.size(), *Array->Plan.AccumInit);
    return Start;
  }
  DoubleArray Start(Update->Plan.Dims);
  for (size_t I = 0, N = Start.size(); I != N; ++I)
    Start[I] = 1.0 + 0.25 * static_cast<double>(I % 7);
  return Start;
}

bool ProgramCompiler::run(Executor &Exec, DoubleArray &Out, std::string &Err,
                          ModuleRunStats *Stats) const {
  if (Module)
    return evaluateModule(*Module, {}, Exec, Out, Err, Stats);
  if (Array)
    return Array->evaluate(Out, Exec, Err);
  if (Update->Plan.Dims.empty()) {
    Err = "cannot derive the update target's shape from its subscripts";
    return false;
  }
  Out = startState();
  return Update->evaluateInPlace(Out, Exec, Err);
}
