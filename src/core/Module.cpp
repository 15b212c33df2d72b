//===- core/Module.cpp - Multi-array module compilation -------------------===//

#include "core/Module.h"

#include "ast/ASTUtils.h"
#include "core/InterpBridge.h"
#include "core/PipelineStages.h"
#include "interp/Interp.h"
#include "runtime/BufferPool.h"
#include "support/Casting.h"
#include "support/Trace.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace hac;

ModuleCompiler::ModuleCompiler(CompileOptions Options)
    : Options(std::move(Options)) {}

namespace {

/// Greedy last-use buffer planning over the topological order: a slot is
/// free for the binding at position P when its occupant's storage died
/// before P, and among free slots the smallest one already large enough
/// is preferred (best fit keeps the footprint tight).
BufferPlan planBuffers(const std::vector<ModuleBinding> &Bindings,
                       const std::vector<unsigned> &Topo, int ResultIndex) {
  const unsigned N = static_cast<unsigned>(Bindings.size());
  std::vector<unsigned> Pos(N, 0);
  for (unsigned P = 0; P != Topo.size(); ++P)
    Pos[Topo[P]] = P;

  BufferPlan Plan;
  Plan.Slot.assign(N, 0);
  Plan.BindingBytes.assign(N, 0);
  Plan.LastUse.assign(N, 0);
  for (unsigned B = 0; B != N; ++B) {
    size_t Elems = 1;
    for (const auto &[Lo, Hi] : Bindings[B].Array.Dims)
      Elems *= Hi >= Lo ? static_cast<size_t>(Hi - Lo + 1) : 0;
    Plan.BindingBytes[B] = Elems * sizeof(double);
    Plan.NoReusePeakBytes += Plan.BindingBytes[B];
    unsigned Last = Pos[B];
    for (unsigned C : Bindings[B].Consumers)
      Last = std::max(Last, Pos[C]);
    // The result is handed to the caller: its storage is never recycled.
    if (static_cast<int>(B) == ResultIndex)
      Last = N;
    Plan.LastUse[B] = Last;
  }

  std::vector<unsigned> Occupant; // slot -> binding currently assigned
  for (unsigned P = 0; P != Topo.size(); ++P) {
    unsigned B = Topo[P];
    int Chosen = -1;
    // The result is written straight into the caller's storage at run
    // time, so recycling a slot for it would claim savings the runtime
    // can't deliver: it always gets a fresh slot.
    const bool IsResult = static_cast<int>(B) == ResultIndex;
    for (unsigned S = 0; !IsResult && S != Occupant.size(); ++S) {
      if (Plan.LastUse[Occupant[S]] >= P)
        continue; // occupant still live at this position
      if (Chosen < 0) {
        Chosen = static_cast<int>(S);
        continue;
      }
      bool ChosenFits = Plan.SlotBytes[Chosen] >= Plan.BindingBytes[B];
      bool SFits = Plan.SlotBytes[S] >= Plan.BindingBytes[B];
      if (SFits && (!ChosenFits || Plan.SlotBytes[S] < Plan.SlotBytes[Chosen]))
        Chosen = static_cast<int>(S);
    }
    if (Chosen < 0) {
      Chosen = static_cast<int>(Occupant.size());
      Occupant.push_back(B);
      Plan.SlotBytes.push_back(0);
    } else {
      Occupant[Chosen] = B;
      ++Plan.Reused;
    }
    Plan.Slot[B] = static_cast<unsigned>(Chosen);
    Plan.SlotBytes[Chosen] =
        std::max(Plan.SlotBytes[Chosen], Plan.BindingBytes[B]);
  }
  for (size_t SB : Plan.SlotBytes)
    Plan.PeakBytes += SB;
  return Plan;
}

std::string joinNames(const std::vector<ModuleBinding> &Bindings,
                      const std::vector<unsigned> &Indices) {
  std::string Out;
  for (unsigned I : Indices) {
    if (!Out.empty())
      Out += ", ";
    Out += Bindings[I].Name;
  }
  return Out.empty() ? "-" : Out;
}

} // namespace

std::optional<CompiledModule>
ModuleCompiler::compileModule(const std::string &Source) {
  HAC_TRACE_SPAN(CompileSpan, "compile");
  if (traceEnabled())
    TraceSink::get().annotate("mode=module");
  stages::StageContext Ctx{Options, Diags};

  CompiledModule M;
  M.Source = Source;
  M.Params = Options.Params;
  M.Ast = stages::parse(Ctx, Source);
  if (!M.Ast)
    return std::nullopt;
  const Expr *E = stages::stripOuterLets(M.Ast.get(), M.Params, M.InputNames);

  const auto *L = dyn_cast<LetExpr>(E);
  if (!L) {
    Diags.error(E->loc(), "module program must define its arrays in a "
                          "letrec* of array bindings");
    return std::nullopt;
  }

  // Collect the array bindings. Non-array bindings demote the module to
  // the interpreter (letrec* is strict, so they still evaluate there)
  // except constant integers, which join the parameters.
  std::vector<const MakeArrayExpr *> Makes;
  for (const LetBind &B : L->binds()) {
    if (const auto *Make = dyn_cast<MakeArrayExpr>(B.Value.get())) {
      for (const ModuleBinding &Prev : M.Bindings)
        if (Prev.Name == B.Name) {
          Diags.error(B.Loc, "duplicate array binding '" + B.Name + "'");
          return std::nullopt;
        }
      ModuleBinding MB;
      MB.Name = B.Name;
      M.Bindings.push_back(std::move(MB));
      Makes.push_back(Make);
      continue;
    }
    int64_t V;
    if (!isa<AccumArrayExpr>(B.Value.get()) &&
        tryEvalConstInt(B.Value.get(), M.Params, V)) {
      M.Params[B.Name] = V;
      continue;
    }
    if (M.FallbackReason.empty())
      M.FallbackReason =
          isa<AccumArrayExpr>(B.Value.get())
              ? "binding '" + B.Name + "' is an accumArray: module "
                "compilation handles plain array bindings only"
              : "binding '" + B.Name + "' is not an array construction";
    ModuleBinding MB;
    MB.Name = B.Name;
    M.Bindings.push_back(std::move(MB));
    Makes.push_back(nullptr);
  }
  if (M.Bindings.empty()) {
    Diags.error(L->loc(), "module letrec* has no array bindings");
    return std::nullopt;
  }

  // The module result is the binding the body names.
  const auto *BodyVar = dyn_cast<VarExpr>(L->body());
  if (BodyVar)
    for (unsigned B = 0; B != M.Bindings.size(); ++B)
      if (M.Bindings[B].Name == BodyVar->name())
        M.ResultIndex = static_cast<int>(B);
  if (M.ResultIndex < 0) {
    Diags.error(L->body()->loc(),
                "module body must name one of the array bindings");
    return std::nullopt;
  }

  // Inter-array DAG: a sibling name free in a binding's value is a read
  // of that array. Free names that are neither parameters nor siblings
  // are runtime inputs.
  std::map<std::string, unsigned> Index;
  for (unsigned B = 0; B != M.Bindings.size(); ++B)
    Index[M.Bindings[B].Name] = B;
  for (unsigned B = 0; B != M.Bindings.size(); ++B) {
    if (!Makes[B])
      continue;
    for (const std::string &Name : freeVars(Makes[B])) {
      if (Name == M.Bindings[B].Name || M.Params.count(Name))
        continue;
      auto It = Index.find(Name);
      if (It != Index.end()) {
        M.Bindings[B].Deps.push_back(It->second);
        M.Bindings[It->second].Consumers.push_back(B);
      } else if (std::find(M.InputNames.begin(), M.InputNames.end(), Name) ==
                 M.InputNames.end()) {
        M.InputNames.push_back(Name);
      }
    }
  }

  // Topological schedule (Kahn, smallest binding index first so the
  // order — and therefore the buffer plan — is deterministic).
  {
    std::vector<unsigned> Remaining(M.Bindings.size(), 0);
    std::set<unsigned> Ready;
    for (unsigned B = 0; B != M.Bindings.size(); ++B) {
      Remaining[B] = static_cast<unsigned>(M.Bindings[B].Deps.size());
      if (Remaining[B] == 0)
        Ready.insert(B);
    }
    while (!Ready.empty()) {
      unsigned B = *Ready.begin();
      Ready.erase(Ready.begin());
      M.TopoOrder.push_back(B);
      for (unsigned C : M.Bindings[B].Consumers)
        if (--Remaining[C] == 0)
          Ready.insert(C);
    }
    if (M.TopoOrder.size() != M.Bindings.size() && M.FallbackReason.empty()) {
      std::string Cyclic;
      for (unsigned B = 0; B != M.Bindings.size(); ++B)
        if (Remaining[B] != 0)
          Cyclic += (Cyclic.empty() ? "" : ", ") + M.Bindings[B].Name;
      M.FallbackReason = "inter-array dependence cycle among: " + Cyclic;
      Diags.warning(L->loc(), "module has an inter-array dependence cycle "
                              "(" + Cyclic + "); falling back to the lazy "
                              "interpreter");
    }
  }

  // Per-binding bounds first, so every compile sees all sibling extents
  // and can prove cross-array reads in bounds.
  std::map<std::string, ArrayDims> Extents;
  for (unsigned B = 0; B != M.Bindings.size(); ++B) {
    if (!Makes[B])
      continue;
    M.Bindings[B].Array.Name = M.Bindings[B].Name;
    M.Bindings[B].Array.Params = M.Params;
    if (!stages::arrayBoundsToDims(Ctx, Makes[B]->bounds(), M.Params,
                                   M.Bindings[B].Array.Dims))
      return std::nullopt;
    Extents[M.Bindings[B].Name] = M.Bindings[B].Array.Dims;
  }

  // Compile every binding through the shared stages, producers first.
  // Bindings outside the topological order (cycle participants) are
  // compiled too so the report still carries their analyses.
  std::vector<unsigned> CompileOrder = M.TopoOrder;
  for (unsigned B = 0; B != M.Bindings.size(); ++B)
    if (std::find(CompileOrder.begin(), CompileOrder.end(), B) ==
        CompileOrder.end())
      CompileOrder.push_back(B);
  for (unsigned B : CompileOrder) {
    if (!Makes[B])
      continue;
    HAC_TRACE_SPAN(BindingSpan, "module.binding");
    if (traceEnabled())
      TraceSink::get().annotate(M.Bindings[B].Name);
    stages::compileArrayBinding(Ctx, M.Bindings[B].Array, Makes[B], Extents);
    if (!M.Bindings[B].Array.Thunkless && M.FallbackReason.empty())
      M.FallbackReason = "binding '" + M.Bindings[B].Name +
                         "': " + M.Bindings[B].Array.FallbackReason;
  }

  M.Thunkless =
      M.FallbackReason.empty() && M.TopoOrder.size() == M.Bindings.size();
  if (M.Thunkless)
    M.Buffers = planBuffers(M.Bindings, M.TopoOrder, M.ResultIndex);
  if (traceEnabled())
    TraceSink::get().annotate(M.Thunkless
                                  ? "module thunkless"
                                  : "module fallback: " + M.FallbackReason);
  return M;
}

std::string BufferPlan::str(const std::vector<ModuleBinding> &Bindings) const {
  std::ostringstream OS;
  OS << "buffer plan: " << Slot.size() << " arrays in " << numSlots()
     << " slots (" << Reused << " reused), peak " << PeakBytes
     << " B (no-reuse " << NoReusePeakBytes << " B)\n";
  for (unsigned B = 0; B != Slot.size(); ++B) {
    OS << "  " << Bindings[B].Name << " -> slot " << Slot[B] << " ("
       << BindingBytes[B] << " B), ";
    if (LastUse[B] >= Slot.size())
      OS << "result\n";
    else
      OS << "dead after position " << LastUse[B] << "\n";
  }
  return OS.str();
}

std::string CompiledModule::dumpDag() const {
  std::ostringstream OS;
  OS << "module: " << Bindings.size() << " arrays, result '"
     << Bindings[ResultIndex].Name << "'\n";
  for (const ModuleBinding &B : Bindings) {
    OS << "  " << B.Name;
    for (const auto &[Lo, Hi] : B.Array.Dims)
      OS << " [" << Lo << ".." << Hi << "]";
    OS << ": reads {" << joinNames(Bindings, B.Deps) << "}, read by {"
       << joinNames(Bindings, B.Consumers) << "}\n";
  }
  if (TopoOrder.size() == Bindings.size()) {
    OS << "topo order:";
    for (unsigned B : TopoOrder)
      OS << " " << Bindings[B].Name;
    OS << "\n";
  }
  if (Thunkless)
    OS << Buffers.str(Bindings);
  else
    OS << "interpreter fallback: " << FallbackReason << "\n";
  return OS.str();
}

std::string CompiledModule::report() const {
  std::ostringstream OS;
  OS << "=== module (" << Bindings.size() << " arrays) ===\n" << dumpDag();
  for (const ModuleBinding &B : Bindings)
    OS << B.Array.report();
  return OS.str();
}

bool hac::evaluateModule(
    const CompiledModule &M,
    const std::map<std::string, const DoubleArray *> &Inputs, Executor &Exec,
    DoubleArray &Out, std::string &Err, ModuleRunStats *Stats,
    bool ReuseBuffers) {
  HAC_TRACE_SPAN(RunSpan, "module.run");
  HAC_TRACE_COUNT("module.arrays", M.Bindings.size());
  if (Stats)
    Stats->Arrays = static_cast<unsigned>(M.Bindings.size());

  if (!M.Thunkless) {
    // Whole-module interpreter fallback: cycles and non-thunkless
    // bindings keep the reference semantics.
    Interpreter Interp;
    Interp.setFuel(500'000'000);
    DiagnosticEngine FallbackDiags;
    ValuePtr V = runThunked(M.Source, Inputs, Interp, FallbackDiags);
    if (V->isError()) {
      Err = V->str();
      return false;
    }
    auto Converted = interpArrayToDouble(Interp, V, Err);
    if (!Converted)
      return false;
    Out = std::move(*Converted);
    return true;
  }

  for (const std::string &Name : M.InputNames)
    if (!Inputs.count(Name)) {
      Err = "module input '" + Name + "' was not bound";
      return false;
    }
  // Bindings from an earlier module run point into that run's pool
  // storage, which is gone; start from a clean input environment.
  Exec.clearInputs();
  for (const auto &[Name, Array] : Inputs)
    Exec.bindInput(Name, Array);

  const unsigned N = static_cast<unsigned>(M.Bindings.size());
  const JitExecStats JitBefore = Exec.jitStats();
  BufferPool Pool(ReuseBuffers ? M.Buffers.numSlots() : N);
  for (unsigned P = 0; P != M.TopoOrder.size(); ++P) {
    unsigned B = M.TopoOrder[P];
    const CompiledArray &A = M.Bindings[B].Array;
    DoubleArray *Dst;
    if (static_cast<int>(B) == M.ResultIndex) {
      // The result writes straight into the caller's array, outside the
      // pool (its storage outlives the run, and is kept across runs when
      // the shape matches).
      Out.reshape(A.Dims);
      Pool.noteExternal(Out.size() * sizeof(double));
      Dst = &Out;
    } else {
      Dst = &Pool.acquire(ReuseBuffers ? M.Buffers.Slot[B] : B, A.Dims);
    }
    if (A.Plan.CheckCollisions || A.Plan.CheckEmpties)
      Dst->enableDefinedBits();
    {
      HAC_TRACE_SPAN(BindingSpan, "module.binding");
      if (traceEnabled())
        TraceSink::get().annotate(A.Name);
      if (!Exec.run(A.Plan, *Dst, Err)) {
        Err = "module binding '" + A.Name + "': " + Err;
        return false;
      }
    }
    // Later bindings read this array as a plain runtime input.
    Exec.bindInput(A.Name, Dst);
  }

  HAC_TRACE_COUNT("module.buffers_reused", Pool.reuses());
  if (traceEnabled())
    TraceSink::get().countMax("module.peak_bytes", Pool.peakBytes());
  if (Stats) {
    Stats->BuffersReused = Pool.reuses();
    Stats->PeakBytes = Pool.peakBytes();
    Stats->NoReusePeakBytes = M.Buffers.NoReusePeakBytes;
    const JitExecStats &JitAfter = Exec.jitStats();
    Stats->JitNativeRuns = JitAfter.NativeRuns - JitBefore.NativeRuns;
    Stats->JitInterpRuns = JitAfter.InterpRuns - JitBefore.InterpRuns;
    Stats->JitTierSwaps = JitAfter.TierSwaps - JitBefore.TierSwaps;
  }
  return true;
}
