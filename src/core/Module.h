//===- core/Module.h - Multi-array module compilation -----------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program compilation of modules: programs whose `letrec*` binds
/// several arrays feeding each other, the shape of the paper's intended
/// scientific workloads (smooth-then-residual, staged relaxation):
///
/// \code
///   let n = 100 in
///   letrec* a = array (1,n) [ ... ];
///           b = array (1,n) [ i := a!i ... | ... ];
///           c = array (1,n) [ i := a!i + b!i | ... ]
///   in c
/// \endcode
///
/// The ModuleCompiler builds the inter-array producer->consumer DAG,
/// topologically schedules it (a cycle falls back to the lazy
/// interpreter, which such programs need anyway), compiles each binding
/// through the shared pipeline stages with its siblings' extents known
/// (so cross-array reads are provable), and runs a buffer planner:
/// last-use liveness over the topological order assigns bindings to
/// storage slots so a dead intermediate's buffer is recycled for a later
/// array instead of staying allocated to the end of the run.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CORE_MODULE_H
#define HAC_CORE_MODULE_H

#include "core/Compiler.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hac {

/// One `NAME = array BOUNDS SVLIST` binding of a module, with its edges
/// in the inter-array DAG (indices into CompiledModule::Bindings).
struct ModuleBinding {
  std::string Name;
  CompiledArray Array;
  std::vector<unsigned> Deps;      ///< sibling arrays this one reads
  std::vector<unsigned> Consumers; ///< sibling arrays reading this one
};

/// The static storage plan: which slot each binding writes, derived from
/// last-use liveness over the topological order.
struct BufferPlan {
  std::vector<unsigned> Slot;        ///< binding index -> slot
  std::vector<size_t> BindingBytes;  ///< binding index -> logical bytes
  std::vector<size_t> SlotBytes;     ///< slot -> max bytes over occupants
  /// Topological position after which each binding's storage is dead
  /// (its own position when nothing reads it; the number of bindings for
  /// the result, which is never recycled).
  std::vector<unsigned> LastUse;
  size_t PeakBytes = 0;        ///< sum of SlotBytes: the planned footprint
  size_t NoReusePeakBytes = 0; ///< sum of BindingBytes: the one-buffer-per-
                               ///< array footprint the plan is measured against
  unsigned Reused = 0;         ///< bindings recycling an earlier slot

  unsigned numSlots() const { return static_cast<unsigned>(SlotBytes.size()); }
  std::string str(const std::vector<ModuleBinding> &Bindings) const;
};

/// Everything the pipeline derived about one module.
struct CompiledModule {
  std::string Source; ///< kept for the interpreter fallback
  ExprPtr Ast;
  ParamEnv Params;
  /// Names of outer non-constant bindings and free array names no sibling
  /// defines: expected runtime inputs.
  std::vector<std::string> InputNames;

  std::vector<ModuleBinding> Bindings;
  int ResultIndex = -1;            ///< binding the module body names
  std::vector<unsigned> TopoOrder; ///< producer-before-consumer schedule
  BufferPlan Buffers;              ///< valid only when Thunkless

  /// True when the DAG is acyclic and every binding compiled thunklessly;
  /// otherwise the whole module evaluates under the lazy interpreter.
  bool Thunkless = false;
  std::string FallbackReason;

  const ModuleBinding &result() const { return Bindings[ResultIndex]; }

  /// Module-level analysis report followed by every binding's report.
  std::string report() const;

  /// The inter-array DAG, topological schedule, and buffer plan (the
  /// `hacc -dump-module` payload).
  std::string dumpDag() const;
};

/// Compiles whole multi-array programs; shares the staged pipeline with
/// Compiler and adds the inter-array DAG and buffer planning on top.
class ModuleCompiler {
public:
  explicit ModuleCompiler(CompileOptions Options = CompileOptions());

  DiagnosticEngine &diags() { return Diags; }
  const CompileOptions &options() const { return Options; }

  /// Compiles a module; nullopt on a syntax or structural error
  /// (diagnostics explain). A result with Thunkless == false still
  /// carries the DAG and per-binding analyses, and evaluateModule runs
  /// it under the interpreter.
  std::optional<CompiledModule> compileModule(const std::string &Source);

private:
  CompileOptions Options;
  DiagnosticEngine Diags;
};

/// What one module run did (mirrored onto the trace counters
/// `module.arrays`, `module.buffers_reused`, `module.peak_bytes`).
struct ModuleRunStats {
  unsigned Arrays = 0;
  unsigned BuffersReused = 0;
  size_t PeakBytes = 0;
  size_t NoReusePeakBytes = 0;
  /// Tiered-execution deltas for this run: how many binding executions
  /// ran as JIT-compiled kernels vs the LIR evaluator (zeros when the
  /// executor's JIT mode is off).
  uint64_t JitNativeRuns = 0;
  uint64_t JitInterpRuns = 0;
  uint64_t JitTierSwaps = 0;
};

/// Runs \p M: thunkless modules execute binding-by-binding in
/// topological order on \p Exec (which must carry M.Params), recycling
/// dead intermediate storage per the buffer plan; fallback modules run
/// under the lazy interpreter. \p Inputs supplies M.InputNames. The
/// result lands in \p Out. \p ReuseBuffers = false is the
/// one-buffer-per-array foil the bench and tests compare against.
bool evaluateModule(const CompiledModule &M,
                    const std::map<std::string, const DoubleArray *> &Inputs,
                    Executor &Exec, DoubleArray &Out, std::string &Err,
                    ModuleRunStats *Stats = nullptr,
                    bool ReuseBuffers = true);

} // namespace hac

#endif // HAC_CORE_MODULE_H
