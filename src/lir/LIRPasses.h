//===- lir/LIRPasses.h - LIR optimization pipeline --------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR-level pass pipeline shared by both backends. buildProgram()
/// owns the pass order and policy; the Executor evaluates its result and
/// the CEmitter prints the *same* stream (after legalizeKernel), so every
/// pass lands in the in-process runtime and the emitted C simultaneously.
///
///   1. Loop-invariant code motion — pure single-definition computations
///      whose operands are defined outside the loop move to the
///      preheader (innermost-first, so invariants climb out of whole
///      nests).
///   2. Strength reduction — address chains (AddImmI/MulImmI/AddI/SubI)
///      whose value changes by a loop-constant delta per iteration
///      become carried slots: initialized in the preheader, bumped by
///      one AddImmI at the loop tail. Kills the per-element row-major
///      multiply chains. 1 and 2 alternate to a fixpoint.
///   3. Check hoisting — loop-invariant CheckIdx instructions in loops
///      with a static trip count >= 1 move to the preheader.
///   4. IV coalescing — carried slots of one loop that step by the same
///      delta and start a compile-time constant apart are one induction:
///      loads and stores address the leader plus a displacement (Imm1).
///   5. Liveness DCE — pure computations whose results never reach a
///      non-pure instruction are deleted, including carried slots that
///      only feed their own increment.
///   6. Counter folding — same-kind counters of a failure-free run merge,
///      and the counters of a static loop that cannot fail move to its
///      preheader as `increment * trip`. ExecStats totals stay identical
///      on success and at every failure point.
///
/// Each pass is a single sweep over the loops or the stream. Passes run
/// on unsealed code (Jump fields unresolved); call seal() afterwards.
/// Statistics accumulate into the program's Num* fields. No pass reads
/// the par flags, so one program serves every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_LIR_LIRPASSES_H
#define HAC_LIR_LIRPASSES_H

#include "codegen/ExecPlan.h"
#include "lir/LIR.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hac {
namespace lir {

/// Runs the full pipeline in place (passes 1-6). Does not seal.
void optimize(LIRProgram &P);

/// Passes 5 and 6 alone: the tail of optimize(), which secondChance()
/// re-runs after deleting checks (their operands may die, and counters
/// they kept apart may merge and hoist).
void cleanup(LIRProgram &P);

/// Clears the ParPlanner flags from every instruction: the program then
/// renders as plain nested loops (no wave strips, no pragma).
void stripParFlags(LIRProgram &P);

/// The carried slots of the loop whose markers sit at \p Begin and
/// \p End, as (slot, step) pairs: every top-level `%s = addimm %s, step`
/// (step != 0) whose slot has no other write in the loop, the form
/// passes 2 and 4 leave. At the k-th executed iteration (k from 0) such
/// a slot holds `entry + step * k`, so the parallel runtimes re-seed it
/// when a chunk or wavefront cell starts part way through the loop.
std::vector<std::pair<int32_t, int64_t>>
carriedSlots(const LIRProgram &P, size_t Begin, size_t End);
/// The same for the sealed loop at \p Begin.
inline std::vector<std::pair<int32_t, int64_t>>
carriedSlots(const LIRProgram &P, size_t Begin) {
  return carriedSlots(P, Begin, static_cast<size_t>(P.Code[Begin].Jump));
}

/// Parallel legality pass: demotes (clears the flags of) any par-flagged
/// loop whose lowered body contains a construct the parallel runtime
/// cannot execute concurrently — ring saves/loads, snapshot saves,
/// defined-bitmap checks (CheckCollision/CheckDefined), a nested
/// par-flagged loop (the outermost level wins), a wavefront pair a cell
/// cannot rebuild (validateWavePair), or a body-written slot read after
/// the loop. With \p ForC set (the C kernel rules) it additionally
/// demotes loops whose body contains rc-setting checks (CheckIdx/
/// CheckNonZeroI/Fail), because the emitted `goto done` may not jump out
/// of an OpenMP region, and wave pairs whose prelude holds checks or
/// counters; the evaluator handles checks via per-worker error records.
/// Body counters stay legal either way (C renders them as OpenMP
/// reductions). Requires a sealed program; flags stay consistent between
/// LoopBegin and LoopEnd. Idempotent, since demotion only clears flags.
void legalizePar(LIRProgram &P, bool ForC);

/// The evaluator's pipeline knobs (Executor setters of the same names).
struct PipelineOptions {
  bool Optimize = true;     ///< optimize() (passes 1-6)
  bool SecondChance = true; ///< secondChance() after optimize()
  bool ValidateReads = false;     ///< lowerPlan's ValidateReads
  bool AssumeTargetShape = false; ///< lowerPlan's AssumeTargetShape
};

/// The one LIR pipeline: lowerPlan → optimize → secondChance → seal →
/// legalizePar(ForC = false), the same at every thread count (the
/// serial evaluator ignores the par flags). Every consumer of the
/// evaluator's program calls it — the Executor, emitC, hacc -dump-lir —
/// so what the C printer renders is exactly what the evaluator runs.
/// Returns false with \p Err set when sealing fails.
bool buildProgram(const ExecPlan &Plan, const ArrayDims &TargetDims,
                  const ParamEnv &Params,
                  const std::map<std::string, ArrayDims> &InputDims,
                  const PipelineOptions &Opts, LIRProgram &P,
                  std::string &Err);

/// Readies the evaluator's program \p P for the C kernel at \p Threads
/// evaluator threads and re-legalizes it under the stricter C rules
/// (legalizePar(P, true)). A serial kernel (\p Threads <= 1) first
/// drops its DOALL flags and keeps the wave pairs, which the printer
/// sweeps front by front in strips of rows, without OpenMP. Returns the
/// OpenMP thread pin for KernelEmitOptions::Threads, 0 for a serial
/// kernel. The JIT, emitC and hacc's -dump-lir kernel key all go through
/// here.
unsigned legalizeKernel(LIRProgram &P, unsigned Threads);

} // namespace lir
} // namespace hac

#endif // HAC_LIR_LIRPASSES_H
