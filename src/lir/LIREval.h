//===- lir/LIREval.h - LIR evaluator ----------------------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact LIR evaluator: a program counter over the sealed
/// instruction stream and a flat register file. No AST dispatch, no
/// name lookups, no per-element multiply chains — the hot path is one
/// switch on a small opcode.
///
/// With a thread pool, loops the ParPlanner flagged (and legalizePar
/// kept) execute in parallel: DOALL loops block-partition their
/// iteration space, wavefront pairs sweep anti-diagonal fronts with a
/// barrier per front. Each task runs on a private copy of the register
/// file and accumulates ExecStats counters locally; the merged totals
/// are bit-identical to the serial run because every thread count runs
/// the same counter instructions and iteration sets are exactly
/// partitioned.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_LIR_LIREVAL_H
#define HAC_LIR_LIREVAL_H

#include "lir/LIR.h"
#include "parallel/ThreadPool.h"
#include "runtime/DoubleArray.h"
#include "runtime/ExecStats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hac {
namespace lir {

/// One loop's execution totals for a single evalLIR run, indexed like
/// LIRProgram::Loops. All counts are *inclusive* (a loop is charged for
/// everything dispatched between its entry and its exit, nested loops
/// included).
struct LoopProfile {
  uint64_t Entries = 0; ///< entries that executed at least one trip
  uint64_t Trips = 0;   ///< iterations executed
  uint64_t Instrs = 0;  ///< LIR instructions dispatched
  uint64_t Checks = 0;  ///< Check* instructions executed
  uint64_t Nanos = 0;   ///< inclusive wall time
};

/// A whole run's profile. On a successful run Entries/Trips/Instrs/
/// Checks are the serial execution's exact counts regardless of thread
/// count: parallel loops merge their tasks' measured body counts and
/// add the loop-header overhead analytically (see LIREval.cpp). Nanos
/// is measured wall time and varies. After a failed run the counts
/// cover only what executed — no cross-thread identity is promised.
struct EvalProfile {
  std::vector<LoopProfile> Loops; ///< parallel to LIRProgram::Loops
  uint64_t RootInstrs = 0;        ///< whole-program dispatched instructions
  uint64_t RootChecks = 0;
  uint64_t RootNanos = 0;
};

/// Runs a sealed \p P against \p Target. \p Inputs are raw base
/// pointers in LIRProgram::InputNames order; \p Rings / \p Snaps must be
/// pre-sized to RingSizes / SnapSizes. Counters accumulate into
/// \p Stats on success and on failure (matching the seed executor,
/// which counted events up to the point of the error). Returns false
/// with \p Err set on the first runtime error; with a pool, "first"
/// means the lexicographically first failing iteration, so the message
/// is deterministic across thread counts. \p Pool enables parallel
/// execution of par-flagged loops; null (or a 1-thread pool) runs
/// everything serially. \p Prof, when non-null, is overwritten with
/// this run's per-loop profile (the profiled interpreter is a separate
/// template instantiation, so passing null costs nothing on the hot
/// path).
bool evalLIR(const LIRProgram &P, DoubleArray &Target,
             const std::vector<const double *> &Inputs,
             std::vector<std::vector<double>> &Rings,
             std::vector<std::vector<double>> &Snaps, ExecStats &Stats,
             std::string &Err, par::ThreadPool *Pool = nullptr,
             EvalProfile *Prof = nullptr);

} // namespace lir
} // namespace hac

#endif // HAC_LIR_LIREVAL_H
