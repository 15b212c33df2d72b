//===- codegen/CEmitter.h - Emit C code for execution plans -----*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits C for an execution plan: the paper's end product ("in most
/// applications we can remove the main sources of inefficiency that
/// would otherwise prevent performance comparable to Fortran"). The
/// generated code is plain nested DO-loops with direct stores — plus
/// only the runtime checks the analyses could not discharge, and the
/// node-splitting ring buffers / snapshots.
///
/// There is one C printer, emitKernelC, and it renders the sealed Loop
/// IR (src/lir/) the evaluator runs — one C statement per LIR
/// instruction over flat `long long`/`double` slot variables, every
/// residual check and ExecStats counter included. The JIT calls it on
/// the Executor's own program; emitC builds that same program from a
/// plan (lir::buildProgram) and appends a two-argument wrapper, so
/// whatever the evaluator executes is exactly what the C compiler sees.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CODEGEN_CEMITTER_H
#define HAC_CODEGEN_CEMITTER_H

#include "codegen/ExecPlan.h"

#include <map>
#include <string>
#include <vector>

namespace hac {
namespace lir {
struct LIRProgram;
} // namespace lir

/// Error codes the generated function can return.
enum CEmitError : int {
  HAC_OK = 0,
  HAC_ERR_BOUNDS = 1,
  HAC_ERR_COLLISION = 2,
  HAC_ERR_EMPTY = 3,
  HAC_ERR_DIV_ZERO = 4,
  /// A fold over a runtime-valued range whose step evaluated to zero
  /// (the loop would never terminate). The seed backend looped forever
  /// here; the LIR lowering emits an explicit check in both backends.
  HAC_ERR_RANGE_STEP = 5,
};

/// Result of emission.
struct CEmitResult {
  bool OK = false;
  std::string Error; ///< why emission failed (unsupported construct)
  std::string Code;  ///< the full C translation unit
  /// Names of input arrays, in the order the generated function expects
  /// them in its `inputs` argument.
  std::vector<std::string> InputNames;
};

/// Emits C implementing \p Plan over its own Dims: the kernel
/// `NAME_kernel` that emitKernelC renders from the program an Executor
/// with \p Threads threads runs, followed by
///
/// \code
///   int NAME(double *target, const double *const *inputs);
/// \endcode
///
/// where `inputs[k]` is the flat storage of the k-th input array in
/// `CEmitResult::InputNames` order. The wrapper callocs the defined
/// bitmap when the program needs one, calls the kernel without a stats
/// block, sweeps for empties when the plan checks them, and returns 0 on
/// success or one of the HAC_ERR_* codes for a failed runtime check.
/// Compile-time parameters are baked in as constants. \p InputDims
/// optionally supplies the shape of each input array; inputs without an
/// entry are assumed to share the target's shape. Fails (OK == false) on
/// constructs the C backend does not support (e.g. calls to unknown
/// functions).
///
/// With \p Threads > 1 the program keeps the loops legalizeKernel
/// leaves parallel: DOALL loops become `#pragma omp parallel for` over a
/// canonical 0-based counter, and wavefront pairs become an explicit
/// anti-diagonal front loop whose per-front cell loop carries the
/// pragma, with OpenMP pinned to \p Threads. Each iteration or cell
/// re-seeds the loop's carried slots (lir::carriedSlots) from copies
/// saved before the construct. The pragmas are ignored by compilers
/// without OpenMP support, and the parallel code computes the same
/// values in either case. With \p Threads <= 1 the kernel has no OpenMP
/// at all: DOALL loops are plain loops, and each wave pair is swept in
/// strips of eight outer rows, front by front within a strip, with the
/// same per-cell code.
CEmitResult emitC(const ExecPlan &Plan, const std::string &FunctionName,
                  const ParamEnv &Params,
                  const std::map<std::string, ArrayDims> &InputDims = {},
                  unsigned Threads = 1);

/// Options for rendering a JIT kernel (emitKernelC).
struct KernelEmitOptions {
  /// When non-zero the kernel is a parallel one: OpenMP is pinned to
  /// this many threads (matching the evaluator's pool size, so stats
  /// and scheduling are comparable) and the count participates in the
  /// kernel cache key. Zero means a serial kernel: no OpenMP, DOALL
  /// flags ignored, wave pairs swept in strips of rows.
  unsigned Threads = 0;
};

/// Renders an already-lowered, optimized, and sealed LIR program as a
/// native kernel — the only C printer. It runs no pipeline of its own:
/// the caller hands over the exact program the evaluator executes
/// (after lir::legalizeKernel, which also yields Opts.Threads; a serial
/// kernel renders its wave pairs as strips, see emitC) and gets C with
/// the four-argument kernel ABI
///
/// \code
///   int NAME(double *target, const double *const *inputs,
///            unsigned char *defined, unsigned long long *stats);
/// \endcode
///
/// where `defined` is the caller's defined-bits bitmap. The kernel
/// touches it only when the program has a bitmap duty (P.HasDefined:
/// collision or empties checks); the parameter is then `restrict` and
/// must be non-null, and every store marks its cell unconditionally.
/// Otherwise it is ignored and may be null. `stats` is an 8-slot
/// counter block the kernel adds into
/// on every exit path — [loads, stores, ring_saves, snapshot_copies,
/// bounds_checks, collision_checks, guard_evals, fused_iters] — so
/// ExecStats survive the tier swap. Every check renders as a real C
/// check, so the kernel fails exactly when the evaluator would; the
/// empties sweep is left to the caller. Fails (OK == false) on programs
/// containing Fail or CheckDefined instructions.
CEmitResult emitKernelC(const lir::LIRProgram &P,
                        const std::string &FunctionName,
                        const KernelEmitOptions &Opts = {});

} // namespace hac

#endif // HAC_CODEGEN_CEMITTER_H
