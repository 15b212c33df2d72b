//===- lir/LIRLowering.h - ExecPlan -> LIR lowering -------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles an ExecPlan into a LIRProgram exactly once. Both backends
/// consume the result of one pipeline (lir::buildProgram in LIRPasses.h):
/// the evaluator interprets it and the C printer renders it. The only
/// lowering knobs are which inputs resolve (AssumeTargetShape) and the
/// schedule-validation checks (ValidateReads).
///
/// Runtime error codes baked into CheckIdx / CheckNonZeroI instructions
/// match codegen/CEmitter.h's CEmitError values.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_LIR_LIRLOWERING_H
#define HAC_LIR_LIRLOWERING_H

#include "codegen/ExecPlan.h"
#include "lir/LIR.h"

#include <map>
#include <string>

namespace hac {
namespace lir {

/// Error codes carried in check instructions (mirrors CEmitError).
enum : int64_t {
  RcBounds = 1,
  RcCollision = 2,
  RcEmpty = 3,
  RcDivZero = 4,
  RcRangeStep = 5,
};

/// Lowers \p Plan against the concrete target shape \p TargetDims (for
/// update plans Plan.Dims may be empty; pass the target array's dims).
/// \p InputDims maps input array names to their shapes. An array absent
/// from the map lowers to a Fail at its use site, unless
/// \p AssumeTargetShape is set: then it becomes an input with the
/// target's shape (emitC's contract for plans emitted without bound
/// inputs). \p ValidateReads adds defined-bitmap checks on every target
/// read plus bounds checks standing in for proven reads. The returned
/// program is NOT yet sealed or optimized — run the pass pipeline
/// (LIRPasses.h) and seal() before use.
LIRProgram lowerPlan(const ExecPlan &Plan, const ArrayDims &TargetDims,
                     const ParamEnv &Params,
                     const std::map<std::string, ArrayDims> &InputDims,
                     bool AssumeTargetShape, bool ValidateReads);

} // namespace lir
} // namespace hac

#endif // HAC_LIR_LIRLOWERING_H
