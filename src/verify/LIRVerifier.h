//===- verify/LIRVerifier.h - LIR translation validation --------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-located front end for the LIR abstract interpreter
/// (lir/LIRAbsint.h): replicates the Executor's lowering pipeline over a
/// compiled program's ExecPlan and reports the validator's findings
/// through the DiagnosticEngine under the stable rule IDs HAC009–HAC012.
/// This is the `-verify-lir` layer the Verifier invokes when enabled.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_VERIFY_LIRVERIFIER_H
#define HAC_VERIFY_LIRVERIFIER_H

#include "core/Compiler.h"
#include "lir/LIRAbsint.h"
#include "verify/Rules.h"

#include <array>

namespace hac {

/// Options for one LIR verification run.
struct LIRVerifyOptions {
  /// Mirror the Executor's second-chance check elimination (HAC012
  /// notes for residual checks it deletes).
  bool SecondChance = true;
  /// Fault injection for the golden corpus (hacc -Xverify-inject=...).
  lir::PlanVerifyOptions::Inject Inject = lir::PlanVerifyOptions::Inject::None;
};

/// What one run did: Ran is false when the program has no plan to verify
/// (fallback compilations, or an update whose shape cannot be estimated).
struct LIRVerifyOutcome {
  bool Ran = false;
  /// Hits[N-1] = recorded findings for rule HAC00N (only HAC009–HAC012
  /// slots are ever nonzero).
  std::array<unsigned, kNumRules> Hits{};
  lir::AbsintStats Stats;
  unsigned Eliminated = 0; ///< second-chance deletions (incl. claims)
};

/// Validates a compiled array construction's plan (requires Thunkless).
LIRVerifyOutcome verifyLIR(const CompiledArray &CA, DiagnosticEngine &Diags,
                           const LIRVerifyOptions &Opts = {});

/// Validates a compiled in-place update's plan (requires InPlace; the
/// target shape is estimated from the plan's subscript ranges and the
/// run is skipped when no finite estimate exists).
LIRVerifyOutcome verifyLIR(const CompiledUpdate &CU, DiagnosticEngine &Diags,
                           const LIRVerifyOptions &Opts = {});

} // namespace hac

#endif // HAC_VERIFY_LIRVERIFIER_H
