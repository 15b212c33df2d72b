//===- verify/Verifier.h - Source-located comprehension verifier *- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static verifier: converts the pipeline's analysis facts
/// (collision/coverage/read-bounds verdicts, nest structure, fallback
/// state) into source-located diagnostics tagged with the stable HACNNN
/// rule IDs of verify/Rules.h. Findings are reported through a
/// DiagnosticEngine, so per-rule disabling (`-Wno-hacNNN`) and
/// warnings-as-errors apply; witnesses (collision clause pairs, direction
/// vectors, concrete out-of-bounds indices) attach as notes.
///
/// The verifier adds no new whole-program analysis of its own except the
/// dead-clause check (HAC006), which it derives directly from the clause
/// tree so it works for both array constructions and in-place updates.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_VERIFY_VERIFIER_H
#define HAC_VERIFY_VERIFIER_H

#include "core/Compiler.h"
#include "verify/LIRVerifier.h"
#include "verify/Rules.h"

#include <array>
#include <optional>

namespace hac {

/// Per-rule finding counts from one verifier run.
struct VerifyResult {
  /// Hits[N-1] = number of recorded findings for rule HAC00N. Findings
  /// dropped by -Wno-hacNNN are not counted.
  std::array<unsigned, kNumRules> Hits{};

  unsigned hits(RuleID Id) const {
    return Id == RuleID::None ? 0 : Hits[static_cast<unsigned>(Id) - 1];
  }
  unsigned total() const {
    unsigned N = 0;
    for (unsigned H : Hits)
      N += H;
    return N;
  }
};

/// Runs the rule checks over one compiled program and reports findings
/// into a DiagnosticEngine.
class Verifier {
public:
  explicit Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}

  /// Enables the LIR verification layer (HAC009–HAC012): translation
  /// validation of dropped checks, static race checking of par-flagged
  /// loops, and second-chance elimination notes, run over a replica of
  /// the Executor pipeline (one program at every thread count). Off by
  /// default so plain Verifier runs keep reporting only the plan-level
  /// rules; `hacc -analyze` turns it on (`-no-verify-lir` opts out).
  void enableLIRVerify(const LIRVerifyOptions &Opts) { LIROptions = Opts; }

  /// Verifies an array construction (also covers accumArray and the
  /// storage-reuse case, which produce CompiledArray).
  VerifyResult verify(const CompiledArray &CA);

  /// Verifies a `bigupd` in-place update. The updated array's extents are
  /// runtime values, so the write/read range rules mostly stay silent;
  /// dead clauses, non-affine subscripts, and fallbacks still fire.
  VerifyResult verify(const CompiledUpdate &CU);

private:
  DiagnosticEngine &Diags;
  VerifyResult Result;
  std::optional<LIRVerifyOptions> LIROptions;

  /// Folds one LIR verification outcome into the per-rule hit counts
  /// and the verify.hacNNN trace counters.
  void foldLIR(const LIRVerifyOutcome &Out);

  /// Reports \p D (tagged with a rule) through the engine; bumps the
  /// per-rule hit count and the `verify.hacNNN` trace counter when the
  /// engine records it.
  void emit(Diagnostic D);

  void checkNonAffineWrites(const CoverageAnalysis &Coverage);
  void checkCollisions(const CollisionAnalysis &Collisions);
  void checkCoverage(const std::string &Name,
                     const CoverageAnalysis &Coverage);
  void checkWriteBounds(const CoverageAnalysis &Coverage);
  void checkReads(const ReadBoundsAnalysis &Reads);
  void checkDeadClauses(const CompNest &Nest, const ParamEnv &Params);
  void checkFallback(bool Compiled, const std::string &Reason);
  /// HAC008: notes every loop the parallel planner left serial, quoting
  /// its blocking witness. Only meaningful on plans the planner has seen
  /// (Thunkless / InPlace); callers skip it otherwise.
  void checkParallel(const ExecPlan &Plan);
  /// HAC013/HAC014: surfaces the dependence graph's precision-audit
  /// evidence — reference pairs where Omega out-proved GCD/Banerjee
  /// (HAC013) and pairs whose Omega query exhausted its step budget
  /// (HAC014, witnessing the constraint system).
  void checkDependencePrecision(const DepGraph &Graph);
};

} // namespace hac

#endif // HAC_VERIFY_VERIFIER_H
