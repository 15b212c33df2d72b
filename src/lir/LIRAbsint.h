//===- lir/LIRAbsint.h - Abstract interpretation over the LIR ---*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotone dataflow framework over the region-structured LIR with two
/// composable abstract domains on integer slots:
///
///   * value ranges — intervals [Lo, Hi] with a known-nonzero bit,
///     widened at loop headers after the first body pass so nests
///     converge in a bounded number of iterations; static loop induction
///     variables, ordinals, and strength-reduced carried slots are pinned
///     to their exact iteration hulls and never widened;
///   * affine congruence — each slot as `c + sum(coeff_k * iv_k)` over
///     the induction variables of the enclosing loops (stride/offset
///     forms), which survives the optimizer because strength reduction's
///     carried slots are re-recognized as derived induction variables.
///
/// Three clients sit on top of the engine:
///
///   1. the translation validator: every check the front end dropped as
///      "proven" reaches the LIR as a CheckIdx carrying FlagProvenClaim;
///      the validator must re-derive the containment on the *post-pass*
///      stream or the elimination is reported unsound (HAC009,
///      guilty-until-proven). Write-disjointness claims
///      (Plan.CheckCollisions dropped) are re-checked from per-iteration
///      store footprints.
///   2. the static race checker: par-flagged loops whose congruence-form
///      write footprints provably overlap across iterations (DOALL,
///      HAC010) or across cells of one anti-diagonal front (wavefront,
///      HAC011) are reported independently of the ParPlanner's DepGraph.
///      Carried slots (lir::carriedSlots) are derived induction
///      variables, so strength-reduced addresses stay affine.
///   3. the second-chance eliminator: residual CheckIdx / CheckNonZeroI
///      instructions whose incoming range is proven inside the checked
///      set *after* LICM and strength reduction are deleted, with one
///      HAC012 note per elimination. Collision and definedness checks
///      are never touched; after a deletion the DCE and counter folding
///      passes re-run (lir::cleanup), which keep ExecStats totals
///      identical on success and at every failure point.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_LIR_LIRABSINT_H
#define HAC_LIR_LIRABSINT_H

#include "lir/LIRLowering.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hac {

class DiagnosticEngine;

namespace lir {

/// One integer slot's value range. INT64_MIN / INT64_MAX double as the
/// unbounded markers; NZ records "provably nonzero" even when the
/// interval straddles zero. Lo > Hi is the empty (unreachable) range.
struct Interval {
  int64_t Lo = INT64_MIN;
  int64_t Hi = INT64_MAX;
  bool NZ = false;

  bool empty() const { return Lo > Hi; }
  bool top() const { return Lo == INT64_MIN && Hi == INT64_MAX && !NZ; }
  bool excludesZero() const { return NZ || Lo > 0 || Hi < 0; }
  bool within(int64_t L, int64_t H) const {
    return empty() || (Lo >= L && Hi <= H);
  }
  bool operator==(const Interval &O) const {
    return Lo == O.Lo && Hi == O.Hi && NZ == O.NZ;
  }
  std::string str() const;
};

/// Validator / race-checker finding kinds (map to HAC009–HAC011).
enum class LirFindingKind : uint8_t {
  UnsoundElimination,  ///< HAC009
  DoallOverlap,        ///< HAC010
  WaveCrossFront,      ///< HAC011
};

/// One finding, anchored at the enclosing loop's source attribution
/// (Line == 0 when the instruction sits outside any attributed loop).
struct LirFinding {
  LirFindingKind Kind = LirFindingKind::UnsoundElimination;
  std::string Message;
  uint32_t Line = 0;
  uint32_t Col = 0;
};

/// Aggregate proof statistics (the lir.absint.* trace counters).
struct AbsintStats {
  uint64_t ClaimsProven = 0;   ///< FlagProvenClaim checks re-derived
  uint64_t ClaimsUnproven = 0; ///< ... not re-derived (HAC009)
  uint64_t ChecksProven = 0;   ///< residual checks proven redundant
  uint64_t ChecksRemaining = 0;
  uint64_t LoadsProven = 0;    ///< LoadT addresses proven in range
  uint64_t LoadsUnproven = 0;  ///< counted silently, never a finding
  uint64_t ParStores = 0;      ///< stores examined under par flags
  uint64_t ParUnproven = 0;    ///< par footprints the domain can't see
};

/// What the analyzer checks on top of computing ranges.
struct AnalyzeOptions {
  /// Validate FlagProvenClaim checks (HAC009 on failure).
  bool CheckClaims = true;
  /// Check par-flagged loop footprints (HAC010 / HAC011).
  bool CheckRaces = true;
  /// Re-derive write disjointness: with the collision check dropped,
  /// an unconditional store whose footprint repeats across iterations
  /// of a trip >= 2 loop is an unsound elimination (HAC009). Callers
  /// enable this only for construction plans that dropped the check;
  /// read-modify-write stores (accumArray reductions) are exempt.
  bool CheckWriteDisjoint = false;
};

/// One full analysis result.
struct AbsintResult {
  /// Join of every value each slot was assigned on the recorded pass
  /// (float slots stay top). Indexed by slot; hacc -dump-lir prints it.
  std::vector<Interval> SlotRanges;
  std::vector<LirFinding> Findings;
  AbsintStats Stats;
};

/// Runs the abstract interpretation over \p P (sealed or unsealed; only
/// the region structure is consulted) and returns ranges, findings, and
/// proof statistics. Read-only.
AbsintResult analyze(const LIRProgram &P, const AnalyzeOptions &Opts);

/// One check deleted by the second-chance pass (a HAC012 witness).
struct SecondChanceNote {
  std::string CheckMsg; ///< the check's message string
  std::string LoopVar;  ///< enclosing attributed loop ("" at top level)
  uint32_t Line = 0;    ///< enclosing loop's source location
  uint32_t Col = 0;
  int64_t Lo = 0, Hi = 0;           ///< proven incoming range
  int64_t CheckLo = 0, CheckHi = 0; ///< required range (bounds checks)
  bool NonZero = false;             ///< the check was CheckNonZeroI
  /// The deleted check was a FlagProvenClaim validation shadow (already
  /// credited to the front end — reported as a proven claim, not HAC012).
  bool WasClaim = false;
};

/// Second-chance check elimination: deletes CheckIdx / CheckNonZeroI
/// instructions whose incoming range is proven inside the checked set by
/// the post-optimization analysis — including claims already validated
/// (their re-proof succeeded, so the validation shadow is redundant) and
/// residual checks the front end could not remove (each of those gets a
/// note). Never deletes CheckCollision, CheckDefined, or Fail. When it
/// deletes anything it re-runs lir::cleanup (DCE, counter folding), which
/// keeps ExecStats totals. Runs on unsealed, optimized code, before
/// seal(). Returns the number of deletions and accumulates it into
/// P.NumAbsintElim.
unsigned secondChance(LIRProgram &P,
                      std::vector<SecondChanceNote> *Notes = nullptr);

/// verifyPlanLIR pipeline options. There is no thread count: the
/// Executor runs one program at every count, so the legalized par flags
/// (and the race checks over them) are always the ones that execute.
struct PlanVerifyOptions {
  /// Run the second-chance eliminator inside the pipeline (mirrors the
  /// Executor default).
  bool SecondChance = true;
  /// Fault-injection hooks for the golden corpus: pretend the front end
  /// proved facts it did not (claims), or force par flags onto loops the
  /// planner never approved (races). None in production.
  enum class Inject : uint8_t {
    None,
    ReadClaims,  ///< drop read bounds checks as "proven"
    StoreClaims, ///< drop store bounds checks as "proven"
    Collisions,  ///< drop the collision check as "proven"
    Doall,       ///< flag the outermost static loop DOALL
    Wave,        ///< flag the outermost static 2-nest as a wave pair
  };
  Inject InjectKind = Inject::None;
};

/// verifyPlanLIR result: the analysis over the replicated pipeline plus
/// the second-chance eliminations it performed.
struct PlanVerifyResult {
  AbsintResult Absint;
  std::vector<SecondChanceNote> Eliminated;
  bool LoweringFailed = false; ///< seal error; Error says why
  std::string Error;
};

/// Replicates the Executor's lowering pipeline on \p Plan (lower with
/// read validation, optimize, second-chance, seal, legalizePar) and runs
/// the validator over the result.
/// Input arrays are treated as unknown (their reads lower to guarded
/// fails, exactly as a compile-time check must), so claims are only ever
/// validated against the target's shape \p TargetDims.
PlanVerifyResult verifyPlanLIR(const ExecPlan &Plan,
                               const ArrayDims &TargetDims,
                               const ParamEnv &Params,
                               const PlanVerifyOptions &Opts);

/// Reports \p R's findings through \p Diags with the stable rule IDs:
/// HAC009 (error) for unsound eliminations, HAC010/HAC011 (errors) for
/// race findings, one HAC012 note per second-chance elimination. When
/// \p PerRule is non-null it must point at kNumRules counters; recorded
/// findings increment the matching slot. Returns the number of
/// diagnostics the engine recorded.
unsigned reportLIRFindings(const PlanVerifyResult &R, DiagnosticEngine &Diags,
                           unsigned *PerRule = nullptr);

} // namespace lir
} // namespace hac

#endif // HAC_LIR_LIRABSINT_H
