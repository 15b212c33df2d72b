//===- verify/LIRVerifier.cpp - LIR translation validation ----------------===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/LIRVerifier.h"

#include "codegen/ShapeEstimate.h"
#include "support/Trace.h"

using namespace hac;

static LIRVerifyOutcome runPlan(const ExecPlan &Plan, const ArrayDims &Dims,
                                const ParamEnv &Params,
                                DiagnosticEngine &Diags,
                                const LIRVerifyOptions &Opts) {
  LIRVerifyOutcome Out;
  lir::PlanVerifyOptions PO;
  PO.SecondChance = Opts.SecondChance;
  PO.InjectKind = Opts.Inject;
  lir::PlanVerifyResult R = lir::verifyPlanLIR(Plan, Dims, Params, PO);
  Out.Ran = true;
  Out.Stats = R.Absint.Stats;
  Out.Eliminated = static_cast<unsigned>(R.Eliminated.size());
  lir::reportLIRFindings(R, Diags, Out.Hits.data());
  HAC_TRACE_COUNT("lir.absint.runs");
  if (Out.Stats.ClaimsProven)
    HAC_TRACE_COUNT("lir.absint.claims_proven",
                    static_cast<int64_t>(Out.Stats.ClaimsProven));
  if (Out.Stats.ClaimsUnproven)
    HAC_TRACE_COUNT("lir.absint.claims_unproven",
                    static_cast<int64_t>(Out.Stats.ClaimsUnproven));
  if (Out.Eliminated)
    HAC_TRACE_COUNT("lir.absint.second_chance",
                    static_cast<int64_t>(Out.Eliminated));
  return Out;
}

LIRVerifyOutcome hac::verifyLIR(const CompiledArray &CA,
                                DiagnosticEngine &Diags,
                                const LIRVerifyOptions &Opts) {
  if (!CA.Thunkless)
    return LIRVerifyOutcome{};
  return runPlan(CA.Plan, CA.Dims, CA.Params, Diags, Opts);
}

LIRVerifyOutcome hac::verifyLIR(const CompiledUpdate &CU,
                                DiagnosticEngine &Diags,
                                const LIRVerifyOptions &Opts) {
  if (!CU.InPlace)
    return LIRVerifyOutcome{};
  ArrayDims Dims;
  if (!estimateUpdateDims(CU.Plan, CU.Params, Dims))
    return LIRVerifyOutcome{}; // no finite shape estimate: nothing to pin
  return runPlan(CU.Plan, Dims, CU.Params, Diags, Opts);
}
