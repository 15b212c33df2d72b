//===- examples/hacc.cpp - The hac compiler driver ------------------------===//
//
// A batch compiler: reads an array-comprehension program from a file (or
// stdin), runs the full pipeline, and either prints the analysis report,
// executes the program, or emits a C translation unit.
//
// The program's kind is read from its syntax (driver/Driver.h): a
// `letrec*` array construction, an `accumArray`, a `bigupd` update, or a
// module whose letrec* binds two or more arrays. Every mode below works
// on every kind. Modules compile each binding through the shared
// pipeline, schedule the inter-array DAG topologically, and recycle dead
// intermediates' buffers for later arrays. An update runs on a
// deterministic start array (1 + 0.25 * (k mod 7) at row-major position
// k) over the shape its subscripts cover.
//
// Usage:
//   hacc FILE            analyze + run, print result corners and stats
//   hacc -report FILE    print the analysis report only
//   hacc -analyze FILE   run the static verifier, print HACNNN findings
//                        (includes the LIR abstract interpreter,
//                        HAC009-HAC012; -no-verify-lir opts out)
//   hacc -verify-lir ... run the LIR validator in any mode; outside
//                        -analyze its findings print to stderr and
//                        errors fail the run
//   hacc -sarif OUT ...  write the findings as SARIF 2.1.0 ("-" = stdout;
//                        implies -analyze)
//   hacc -Werror ...     treat warnings as errors
//   hacc -Wno-hacNNN ... disable one verifier rule
//   hacc -emit-c FILE    emit the generated C kernel to stdout
//   hacc -dump-lir FILE  print the unified Loop IR before and after the
//                        optimization passes; exit 1 on verifier errors
//   hacc -dump-module F  print a module's inter-array DAG, topological
//                        schedule, and buffer plan (a single-array
//                        program shows as a one-binding module)
//   hacc -dump-deps FILE print the dependence graph per array: edges
//                        with direction/distance vectors, the deciding
//                        tier (gcd/banerjee/omega/exact), and exactness
//   hacc -Xdep-budget=N  Omega dependence-tier step budget (0 disables
//                        the tier; overrides HAC_DEP_BUDGET)
//   hacc -Xdep-selfcheck cross-check Omega verdicts against brute force
//   hacc -selfcheck FILE run the LIR evaluator AND the compiled-C kernel
//                        and require bit-identical results
//   hacc -j N ... FILE   evaluate with N worker threads (0 = auto:
//                        HAC_THREADS, else the hardware concurrency)
//   hacc -jit[=MODE] ... execution tier for the evaluator path: off |
//                        sync | async (bare -jit = sync). Native
//                        kernels are content-cached under HAC_JIT_CACHE
//   hacc -trace ... FILE print the phase-timing tree + counters to stderr
//   hacc -json OUT ...   write compile+run telemetry as JSON to OUT
//                        ("-" for stdout; not with a mode that prints
//                        to stdout)
//   hacc -profile ...    print the ranked hot-loop table (source lines,
//                        par classes, HAC008 witnesses) to stderr after
//                        the run; adds a "profile" object to -json
//   hacc -timeline OUT   write a Chrome trace-event timeline (load in
//                        chrome://tracing or Perfetto; "-" = stdout)
//
// FILE may be "-" for stdin. Setting the HAC_TRACE environment variable
// enables -trace-style output in any mode without flags; HAC_PROFILE
// likewise implies -profile's stderr table.
//
// Exit codes: 0 success; 1 usage error, compile or runtime failure
// (diagnostics on stderr) or, with -analyze, any error-severity finding;
// 2 an update that compiled but cannot run in place.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "codegen/ModuleEmitter.h"
#include "core/InterpBridge.h"
#include "driver/Driver.h"
#include "jit/Jit.h"
#include "jit/JitCompiler.h"
#include "jit/KernelCache.h"
#include "jit/NativeBuild.h"
#include "lir/LIR.h"
#include "lir/LIRAbsint.h"
#include "lir/LIRLowering.h"
#include "lir/LIRPasses.h"
#include "parallel/ThreadPool.h"
#include "support/ChromeTrace.h"
#include "support/Profile.h"
#include "support/Trace.h"
#include "verify/SarifEmitter.h"
#include "verify/Verifier.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace hac;

namespace {

struct DriverOptions {
  bool ReportOnly = false;
  bool EmitCOnly = false;
  bool DumpLIR = false;
  bool SelfCheck = false;
  /// -dump-module: print the inter-array DAG, topological schedule, and
  /// buffer plan of a module, then stop.
  bool DumpModule = false;
  bool TraceTree = false;
  bool Profile = false;
  bool Analyze = false;
  /// -dump-deps: print the dependence graph with per-edge deciding-tier /
  /// exactness / distance provenance and the per-tier decision counts;
  /// composes with -analyze, -report, and -dump-module, and stops after
  /// the dump otherwise.
  bool DumpDeps = false;
  /// -Xdep-selfcheck: cross-check every Omega dependence verdict against
  /// brute-force enumeration; aborts on a mismatch.
  bool DepSelfCheck = false;
  /// -Xdep-budget=N: Omega step budget (0 disables the tier). -1 = unset,
  /// which defers to HAC_DEP_BUDGET in the environment.
  int64_t DepBudget = -1;
  bool WarningsAsErrors = false;
  /// -verify-lir / -no-verify-lir: the LIR abstract interpreter
  /// (HAC009–HAC012). -1 = unset, which defaults to on under -analyze
  /// and off otherwise.
  int VerifyLIR = -1;
  /// -Xverify-inject=KIND: deliberately corrupt the verified pipeline
  /// (drop a check class or force a par flag) so the golden corpus can
  /// prove the validator catches it.
  lir::PlanVerifyOptions::Inject Inject =
      lir::PlanVerifyOptions::Inject::None;
  /// Worker threads for the evaluator and the emitted C (-j). 0 = auto:
  /// HAC_THREADS, else the hardware concurrency. main() resolves it to a
  /// concrete count (>= 1) before the program runs.
  unsigned Threads = 0;
  /// -jit[=off|sync|async]: execution-tier policy for the evaluator
  /// path. -1 = unset (the HAC_JIT environment policy, default off);
  /// otherwise a jit::JitMode value.
  int Jit = -1;
  std::vector<RuleID> DisabledRules;
  std::string SarifPath;    ///< empty = no SARIF; "-" = stdout
  std::string JsonPath;     ///< empty = no JSON; "-" = stdout
  std::string TimelinePath; ///< empty = no timeline; "-" = stdout
  std::string Path;

  /// With -json, -sarif, or -timeline to stdout the human-readable
  /// report would corrupt the document, so it is suppressed.
  bool quiet() const {
    return JsonPath == "-" || SarifPath == "-" || TimelinePath == "-";
  }

  /// Whether the LIR abstract interpreter runs this invocation.
  bool verifyLIROn() const { return VerifyLIR == -1 ? Analyze : VerifyLIR; }

  /// The resolved tier policy (flag wins over the HAC_JIT environment).
  jit::JitMode jitMode() const {
    return Jit == -1 ? jit::jitModeFromEnv() : static_cast<jit::JitMode>(Jit);
  }
};

std::string readAll(const std::string &Path) {
  if (Path == "-") {
    std::ostringstream OS;
    OS << std::cin.rdbuf();
    return OS.str();
  }
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "hacc: cannot open '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Applies -Werror / -Wno-hacNNN to the engine before compilation.
void applyDiagOptions(const DriverOptions &Opts, DiagnosticEngine &Diags) {
  Diags.setWarningsAsErrors(Opts.WarningsAsErrors);
  for (RuleID Rule : Opts.DisabledRules)
    Diags.setRuleEnabled(Rule, false);
}

/// The pipeline options: the dependence-engine knobs (an explicit
/// -Xdep-budget wins over HAC_DEP_BUDGET) and, outside -analyze, an
/// explicit -verify-lir, which runs the LIR validator inside the compile
/// pipeline. Under -analyze the Verifier drives it instead, so its
/// findings fold into the per-rule counts and SARIF.
CompileOptions compileOptions(const DriverOptions &Opts) {
  CompileOptions CO;
  if (Opts.verifyLIROn() && !Opts.Analyze) {
    CO.VerifyLIR = true;
  }
  if (Opts.DepBudget >= 0)
    CO.OmegaBudget = static_cast<uint64_t>(Opts.DepBudget);
  CO.DepSelfCheck = Opts.DepSelfCheck;
  return CO;
}

/// Writes the SARIF document to Opts.SarifPath ("-" = stdout). Returns 0
/// on success.
int writeSarifTo(const DriverOptions &Opts, const DiagnosticEngine &Diags) {
  std::string Uri = Opts.Path == "-" ? "<stdin>" : Opts.Path;
  if (Opts.SarifPath == "-") {
    writeSarif(std::cout, Diags, Uri);
    return 0;
  }
  std::ofstream OS(Opts.SarifPath);
  if (!OS) {
    std::fprintf(stderr, "hacc: cannot write '%s'\n",
                 Opts.SarifPath.c_str());
    return 1;
  }
  writeSarif(OS, Diags, Uri);
  return 0;
}

/// The -analyze mode tail: runs the verifier over \p P when it
/// \p Compiled, prints the findings, and emits SARIF when requested.
/// Returns the process exit code.
int runAnalyze(const DriverOptions &Opts, ProgramCompiler &P,
               bool Compiled) {
  DiagnosticEngine &Diags = P.diags();
  unsigned Total = 0;
  if (Compiled) {
    Verifier V(Diags);
    if (Opts.verifyLIROn()) {
      LIRVerifyOptions LO;
      LO.Inject = Opts.Inject;
      V.enableLIRVerify(LO);
    }
    // Module findings carry each binding's source locations, so they
    // aggregate naturally.
    if (P.Update)
      Total = V.verify(*P.Update).total();
    else if (P.Array)
      Total = V.verify(*P.Array).total();
    else
      for (const ModuleBinding &B : P.Module->Bindings)
        Total += V.verify(B.Array).total();
  }
  if (!Opts.quiet()) {
    if (Compiled)
      std::printf("%s\n", P.report().c_str());
    Diags.print(std::cout);
    std::printf("%u finding(s): %u error(s), %u warning(s)\n", Total,
                Diags.errorCount(), Diags.warningCount());
  } else {
    Diags.print(std::cerr);
  }
  if (!Opts.SarifPath.empty()) {
    int RC = writeSarifTo(Opts, Diags);
    if (RC != 0)
      return RC;
  }
  return Diags.hasErrors() ? 1 : 0;
}

/// Pre-seeds the dependence-test outcome counters so the JSON key set is
/// a stable contract even for programs where a bucket stays at zero.
void seedStandardCounters() {
  TraceSink &S = TraceSink::get();
  for (const char *Name :
       {"dep.gcd.independent", "dep.banerjee.independent",
        "dep.omega.independent", "dep.omega.budget_exhausted",
        "dep.exact.independent", "dep.exact.budget_exhausted",
        "dep.assumed.dependent", "dep.tier.gcd", "dep.tier.banerjee",
        "dep.tier.omega", "dep.tier.exact", "dep.tier.unknown",
        "dep.selfcheck.checked", "dep.selfcheck.mismatch"})
    S.count(Name, 0);
}

//===--------------------------------------------------------------------===//
// JSON telemetry
//===--------------------------------------------------------------------===//

void writeExecStatsJson(std::ostream &OS, const ExecStats &Stats) {
  OS << "  {\n"
     << "   \"stores\": " << Stats.Stores << ",\n"
     << "   \"loads\": " << Stats.Loads << ",\n"
     << "   \"ring_saves\": " << Stats.RingSaves << ",\n"
     << "   \"snapshot_copies\": " << Stats.SnapshotCopies << ",\n"
     << "   \"bounds_checks\": " << Stats.BoundsChecks << ",\n"
     << "   \"collision_checks\": " << Stats.CollisionChecks << ",\n"
     << "   \"guard_evals\": " << Stats.GuardEvals << ",\n"
     << "   \"fused_iters\": " << Stats.FusedIters << ",\n"
     << "   \"temp_bytes_peak\": " << Stats.TempBytes << "\n"
     << "  }";
}

/// The analysis-report fields of a compiled array, as a JSON object.
void writeArrayAnalysisJson(std::ostream &OS, const CompiledArray &C) {
  OS << "  {\n"
     << "   \"clauses\": " << C.Nest.numClauses() << ",\n"
     << "   \"loops\": " << C.Nest.Loops.size() << ",\n"
     << "   \"edges\": " << C.Graph.Edges.size() << ",\n"
     << "   \"collisions\": "
     << jsonQuote(checkOutcomeName(C.Collisions.NoCollisions)) << ",\n"
     << "   \"empties\": "
     << jsonQuote(checkOutcomeName(C.Coverage.NoEmpties)) << ",\n"
     << "   \"in_bounds\": "
     << jsonQuote(checkOutcomeName(C.Coverage.InBounds)) << ",\n"
     << "   \"instances\": " << C.Coverage.TotalInstances << ",\n"
     << "   \"array_size\": " << C.Coverage.ArraySize << ",\n"
     << "   \"passes\": " << (C.Thunkless ? C.Sched.PassCount : 0) << ",\n"
     << "   \"vectorizable\": " << C.Vectorization.numVectorizable()
     << ",\n"
     << "   \"inner_loops\": " << C.Vectorization.InnerLoops.size()
     << ",\n"
     << "   \"check_store_bounds\": "
     << (C.Thunkless && C.Plan.CheckStoreBounds ? "true" : "false") << ",\n"
     << "   \"check_collisions\": "
     << (C.Thunkless && C.Plan.CheckCollisions ? "true" : "false") << ",\n"
     << "   \"check_empties\": "
     << (C.Thunkless && C.Plan.CheckEmpties ? "true" : "false") << ",\n"
     << "   \"read_bounds\": "
     << jsonQuote(checkOutcomeName(C.ReadBounds.AllInBounds)) << ",\n"
     << "   \"reads_proven\": " << C.ReadBounds.numProven() << ",\n"
     << "   \"reads_total\": " << C.ReadBounds.Reads.size() << ",\n"
     << "   \"check_read_bounds\": "
     << (C.Thunkless && C.Plan.CheckReadBounds ? "true" : "false") << "\n"
     << "  }";
}

/// The module-level analysis fields: DAG size, schedule, buffer plan.
void writeModuleAnalysisJson(std::ostream &OS, const CompiledModule &M) {
  OS << "  {\n"
     << "   \"arrays\": " << M.Bindings.size() << ",\n"
     << "   \"result\": " << jsonQuote(M.result().Name) << ",\n"
     << "   \"topo_order\": [";
  for (size_t I = 0; I != M.TopoOrder.size(); ++I)
    OS << (I ? ", " : "")
       << jsonQuote(M.Bindings[M.TopoOrder[I]].Name);
  OS << "],\n"
     << "   \"buffer_slots\": " << (M.Thunkless ? M.Buffers.numSlots() : 0)
     << ",\n"
     << "   \"buffers_reused\": " << (M.Thunkless ? M.Buffers.Reused : 0)
     << ",\n"
     << "   \"peak_bytes\": " << (M.Thunkless ? M.Buffers.PeakBytes : 0)
     << ",\n"
     << "   \"no_reuse_peak_bytes\": "
     << (M.Thunkless ? M.Buffers.NoReusePeakBytes : 0) << "\n"
     << "  }";
}

void writeUpdateAnalysisJson(std::ostream &OS, const CompiledUpdate &C) {
  OS << "  {\n"
     << "   \"clauses\": " << C.Nest.numClauses() << ",\n"
     << "   \"edges\": " << C.Graph.Edges.size() << ",\n"
     << "   \"splits\": " << C.Update.Splits.size() << ",\n"
     << "   \"split_copy_cost\": " << C.Update.splitCopyCost() << ",\n"
     << "   \"vectorizable\": " << C.Vectorization.numVectorizable()
     << ",\n"
     << "   \"inner_loops\": " << C.Vectorization.InnerLoops.size()
     << ",\n"
     << "   \"read_bounds\": "
     << jsonQuote(checkOutcomeName(C.ReadBounds.AllInBounds)) << "\n"
     << "  }";
}

/// What the telemetry document reports about one invocation.
struct Outcome {
  ProgramKind Kind = ProgramKind::Array;
  const ProgramCompiler *Compiled = nullptr; ///< null when compile failed
  std::optional<ExecStats> Stats;            ///< set when a plan ran
  std::string Error;
};

/// Emits the full telemetry document for \p Out.
int writeTelemetry(const DriverOptions &Opts, const Outcome &Out) {
  std::ofstream FileOS;
  std::ostream *OS = &std::cout;
  if (Opts.JsonPath != "-") {
    FileOS.open(Opts.JsonPath);
    if (!FileOS) {
      std::fprintf(stderr, "hacc: cannot write '%s'\n",
                   Opts.JsonPath.c_str());
      return 1;
    }
    OS = &FileOS;
  }
  const ProgramCompiler *P = Out.Compiled;
  *OS << "{\n \"file\": " << jsonQuote(Opts.Path)
      << ",\n \"mode\": " << jsonQuote(programKindName(Out.Kind))
      << ",\n \"thunkless\": " << (P && P->thunkless() ? "true" : "false")
      << ",\n \"threads\": " << Opts.Threads;
  if (!Out.Error.empty())
    *OS << ",\n \"error\": " << jsonQuote(Out.Error);
  if (P && !P->fallbackReason().empty())
    *OS << ",\n \"fallback_reason\": " << jsonQuote(P->fallbackReason());
  *OS << ",\n \"analysis\":\n";
  if (!P)
    *OS << "  null";
  else if (P->Update)
    writeUpdateAnalysisJson(*OS, *P->Update);
  else if (P->Module)
    writeModuleAnalysisJson(*OS, *P->Module);
  else
    writeArrayAnalysisJson(*OS, *P->Array);
  if (Out.Stats) {
    *OS << ",\n \"exec_stats\":\n";
    writeExecStatsJson(*OS, *Out.Stats);
  }
  if (ProfileSink::get().enabled()) {
    *OS << ",\n \"profile\":\n  ";
    ProfileSink::get().writeJson(*OS, 2);
  }
  {
    const char *ModeName =
        Opts.jitMode() == jit::JitMode::Off
            ? "off"
            : Opts.jitMode() == jit::JitMode::Sync ? "sync" : "async";
    const jit::JitStats JS = jit::JitCompiler::global().stats();
    *OS << ",\n \"jit\": {\"mode\": " << jsonQuote(ModeName)
        << ", \"compiles\": " << JS.Compiles
        << ", \"compile_failures\": " << JS.CompileFailures
        << ", \"cache_hits\": " << JS.CacheHits
        << ", \"cache_misses\": " << JS.CacheMisses
        << ", \"evictions\": " << JS.Evictions
        << ", \"corrupt\": " << JS.Corrupt
        << ", \"compile_ns\": " << JS.CompileNanos << "}";
  }
  *OS << ",\n \"trace\":\n";
  TraceSink::get().writeJson(*OS, 2);
  *OS << "\n}\n";
  return 0;
}

//===--------------------------------------------------------------------===//
// LIR dump, C emission and selfcheck
//===--------------------------------------------------------------------===//

/// -dump-lir: prints the lowered program before the optimization passes
/// and the Executor's own pipeline output after them (lir::buildProgram),
/// then runs the verifier. The "before" dump shows the planner's par=
/// loop annotations; the "after" dump shows the legalized ones. The
/// program is the same at every thread count (a pool runs the par=
/// loops, one thread ignores them); only the jit kernel section depends
/// on \p Threads. Returns the process exit code.
int dumpLIR(const ProgramPart &Part, unsigned Threads, jit::JitMode JitM) {
  const ExecPlan &Plan = *Part.Plan;
  const ParamEnv &Params = *Part.Params;
  lir::LIRProgram P = lir::lowerPlan(Plan, Plan.Dims, Params, {},
                                     /*AssumeTargetShape=*/false,
                                     /*ValidateReads=*/false);
  std::string SealErr;
  if (!lir::seal(P, SealErr)) {
    std::fprintf(stderr, "hacc: LIR seal failed: %s\n", SealErr.c_str());
    return 1;
  }
  std::printf("=== LIR for '%s' (before passes) ===\n%s", Part.Name->c_str(),
              lir::printLIR(P).c_str());
  if (!lir::buildProgram(Plan, Plan.Dims, Params, {}, {}, P, SealErr)) {
    std::fprintf(stderr, "hacc: %s\n", SealErr.c_str());
    return 1;
  }
  std::printf("=== LIR (after passes: %llu hoisted, %llu strength-reduced, "
              "%llu ivs-coalesced, %llu dce, %llu counters-folded, "
              "%llu absint-elim) ===\n%s",
              (unsigned long long)P.NumHoisted,
              (unsigned long long)P.NumStrengthReduced,
              (unsigned long long)P.NumIvsCoalesced,
              (unsigned long long)P.NumDce,
              (unsigned long long)P.NumCountersFolded,
              (unsigned long long)P.NumAbsintElim,
              lir::printLIR(P).c_str());
  std::string VerifyErr = lir::verify(P);
  if (!VerifyErr.empty()) {
    std::fprintf(stderr, "hacc: %s\n", VerifyErr.c_str());
    return 1;
  }
  // Per-register value ranges from the abstract interpreter (int slots
  // only; float slots carry no interval information).
  lir::AbsintResult AR = lir::analyze(P, {});
  std::printf("=== absint register ranges ===\n");
  for (size_t S = 0; S != AR.SlotRanges.size(); ++S)
    if (S < P.SlotIsF.size() && !P.SlotIsF[S])
      std::printf("  r%zu: %s\n", S, AR.SlotRanges[S].str().c_str());
  if (JitM != jit::JitMode::Off) {
    // Mirror the JitCompiler's keying: legalize a copy for the kernel,
    // then content-hash the text. This is the exact key the executor's
    // tiered run will hit in the cache.
    lir::LIRProgram KP = P;
    const unsigned PinThreads = lir::legalizeKernel(KP, Threads);
    const bool OpenMP = PinThreads && *jit::detectedOmpFlag() != '\0';
    const jit::KernelKey Key =
        jit::makeKernelKey(lir::printLIR(KP), PinThreads, OpenMP);
    std::printf("=== jit kernel ===\nkey %s\nmode %s\nthreads %u\n"
                "openmp %s\ncache %s\n",
                Key.hex().c_str(), JitM == jit::JitMode::Sync ? "sync"
                                                              : "async",
                PinThreads ? PinThreads : 1u, OpenMP ? "yes" : "no",
                jit::cacheDirFromEnv().c_str());
  }
  return 0;
}

/// The program's C translation unit: emitC's kernel plus two-argument
/// wrapper `hac_kernel` for a single plan, emitModuleC's whole-module
/// driver `hac_module` for a module.
CEmitResult emitProgramC(const ProgramCompiler &P, unsigned Threads) {
  if (!P.Module) {
    const ProgramPart Part = P.parts().front();
    return emitC(*Part.Plan, "hac_kernel", *Part.Params, {}, Threads);
  }
  ModuleEmitResult M = emitModuleC(*P.Module, Threads);
  CEmitResult R;
  R.OK = M.OK;
  R.Error = std::move(M.Error);
  R.Code = std::move(M.Code);
  return R;
}

/// -selfcheck tail: runs the program on the LIR evaluator, then its
/// compiled C on the same start state, and requires bit-identical
/// results. Returns the process exit code.
int runSelfCheck(const DriverOptions &Opts, const ProgramCompiler &P,
                 Outcome &Out) {
  Executor Exec(P.params());
  Exec.setNumThreads(Opts.Threads);
  DoubleArray Ref;
  std::string Err;
  if (!P.run(Exec, Ref, Err)) {
    std::fprintf(stderr, "hacc: runtime error: %s\n", Err.c_str());
    Out.Error = "runtime error: " + Err;
    return 1;
  }
  Out.Stats = Exec.stats();
  CEmitResult Emitted = emitProgramC(P, Opts.Threads);
  if (!Emitted.OK) {
    std::printf("selfcheck: C backend declined (%s); evaluator-only\n",
                Emitted.Error.c_str());
    return 0;
  }
  if (!Emitted.InputNames.empty()) {
    std::printf("selfcheck: kernel expects external inputs; skipped\n");
    return 0;
  }
  std::string BuildErr;
  using KernelFn = int (*)(double *, const double *const *);
  auto Fn = reinterpret_cast<KernelFn>(jit::buildNativeKernel(
      Emitted.Code, P.Module ? "hac_module" : "hac_kernel", BuildErr,
      /*OpenMP=*/Opts.Threads > 1));
  if (!Fn) {
    std::fprintf(stderr, "hacc: selfcheck: %s\n", BuildErr.c_str());
    return 1;
  }
  DoubleArray Native = P.startState();
  int Rc = Fn(Native.data(), nullptr);
  if (Rc != 0) {
    std::fprintf(stderr, "hacc: selfcheck: native kernel failed (rc=%d)\n",
                 Rc);
    return 1;
  }
  double Diff = DoubleArray::maxAbsDiff(Ref, Native);
  if (Diff > 0.0) {
    std::fprintf(stderr,
                 "hacc: selfcheck: evaluator and compiled C diverge "
                 "(max |diff| = %g)\n",
                 Diff);
    return 1;
  }
  std::printf("selfcheck: evaluator and compiled C agree on %zu elements\n",
              Ref.size());
  return 0;
}

/// -emit-c, -dump-lir and -selfcheck: the modes that lower the program's
/// plans. Returns the process exit code.
int runLowered(const DriverOptions &Opts, ProgramCompiler &P, Outcome &Out) {
  if (!P.thunkless()) {
    if (Opts.EmitCOnly) {
      std::fprintf(stderr, "hacc: cannot emit C: %s\n",
                   P.fallbackReason().c_str());
      P.diags().print(std::cerr);
      return 1;
    }
    std::printf("lir: %s (%s); nothing to lower\n",
                P.Update   ? "update is not in-place"
                : P.Module ? "module needs thunked evaluation"
                           : "program needs thunked evaluation",
                P.fallbackReason().c_str());
    return 0;
  }
  if (P.Update && P.Update->Plan.Dims.empty()) {
    std::fprintf(stderr, "hacc: cannot derive the update target's shape "
                         "from its subscripts\n");
    return 1;
  }
  if (Opts.EmitCOnly) {
    CEmitResult Emitted = emitProgramC(P, Opts.Threads);
    if (!Emitted.OK) {
      std::fprintf(stderr, "hacc: cannot emit C: %s\n",
                   Emitted.Error.c_str());
      P.diags().print(std::cerr);
      return 1;
    }
    std::fputs(Emitted.Code.c_str(), stdout);
    if (!Emitted.InputNames.empty()) {
      std::printf("/* inputs (in order):");
      for (const std::string &Name : Emitted.InputNames)
        std::printf(" %s", Name.c_str());
      std::printf(" */\n");
    }
    return 0;
  }
  if (Opts.DumpLIR)
    for (const ProgramPart &Part : P.parts())
      if (int RC = dumpLIR(Part, Opts.Threads, Opts.jitMode()))
        return RC;
  return Opts.SelfCheck ? runSelfCheck(Opts, P, Out) : 0;
}

//===--------------------------------------------------------------------===//
// The program flow
//===--------------------------------------------------------------------===//

/// Runs a program the static path declined under the lazy reference
/// interpreter, as a real compiler for this language would. Returns the
/// process exit code.
int runInterpreter(const DriverOptions &Opts, const std::string &Source) {
  Interpreter Interp;
  Interp.setFuel(500'000'000);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(Source, {}, Interp, Diags);
  if (V->isError()) {
    std::fprintf(stderr, "hacc: %s\n", V->str().c_str());
    return 1;
  }
  std::string ConvErr;
  auto Ref = interpArrayToDouble(Interp, V, ConvErr);
  if (!Ref) {
    std::fprintf(stderr, "hacc: %s\n", ConvErr.c_str());
    return 1;
  }
  if (!Opts.quiet()) {
    std::printf("result: %zu elements; first = %g, last = %g\n",
                Ref->size(), Ref->size() ? (*Ref)[0] : 0.0,
                Ref->size() ? (*Ref)[Ref->size() - 1] : 0.0);
    std::printf("stats: thunks=%llu forced=%llu cons-cells=%llu\n",
                (unsigned long long)Interp.stats().ThunksCreated,
                (unsigned long long)Interp.stats().ThunksForced,
                (unsigned long long)Interp.stats().ConsCells);
  }
  return 0;
}

/// Compiles \p Source as \p P's kind and carries out the requested mode.
/// Every kind takes the same steps; they differ only in the start state,
/// the kernel symbol and the module DAG dump, all behind P. Returns the
/// process exit code; \p Out collects what the telemetry reports.
int runProgram(const DriverOptions &Opts, ProgramCompiler &P,
               const std::string &Source, Outcome &Out) {
  if (Opts.DumpModule && P.kind() != ProgramKind::Module) {
    std::fprintf(stderr,
                 "hacc: -dump-module needs an array or module program "
                 "(this one is '%s')\n",
                 programKindName(P.kind()));
    return 1;
  }
  DiagnosticEngine &Diags = P.diags();
  applyDiagOptions(Opts, Diags);
  if (!P.compile(Source)) {
    Out.Error = "compile failed: " + Diags.str();
    if (Opts.Analyze)
      runAnalyze(Opts, P, /*Compiled=*/false);
    else
      Diags.print(std::cerr);
    return 1;
  }
  Out.Compiled = &P;
  if (Opts.verifyLIROn() && !Opts.Analyze) {
    // The LIR validator ran inside the compile; its findings go to
    // stderr and its errors fail the run.
    Diags.print(std::cerr);
    if (Diags.hasErrors())
      return 1;
  }

  if (Opts.DumpDeps) {
    if (!Opts.quiet())
      for (const ProgramPart &Part : P.parts())
        std::printf("deps for '%s':\n%s", Part.Name->c_str(),
                    Part.Graph->describe().c_str());
    if (!Opts.Analyze && !Opts.ReportOnly && !Opts.DumpModule)
      return 0;
  }
  if (Opts.DumpModule) {
    std::printf("%s", P.Module->dumpDag().c_str());
    if (!Opts.quiet())
      Diags.print(std::cout);
    return 0;
  }
  if (Opts.EmitCOnly || Opts.DumpLIR || Opts.SelfCheck)
    return runLowered(Opts, P, Out);
  if (Opts.Analyze)
    return runAnalyze(Opts, P, /*Compiled=*/true);

  if (!Opts.quiet())
    std::printf("%s\n", P.report().c_str());
  // An update that cannot run in place has nothing to fall back to.
  if (P.Update && !P.thunkless())
    return 2;
  if (Opts.ReportOnly)
    return 0;
  if (!P.thunkless()) {
    if (!Opts.quiet())
      std::printf("falling back to thunked evaluation...\n");
    if (P.Array)
      return runInterpreter(Opts, Source);
  }

  Executor Exec(P.params());
  Exec.setNumThreads(Opts.Threads);
  Exec.setJitMode(Opts.jitMode());
  DoubleArray Result;
  std::string Err;
  ModuleRunStats Stats;
  const bool OK = P.run(Exec, Result, Err, &Stats);
  if (P.thunkless())
    Out.Stats = Exec.stats();
  if (!OK) {
    std::fprintf(stderr, "hacc: runtime error: %s\n", Err.c_str());
    Out.Error = "runtime error: " + Err;
    return 1;
  }
  if (Opts.quiet())
    return 0;
  std::printf("result: %zu elements; first = %g, last = %g\n", Result.size(),
              Result.size() ? Result[0] : 0.0,
              Result.size() ? Result[Result.size() - 1] : 0.0);
  if (!P.Module)
    std::printf("stats: stores=%llu loads=%llu checks=%llu fused=%llu\n",
                (unsigned long long)Exec.stats().Stores,
                (unsigned long long)Exec.stats().Loads,
                (unsigned long long)(Exec.stats().BoundsChecks +
                                     Exec.stats().CollisionChecks),
                (unsigned long long)Exec.stats().FusedIters);
  else if (P.thunkless())
    std::printf("module: arrays=%u buffers-reused=%u peak=%zu B "
                "(no-reuse %zu B)\n",
                Stats.Arrays, Stats.BuffersReused, Stats.PeakBytes,
                Stats.NoReusePeakBytes);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "-report") == 0)
      Opts.ReportOnly = true;
    else if (std::strcmp(Argv[I], "-emit-c") == 0)
      Opts.EmitCOnly = true;
    else if (std::strcmp(Argv[I], "-dump-lir") == 0)
      Opts.DumpLIR = true;
    else if (std::strcmp(Argv[I], "-dump-module") == 0)
      Opts.DumpModule = true;
    else if (std::strcmp(Argv[I], "-dump-deps") == 0)
      Opts.DumpDeps = true;
    else if (std::strcmp(Argv[I], "-Xdep-selfcheck") == 0)
      Opts.DepSelfCheck = true;
    else if (std::strncmp(Argv[I], "-Xdep-budget=", 13) == 0) {
      std::string Warning;
      uint64_t B = omega::parseDepBudget(Argv[I] + 13,
                                         omega::kDefaultBudget, &Warning);
      if (!Warning.empty() || Argv[I][13] == '\0') {
        std::fprintf(stderr,
                     "hacc: bad -Xdep-budget value '%s' (expected an "
                     "integer in [0, 1000000000])\n",
                     Argv[I] + 13);
        return 1;
      }
      Opts.DepBudget = static_cast<int64_t>(B);
    }
    else if (std::strcmp(Argv[I], "-selfcheck") == 0)
      Opts.SelfCheck = true;
    else if (std::strcmp(Argv[I], "-trace") == 0)
      Opts.TraceTree = true;
    else if (std::strcmp(Argv[I], "-profile") == 0)
      Opts.Profile = true;
    else if (std::strcmp(Argv[I], "-timeline") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "hacc: -timeline needs an output file\n");
        return 1;
      }
      Opts.TimelinePath = Argv[++I];
    } else if (std::strcmp(Argv[I], "-analyze") == 0)
      Opts.Analyze = true;
    else if (std::strcmp(Argv[I], "-verify-lir") == 0)
      Opts.VerifyLIR = 1;
    else if (std::strcmp(Argv[I], "-no-verify-lir") == 0)
      Opts.VerifyLIR = 0;
    else if (std::strncmp(Argv[I], "-Xverify-inject=", 16) == 0) {
      const char *Kind = Argv[I] + 16;
      using Inject = lir::PlanVerifyOptions::Inject;
      if (std::strcmp(Kind, "read-checks") == 0)
        Opts.Inject = Inject::ReadClaims;
      else if (std::strcmp(Kind, "store-checks") == 0)
        Opts.Inject = Inject::StoreClaims;
      else if (std::strcmp(Kind, "collisions") == 0)
        Opts.Inject = Inject::Collisions;
      else if (std::strcmp(Kind, "doall") == 0)
        Opts.Inject = Inject::Doall;
      else if (std::strcmp(Kind, "wave") == 0)
        Opts.Inject = Inject::Wave;
      else {
        std::fprintf(stderr,
                     "hacc: bad -Xverify-inject kind '%s' (expected "
                     "read-checks, store-checks, collisions, doall, or "
                     "wave)\n",
                     Kind);
        return 1;
      }
    } else if (std::strcmp(Argv[I], "-Werror") == 0)
      Opts.WarningsAsErrors = true;
    else if (std::strncmp(Argv[I], "-Wno-", 5) == 0) {
      RuleID Rule = RuleID::None;
      switch (parseRuleName(Argv[I] + 5, Rule)) {
      case RuleParseStatus::Ok:
        Opts.DisabledRules.push_back(Rule);
        break;
      case RuleParseStatus::UnknownRule:
        // A well-formed hacNNN that names no current rule: warn and
        // continue, so scripts pinning rules from newer (or older)
        // versions keep running.
        std::fprintf(stderr,
                     "hacc: warning: '%s' names no known rule; ignored\n",
                     Argv[I]);
        break;
      case RuleParseStatus::Malformed:
        std::fprintf(stderr,
                     "hacc: malformed rule name in '%s' (expected "
                     "-Wno-hacNNN)\n",
                     Argv[I]);
        return 1;
      }
    } else if (std::strcmp(Argv[I], "-jit") == 0 ||
               std::strncmp(Argv[I], "-jit=", 5) == 0) {
      const char *Mode = Argv[I][4] == '=' ? Argv[I] + 5 : "sync";
      jit::JitMode M;
      if (!jit::parseJitMode(Mode, M)) {
        std::fprintf(stderr, "hacc: bad -jit mode '%s' (off|sync|async)\n",
                     Mode);
        return 1;
      }
      Opts.Jit = static_cast<int>(M);
    } else if (std::strcmp(Argv[I], "-j") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "hacc: -j needs a thread count\n");
        return 1;
      }
      char *End = nullptr;
      long N = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || N < 0 || N > 4096) {
        std::fprintf(stderr, "hacc: bad thread count '%s'\n", Argv[I]);
        return 1;
      }
      Opts.Threads = static_cast<unsigned>(N);
    } else if (std::strcmp(Argv[I], "-sarif") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "hacc: -sarif needs an output file\n");
        return 1;
      }
      Opts.SarifPath = Argv[++I];
      Opts.Analyze = true;
    } else if (std::strcmp(Argv[I], "-json") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "hacc: -json needs an output file\n");
        return 1;
      }
      Opts.JsonPath = Argv[++I];
    } else if (Argv[I][0] == '-' && Argv[I][1] != '\0') {
      std::fprintf(stderr, "hacc: unknown flag '%s'\n", Argv[I]);
      return 1;
    } else
      Opts.Path = Argv[I];
  }
  if (Opts.Inject != lir::PlanVerifyOptions::Inject::None && !Opts.Analyze)
    std::fprintf(stderr, "hacc: warning: -Xverify-inject only corrupts the "
                         "-analyze pipeline; ignored in this mode\n");
  if (Opts.JsonPath == "-" && (Opts.EmitCOnly || Opts.DumpLIR ||
                               Opts.DumpDeps || Opts.DumpModule ||
                               Opts.SelfCheck)) {
    std::fprintf(stderr, "hacc: -json - would share stdout with the "
                         "-emit-c/-dump-lir/-dump-deps/-dump-module/"
                         "-selfcheck output; write the JSON to a file\n");
    return 1;
  }
  if (Opts.Path.empty()) {
    std::fprintf(stderr,
                 "usage: hacc [-report | -analyze | -emit-c | -dump-lir] "
                 "[-selfcheck] [-j N] "
                 "[-trace] [-json FILE] [-sarif FILE] [-Werror] "
                 "[-Wno-hacNNN] FILE\n"
                 "  -report      print the analysis report only\n"
                 "  -analyze     run the static verifier, print HACNNN "
                 "findings (includes the LIR abstract interpreter)\n"
                 "  -verify-lir  run the LIR translation validator / race "
                 "checker (HAC009-HAC012) in any mode\n"
                 "  -no-verify-lir  skip the LIR validator under -analyze\n"
                 "  -sarif FILE  write findings as SARIF 2.1.0 "
                 "(\"-\" = stdout; implies -analyze)\n"
                 "  -Werror      treat warnings as errors\n"
                 "  -Wno-hacNNN  disable one verifier rule\n"
                 "  -emit-c      emit the generated C kernel to stdout\n"
                 "  -dump-lir    print the unified Loop IR before and after "
                 "the optimization passes\n"
                 "  -dump-module print the inter-array DAG, topological "
                 "schedule, and buffer plan of a module\n"
                 "  -dump-deps   print the dependence graph per array: "
                 "edges with direction/distance vectors, the deciding "
                 "analysis tier, and exactness (composes with -analyze, "
                 "-report, and module mode)\n"
                 "  -Xdep-budget=N  Omega (exact Presburger) dependence-"
                 "tier step budget; 0 disables the tier (overrides "
                 "HAC_DEP_BUDGET)\n"
                 "  -Xdep-selfcheck cross-check every Omega verdict "
                 "against brute-force enumeration; abort on mismatch\n"
                 "  -selfcheck   run the LIR evaluator and the compiled C "
                 "kernel; require bit-identical results\n"
                 "  -j N         evaluate with N worker threads (0 = "
                 "auto: HAC_THREADS, else hardware concurrency); "
                 "parallelizes -emit-c/-selfcheck kernels with OpenMP\n"
                 "  -jit[=MODE]  execution tier: off (interpret), sync "
                 "(compile a native kernel first), async (interpret, "
                 "hot-swap when cc finishes); bare -jit = sync. Kernels "
                 "cache under HAC_JIT_CACHE (default ~/.cache/hacc/"
                 "kernels, HAC_JIT_CACHE_MB cap); HAC_JIT sets the "
                 "default mode\n"
                 "  -trace       print phase timings + counters to stderr\n"
                 "  -json FILE   write compile+run telemetry as JSON "
                 "(\"-\" = stdout, except with -emit-c, -dump-lir, "
                 "-dump-deps, -dump-module or -selfcheck)\n"
                 "  -profile     print the ranked hot-loop table (source "
                 "lines, par classes, HAC008 witnesses) to stderr\n"
                 "  -timeline FILE  write a Chrome trace-event timeline "
                 "(chrome://tracing / Perfetto; \"-\" = stdout)\n"
                 "The program's kind (array, accumArray, bigupd update, "
                 "or module) is read from its syntax; an update runs on a "
                 "deterministic start array. "
                 "FILE may be \"-\" for stdin; HAC_TRACE=1 in the "
                 "environment implies -trace, HAC_PROFILE=1 implies "
                 "-profile's stderr table.\n");
    return 1;
  }

  if (Opts.Profile)
    ProfileSink::get().setEnabled(true);
  if (!Opts.TimelinePath.empty())
    ChromeTraceSink::get().setEnabled(true);

  // The timeline imports TraceSink's phase spans as its pipeline lane,
  // so -timeline turns the span sink on too.
  if (Opts.TraceTree || !Opts.JsonPath.empty() ||
      !Opts.TimelinePath.empty()) {
    TraceSink::get().setEnabled(true);
    seedStandardCounters();
    // With -analyze the per-rule hit counters are part of the telemetry
    // contract; pre-seed them so zero-hit rules still appear.
    if (Opts.Analyze)
      for (const RuleInfo &R : allRules()) {
        std::string Name = ruleIdString(R.Id);
        for (char &C : Name)
          C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
        TraceSink::get().count("verify." + Name, 0);
      }
  }

  if (Opts.Threads == 0)
    Opts.Threads = par::ThreadPool::defaultThreads();

  std::string Source = readAll(Opts.Path);
  // A parse error is reported by the compile, through the same failure
  // path as every other compile error.
  DiagnosticEngine ParseDiags;
  Outcome Out;
  Out.Kind = classifyProgram(Source, ParseDiags).value_or(ProgramKind::Array);
  // -dump-module shows a single-array program as a one-binding module.
  if (Opts.DumpModule && Out.Kind == ProgramKind::Array)
    Out.Kind = ProgramKind::Module;
  ProgramCompiler P(Out.Kind, compileOptions(Opts));
  int RC = runProgram(Opts, P, Source, Out);
  if (!Opts.JsonPath.empty())
    if (int JsonRC = writeTelemetry(Opts, Out))
      RC = JsonRC;

  if (Opts.TraceTree) {
    std::cerr << "=== trace ===\n";
    TraceSink::get().printTree(std::cerr);
  }
  if (Opts.Profile)
    ProfileSink::get().printTable(std::cerr);
  if (!Opts.TimelinePath.empty()) {
    ChromeTraceSink &CT = ChromeTraceSink::get();
    CT.importTraceSink();
    if (Opts.TimelinePath == "-") {
      CT.writeJson(std::cout);
    } else {
      std::ofstream OS(Opts.TimelinePath);
      if (!OS) {
        std::fprintf(stderr, "hacc: cannot write '%s'\n",
                     Opts.TimelinePath.c_str());
        return 1;
      }
      CT.writeJson(OS);
    }
  }
  return RC;
}
