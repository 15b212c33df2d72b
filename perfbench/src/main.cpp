//===- perfbench/src/main.cpp - The hac benchmark program -----------------===//
//
// One single-process, single-client, closed-loop benchmark: it makes the
// calls hacc makes (compile, run the LIR evaluator, run a native kernel,
// fall back to the lazy interpreter), times each op from outside, and
// checks every result bit for bit against the lazy interpreter.
//
//   hac_perfbench --workload compile_corpus|stencil_eval|native_sweep
//                 --seed N --seconds S --trace 0|1
//                 --work-dir DIR --out-dir DIR
//                 [--git-sha SHA] [--source-digest HEX]
//
// The last line of stdout is the result object; with --trace 0 it holds
// the end-to-end metrics, with --trace 1 the per-layer ones. Everything
// runs on one worker thread (see README.md for why).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Runner.h"
#include "Spans.h"

#include "codegen/CEmitter.h"
#include "core/PipelineStages.h"
#include "jit/JitCompiler.h"
#include "jit/NativeBuild.h"
#include "lir/LIRAbsint.h"
#include "lir/LIRLowering.h"
#include "lir/LIRPasses.h"
#include "support/Casting.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
using namespace hac;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Arguments, environment, provenance
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string OutDir;
  std::string GitSha = "none";
  std::string SourceDigest = "none";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else if (K == "--out-dir")
      A.OutDir = V;
    else if (K == "--git-sha")
      A.GitSha = V;
    else if (K == "--source-digest")
      A.SourceDigest = V;
    else
      return false;
  }
  return (Argc % 2) == 1 && !A.WorkDir.empty() && !A.OutDir.empty() &&
         A.Seconds > 0 &&
         (A.Workload == "compile_corpus" || A.Workload == "stencil_eval" ||
          A.Workload == "native_sweep");
}

/// Every environment knob the library reads. Each is recorded and
/// cleared so the host cannot change a result; the kernel compiler is
/// then pinned to plain `cc`.
std::map<std::string, std::string> pinEnvironment() {
  static const char *const Knobs[] = {
      "HAC_THREADS", "HAC_JIT",        "HAC_JIT_CACHE", "HAC_JIT_CACHE_MB",
      "HAC_JIT_CC",  "HAC_DEP_BUDGET", "HAC_PLAN_CACHE", "HAC_TRACE",
      "HAC_PROFILE", "HAC_TIMELINE"};
  std::map<std::string, std::string> Found;
  for (const char *K : Knobs) {
    if (const char *V = std::getenv(K))
      Found[K] = V;
    unsetenv(K);
  }
  setenv("HAC_JIT_CC", "cc", 1);
  return Found;
}

std::string jsonQuote(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      O += ' ';
    else
      O += C;
  }
  return O + "\"";
}

std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

std::string firstLineOf(const std::string &Cmd) {
  std::string Out;
  if (std::FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[512];
    if (std::fgets(Buf, sizeof(Buf), P))
      Out = Buf;
    while (std::fgets(Buf, sizeof(Buf), P))
      ;
    pclose(P);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

std::string provenance(const Args &A,
                       const std::map<std::string, std::string> &Env) {
  std::ostringstream OS;
  OS << "{\"workload\": " << jsonQuote(A.Workload) << ", \"seed\": " << A.Seed
     << ", \"seconds\": " << num(A.Seconds)
     << ", \"trace\": " << (A.Trace ? 1 : 0)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu\": " << jsonQuote(cpuModel())
     << ", \"threads\": 1, \"cc\": " << jsonQuote(jit::compilerCommand())
     << ", \"cc_version\": "
     << jsonQuote(firstLineOf(jit::compilerCommand() + " --version 2>&1"))
     << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
     << ", \"cxx\": " << jsonQuote(__VERSION__)
     << ", \"cxx_flags\": " << jsonQuote(PERFBENCH_CXX_FLAGS)
     << ", \"git_sha\": " << jsonQuote(A.GitSha)
     << ", \"source_digest\": " << jsonQuote(A.SourceDigest)
     << ", \"env_cleared\": {";
  bool First = true;
  for (const auto &[K, V] : Env) {
    OS << (First ? "" : ", ") << jsonQuote(K) << ": " << jsonQuote(V);
    First = false;
  }
  OS << "}, \"env_pinned\": {\"HAC_JIT_CC\": \"cc\"}}";
  return OS.str();
}

/// Moves this process to the next CPU it may use, at most once per Period.
/// On a shared host a vCPU's speed depends on what runs next to it, and it
/// changes over minutes; a busy thread tends to stay on the vCPU it started
/// on, so a run would measure whichever one it landed on. Rotating makes
/// every run sample all of them. Called only between timed sections.
class CpuRotor {
public:
  CpuRotor() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  void tick() {
    if (Cpus.size() < 2 || nowNanos() < Due)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
    Due = nowNanos() + Period;
  }

private:
  static constexpr uint64_t Period = 50'000'000; // 50 ms
  std::vector<int> Cpus;
  size_t Next = 0;
  uint64_t Due = 0;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile (the "inclusive" method).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * (V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double A, double B) { return B == 0 ? 0 : A / B; }

struct Metric {
  std::string Name, Unit;
  double Value;
};

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

/// One program with everything the run keeps for it.
struct Loaded {
  const Program *P = nullptr;
  const Reference *Ref = nullptr;
  CompiledProgram C;
  std::unique_ptr<Executor> Exec; ///< persistent (kernel workloads)
  DoubleArray Out;
  uint64_t TracedOps = 0;
  uint64_t LirReplayNs = 0;
  std::vector<double> OpMs; ///< this program's untraced op latencies
};

constexpr uint32_t ReplayOpBase = 0x80000000u;

class Run {
public:
  Run(const Args &A, std::string Provenance)
      : A(A), Provenance(std::move(Provenance)) {}

  int main();

private:
  const Args &A;
  const std::string Provenance;
  Tracer T;
  CpuRotor Rotor;
  CompileOptions CO = pinnedOptions();
  bool Native = false;

  std::vector<Program> Programs;
  std::vector<Reference> Refs;
  std::vector<Loaded> L;
  std::unique_ptr<jit::JitCompiler> JC; ///< outlives every Executor in L

  // Outcome.
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::vector<std::string> Notes;
  std::vector<double> OpMs, OpMsTraced, WarmMs, SetupS;
  /// Median op latency of each complete untraced round (every program or
  /// kernel once). op_ms_p50 is their median: with six kernels whose
  /// latencies do not overlap, the plain median of all ops falls in the
  /// gap between two kernels and is set by their extreme samples.
  std::vector<double> RoundP50;
  uint64_t OpNs = 0, Cells = 0;
  uint64_t ExecCells = 0;       ///< cells of ops that ran compiled code
  uint64_t TracedExecCells = 0; ///< ... in traced rounds
  ExecStats OpStats;
  /// Plan executions inside timed ops (a module runs one per binding),
  /// and how many of them ran a native kernel.
  uint64_t OpRuns = 0, OpNativeRuns = 0;
  uint64_t Compiles = 0, ThunklessCompiles = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
  uint64_t JitFallbacks = 0;
  uint32_t NextOp = 1;

  // Per-layer facts gathered by the replay.
  uint64_t LirInstrs = 0, AbsintRemoved = 0, KernelCBytes = 0;
  uint64_t JitCompilesCold = 0, JitDiskHits = 0;
  std::vector<double> NativeReplayNsPerCell;

  void fail(const std::string &What) {
    ++Failed;
    Correct = false;
    if (Notes.size() < 20)
      Notes.push_back(What);
  }
  std::string kernelCacheDir() const { return A.WorkDir + "/kernels"; }
  std::unique_ptr<jit::JitCompiler> freshJit(const std::string &Dir) const {
    return std::make_unique<jit::JitCompiler>(
        jit::JitCompiler::Config{Dir, 256ull << 20});
  }
  std::unique_ptr<Executor> executorFor(const CompiledProgram &C,
                                        jit::JitCompiler *J) {
    auto E = std::make_unique<Executor>(makeExecutor(C));
    if (J) {
      E->setJitMode(jit::JitMode::Sync);
      E->setJitCompiler(J);
    }
    if (E->numThreads() != 1)
      fail("executor is not single-threaded");
    return E;
  }
  bool check(const Loaded &X, const DoubleArray &Out, const char *What) {
    if (X.Ref->OK && sameBits(Out, X.Ref->Value))
      return true;
    fail(std::string(What) + " " + X.P->Name + ": " +
         (X.Ref->OK ? "result differs from the lazy interpreter"
                    : "no reference: " + X.Ref->Err));
    return false;
  }

  void setupCorpus();
  void setupKernels();
  bool corpusOp(Loaded &X, uint32_t Op);
  bool kernelOp(Loaded &X, uint32_t Op);
  void warmStart(size_t First, size_t Count);
  void timedLoop();
  void replay();
  bool replayStages(const Program &P, uint32_t Op, CompiledArray &R);
  void checkStageReplay(Loaded &X, uint32_t Op);
  void replayLir(Loaded &X, uint32_t Op,
                 std::vector<std::pair<Loaded *, lir::LIRProgram>> *Jit);
  /// Adds one op's ExecStats delta to the op totals.
  void addStats(const ExecStats &Before, const ExecStats &After) {
    OpStats.Loads += After.Loads - Before.Loads;
    OpStats.Stores += After.Stores - Before.Stores;
    OpStats.BoundsChecks += After.BoundsChecks - Before.BoundsChecks;
    OpStats.CollisionChecks += After.CollisionChecks - Before.CollisionChecks;
    OpStats.RingSaves += After.RingSaves - Before.RingSaves;
    OpStats.SnapshotCopies += After.SnapshotCopies - Before.SnapshotCopies;
  }
  void record(Loaded &X, uint64_t Ns) {
    if (T.recording()) {
      OpMsTraced.push_back(Ns / 1e6);
    } else {
      OpMs.push_back(Ns / 1e6);
      X.OpMs.push_back(Ns / 1e6);
    }
    OpNs += Ns;
  }
  void countCells(const CompiledProgram &C, const DoubleArray &Out,
                  bool Compiled) {
    const uint64_t N = cellsProduced(C, Out);
    Cells += N;
    if (Compiled) {
      ExecCells += N;
      if (T.recording())
        TracedExecCells += N;
    }
  }
  void replayJit(std::vector<std::pair<Loaded *, lir::LIRProgram>> &Progs);
  std::vector<Metric> endToEnd() const;
  std::vector<Metric> perLayer() const;
};

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Programs of each shape in compile_corpus: enough that the per-seed
/// mix of program sizes barely moves the op-time distribution.
constexpr unsigned CorpusPerShape = 96;

/// Repetitions of the set-up; setup_s is their median.
constexpr int SetupReps = 7;

void Run::setupCorpus() {
  // Set-up compiles every program and runs it once, the same work as one
  // pass of ops; the compiled programs are kept for warm starts.
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    Rotor.tick();
    const uint64_t T0 = nowNanos();
    for (Loaded &X : L) {
      X.C = compileProgram(*X.P, CO);
      if (!X.C.ok())
        continue;
      prepareTarget(*X.P, X.Out);
      std::string Err;
      if (X.C.thunkless()) {
        auto E = executorFor(X.C, nullptr);
        runCompiled(*X.P, X.C, *E, X.Out, Err);
      } else {
        runInterpreter(*X.P, X.Out, Err);
      }
    }
    SetupS.push_back((nowNanos() - T0) / 1e9);
  }
}

void Run::setupKernels() {
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    // Destroy the previous repetition's executors before its compiler.
    for (Loaded &X : L)
      X.Exec.reset();
    if (Native) {
      JC.reset();
      std::error_code EC;
      fs::remove_all(kernelCacheDir(), EC);
      fs::create_directories(kernelCacheDir());
      JC = freshJit(kernelCacheDir());
    }
    // The last repetition is recorded in traced runs: its compile and
    // first-run spans are the kernels' per-layer compile numbers.
    T.setRecording(A.Trace && Rep + 1 == SetupReps);
    for (Loaded &X : L)
      prepareTarget(*X.P, X.Out);
    Rotor.tick();
    const uint64_t T0 = nowNanos();
    {
      Tracer::Scope S(T, "bench.setup", 0);
      for (Loaded &X : L) {
        {
          Tracer::Scope C(T, "core.compile", 0);
          X.C = compileProgram(*X.P, CO);
        }
        if (!X.C.ok() || !X.C.thunkless())
          continue;
        X.Exec = executorFor(X.C, JC.get());
        std::string Err;
        Tracer::Scope R(T, "runtime.evaluate", 0);
        runCompiled(*X.P, X.C, *X.Exec, X.Out, Err);
      }
    }
    SetupS.push_back((nowNanos() - T0) / 1e9);
    T.setRecording(false);
  }
  for (Loaded &X : L) {
    if (!X.C.ok())
      fail("compile " + X.P->Name + ": " + X.C.Diags);
    else if (!X.C.thunkless())
      fail("kernel " + X.P->Name + " did not compile thunklessly");
    else
      check(X, X.Out, "first run of");
  }
}

//===----------------------------------------------------------------------===//
// Ops
//===----------------------------------------------------------------------===//

/// compile_corpus: one program from source to result, with a fresh
/// Compiler and a fresh Executor (JIT off), or the interpreter fallback.
bool Run::corpusOp(Loaded &X, uint32_t Op) {
  DoubleArray Out;
  prepareTarget(*X.P, Out);
  std::string Err;
  bool OK = false, Thunkless = false;
  ExecStats Delta;
  LIRCacheStats Cache;
  const uint64_t T0 = nowNanos();
  {
    Tracer::Scope S(T, "bench.op", Op);
    CompiledProgram C;
    {
      Tracer::Scope S2(T, "core.compile", Op);
      C = compileProgram(*X.P, CO);
    }
    if (C.ok() && (Thunkless = C.thunkless())) {
      Executor E = makeExecutor(C);
      Tracer::Scope S3(T, "runtime.evaluate", Op);
      OK = runCompiled(*X.P, C, E, Out, Err);
      Delta = E.stats();
      Cache = E.lirCacheStats();
      OpRuns += E.jitStats().InterpRuns + E.jitStats().NativeRuns;
    } else if (C.ok()) {
      Tracer::Scope S3(T, "interp.runThunked", Op);
      OK = runInterpreter(*X.P, Out, Err);
    } else {
      Err = "compile failed: " + C.Diags;
    }
    if (OK)
      countCells(C, Out, Thunkless);
  }
  const uint64_t Ns = nowNanos() - T0;
  ++Compiles;
  ThunklessCompiles += Thunkless;
  addStats(ExecStats(), Delta);
  CacheHits += Cache.Hits;
  CacheLookups += Cache.Hits + Cache.Misses;
  record(X, Ns);
  if (!OK) {
    fail("op on " + X.P->Name + ": " + Err);
    return false;
  }
  return check(X, Out, "op on");
}

/// stencil_eval / native_sweep: one sweep of a compiled kernel on its
/// persistent Executor (compiling happened in set-up).
bool Run::kernelOp(Loaded &X, uint32_t Op) {
  if (!X.Exec) {
    fail("op on " + X.P->Name + ": kernel did not compile");
    return false;
  }
  Executor &E = *X.Exec;
  prepareTarget(*X.P, X.Out);
  const ExecStats S0 = E.stats();
  const JitExecStats J0 = E.jitStats();
  std::string Err;
  bool OK;
  const uint64_t T0 = nowNanos();
  {
    Tracer::Scope S(T, "bench.op", Op);
    Tracer::Scope S2(T, "runtime.evaluate", Op);
    OK = runCompiled(*X.P, X.C, E, X.Out, Err);
  }
  const uint64_t Ns = nowNanos() - T0;
  addStats(S0, E.stats());
  const JitExecStats &J1 = E.jitStats();
  OpNativeRuns += J1.NativeRuns - J0.NativeRuns;
  OpRuns += J1.NativeRuns + J1.InterpRuns - J0.NativeRuns - J0.InterpRuns;
  record(X, Ns);
  if (!OK) {
    fail("op on " + X.P->Name + ": " + Err);
    return false;
  }
  countCells(X.C, X.Out, true);
  return check(X, X.Out, "op on");
}

/// Time from fresh execution state over already compiled programs to
/// their first verified results: fresh Executors, and on native_sweep a
/// fresh JitCompiler over the filled kernel cache (a new process's view
/// of a warm cache). A corpus warm start covers one program; a kernel
/// warm start covers every kernel, as a new process would.
void Run::warmStart(size_t First, size_t Count) {
  ++Attempted;
  std::vector<DoubleArray> Outs(Count);
  for (size_t I = 0; I != Count; ++I)
    prepareTarget(*L[First + I].P, Outs[I]);
  std::vector<std::string> Errs(Count);
  std::vector<char> OK(Count, 0), RanNative(Count, 1);
  const uint64_t T0 = nowNanos();
  {
    Tracer::Scope S(T, "bench.warm_start", 0);
    std::unique_ptr<jit::JitCompiler> J =
        Native ? freshJit(kernelCacheDir()) : nullptr;
    for (size_t I = 0; I != Count; ++I) {
      Loaded &X = L[First + I];
      if (!X.C.ok() || !X.C.thunkless())
        continue;
      std::unique_ptr<Executor> E = executorFor(X.C, J.get());
      OK[I] = runCompiled(*X.P, X.C, *E, Outs[I], Errs[I]);
      if (Native) {
        RanNative[I] = E->jitStats().NativeRuns > 0;
        JitFallbacks += E->jitStats().Fallbacks;
      }
    }
  }
  WarmMs.push_back((nowNanos() - T0) / 1e6);
  for (size_t I = 0; I != Count; ++I) {
    const Loaded &X = L[First + I];
    if (!X.C.ok() || !X.C.thunkless())
      continue;
    if (!OK[I])
      fail("warm start of " + X.P->Name + ": " + Errs[I]);
    else if (!RanNative[I])
      fail("warm start of " + X.P->Name + " did not run natively");
    else
      check(X, Outs[I], "warm start of");
  }
}

void Run::timedLoop() {
  const bool Corpus = A.Workload == "compile_corpus";
  // Warm starts interleave with the ops: one per WarmEvery ops (every
  // second round of kernels).
  const size_t WarmEvery = Corpus ? 8 : 2 * L.size();
  const uint64_t Deadline = nowNanos() + static_cast<uint64_t>(A.Seconds * 1e9);
  // p90 needs at least ten samples beyond it.
  const size_t MinOps = 120;
  size_t Op = 0, Warm = 0;
  for (size_t Round = 0;; ++Round) {
    // Traced runs alternate untraced and traced rounds; the two op_ms
    // medians give trace.overhead_ratio.
    T.setRecording(A.Trace && Round % 2 == 1);
    const size_t RoundStart = OpMs.size();
    for (size_t I = 0; I != L.size(); ++I, ++Op) {
      Loaded &X = L[I];
      const uint32_t Id = NextOp++;
      ++Attempted;
      X.TracedOps += T.recording();
      Rotor.tick();
      if (Corpus)
        corpusOp(X, Id);
      else
        kernelOp(X, Id);
      if ((Op + 1) % WarmEvery == 0) {
        // Warm starts are not part of the traced comparison.
        const bool Rec = T.recording();
        T.setRecording(false);
        Rotor.tick();
        if (Corpus)
          warmStart(Warm++ % L.size(), 1);
        else
          warmStart(0, L.size());
        T.setRecording(Rec);
      }
      if (Corpus && nowNanos() >= Deadline && Op + 1 >= MinOps)
        break;
    }
    if (!T.recording() && OpMs.size() - RoundStart == L.size())
      RoundP50.push_back(median(std::vector<double>(
          OpMs.begin() + RoundStart, OpMs.end())));
    if (nowNanos() >= Deadline && Op >= MinOps && (!A.Trace || Round % 2))
      break;
  }
  T.setRecording(false);
  if (!Corpus)
    for (Loaded &X : L)
      if (X.Exec) {
        LIRCacheStats S = X.Exec->lirCacheStats();
        CacheHits += S.Hits;
        CacheLookups += S.Hits + S.Misses;
        JitFallbacks += X.Exec->jitStats().Fallbacks;
      }
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

/// Replays Compiler::compileArray stage by stage, in the order of
/// stages::compileArrayBinding. Returns false where compileArray would
/// stop with a diagnostic or a fallback; \p R then holds no plan.
bool Run::replayStages(const Program &P, uint32_t Op, CompiledArray &R) {
  DiagnosticEngine Diags;
  stages::StageContext Ctx{CO, Diags};
  R.Params = CO.Params;
  ExprPtr Ast;
  {
    Tracer::Scope S(T, "frontend.parse", Op);
    Ast = stages::parse(Ctx, P.Source);
  }
  if (!Ast)
    return false;
  const MakeArrayExpr *Make = nullptr;
  {
    Tracer::Scope S(T, "frontend.bind", Op);
    const Expr *E = stages::stripOuterLets(Ast.get(), R.Params, R.InputNames);
    if (const auto *Let = dyn_cast<LetExpr>(E)) {
      for (const LetBind &B : Let->binds())
        if (const auto *M = dyn_cast<MakeArrayExpr>(B.Value.get())) {
          R.Name = B.Name;
          Make = M;
          break;
        }
    } else if (const auto *M = dyn_cast<MakeArrayExpr>(E)) {
      R.Name = "a";
      Make = M;
    }
    if (!Make ||
        !stages::arrayBoundsToDims(Ctx, Make->bounds(), R.Params, R.Dims))
      return false;
  }
  R.Ast = std::move(Ast);
  {
    Tracer::Scope S(T, "comp.nest", Op);
    R.Nest = stages::nest(Ctx, Make->svList(), R.Params);
  }
  if (!R.Nest.Analyzable)
    return false;
  {
    Tracer::Scope S(T, "analysis.dependence", Op);
    R.Graph = stages::dependence(Ctx, R.Nest, R.Name, R.Params,
                                 DepGraphMode::Monolithic);
  }
  {
    Tracer::Scope S(T, "analysis.arrayAnalyses", Op);
    stages::arrayAnalyses(Ctx, R);
  }
  if (R.Collisions.NoCollisions == CheckOutcome::Disproven ||
      R.Graph.HasUnknownRef)
    return false;
  std::vector<const DepEdge *> Flow, All;
  for (const DepEdge &E : R.Graph.Edges) {
    All.push_back(&E);
    if (E.Kind == DepKind::Flow)
      Flow.push_back(&E);
  }
  {
    Tracer::Scope S(T, "schedule.scheduleArray", Op);
    if (!stages::scheduleArray(Ctx, R, Flow))
      return false;
  }
  R.Thunkless = true;
  CollisionAnalysis Col = R.Collisions;
  CoverageAnalysis Cov = R.Coverage;
  ReadBoundsAnalysis Reads = R.ReadBounds;
  stages::maskUnprovenChecks(Ctx, Col, Cov, Reads);
  Tracer::Scope S(T, "codegen.planAndFinish", Op);
  stages::planAndFinish(
      Ctx, R.Plan,
      [&] {
        return buildArrayPlan(R.Nest, R.Sched, R.Name, R.Dims, Col, Cov,
                              Reads);
      },
      All, R.Dims, R.Params);
  return true;
}

/// The replay must reach compileArray's thunkless verdict and, run on a
/// fresh Executor, the reference's bits.
void Run::checkStageReplay(Loaded &X, uint32_t Op) {
  if (X.P->K != Kind::Array && X.P->K != Kind::InPlace)
    return;
  ++Attempted;
  CompiledArray R;
  const bool Thunkless = replayStages(*X.P, Op, R) && R.Thunkless;
  // An in-place program compiled through compileArrayInPlace; ask
  // compileArray itself for the verdict to match.
  bool Expected = X.C.Array && X.C.Array->Thunkless;
  if (X.P->K == Kind::InPlace) {
    Compiler C(CO);
    std::optional<CompiledArray> Plain = C.compileArray(X.P->Source);
    Expected = Plain && Plain->Thunkless;
  }
  if (Thunkless != Expected) {
    fail("stage replay of " + X.P->Name + " changed the thunkless verdict");
    return;
  }
  if (!Thunkless)
    return;
  // The replayed plan runs out of place: an in-place program's reused
  // input is bound as an ordinary input.
  Executor E = makeExecutor(X.C);
  for (const Input &I : X.P->Inputs)
    E.bindInput(I.Name, &I.Data);
  DoubleArray Out;
  std::string Err;
  if (!R.evaluate(Out, E, Err))
    fail("stage replay of " + X.P->Name + ": " + Err);
  else
    check(X, Out, "stage replay of");
}

/// Replays the Executor's LIR pipeline on every plan of \p X and renders
/// the kernel C; the sealed programs are collected for the JIT replay.
void Run::replayLir(Loaded &X, uint32_t Op,
                    std::vector<std::pair<Loaded *, lir::LIRProgram>> *Jit) {
  if (!X.C.ok() || !X.C.thunkless())
    return;
  struct Job {
    const ExecPlan *Plan;
    ArrayDims Dims;
    std::map<std::string, ArrayDims> InDims;
  };
  std::vector<Job> Jobs;
  if (X.C.Module) {
    std::map<std::string, ArrayDims> Siblings;
    for (const ModuleBinding &B : X.C.Module->Bindings)
      Siblings[B.Name] = B.Array.Dims;
    for (const ModuleBinding &B : X.C.Module->Bindings) {
      std::map<std::string, ArrayDims> In = Siblings;
      In.erase(B.Name);
      Jobs.push_back({&B.Array.Plan, B.Array.Dims, In});
    }
  } else {
    const ExecPlan &Plan = X.C.Update ? X.C.Update->Plan : X.C.Array->Plan;
    ArrayDims Dims = X.C.Update ? X.P->input(X.P->Target)->dims()
                                : X.C.Array->Dims;
    std::map<std::string, ArrayDims> In;
    for (const Input &I : X.P->Inputs)
      if (I.Name != X.P->Target)
        In[I.Name] = I.Data.dims();
    Jobs.push_back({&Plan, Dims, In});
  }
  for (const Job &J : Jobs) {
    // An unrecorded warm-up pass first: inside ops this pipeline runs
    // warm, one program after another.
    T.setRecording(false);
    lir::LIRProgram Warm = lir::lowerPlan(*J.Plan, J.Dims, X.C.params(),
                                          J.InDims, false, false);
    lir::stripParFlags(Warm);
    lir::optimize(Warm);
    lir::secondChance(Warm);
    T.setRecording(true);

    const uint64_t T0 = nowNanos();
    lir::LIRProgram P;
    {
      Tracer::Scope S(T, "lir.lowerPlan", Op);
      P = lir::lowerPlan(*J.Plan, J.Dims, X.C.params(), J.InDims,
                         /*ForC=*/false, /*ValidateReads=*/false);
    }
    {
      Tracer::Scope S(T, "lir.optimize", Op);
      lir::stripParFlags(P);
      lir::optimize(P);
    }
    {
      Tracer::Scope S(T, "lir.secondChance", Op);
      AbsintRemoved += lir::secondChance(P);
    }
    std::string Err;
    if (!lir::seal(P, Err)) {
      fail("LIR replay of " + X.P->Name + ": " + Err);
      continue;
    }
    X.LirReplayNs += nowNanos() - T0;
    {
      Tracer::Scope S(T, "lir.analyze", Op);
      (void)lir::analyze(P, lir::AnalyzeOptions());
    }
    LirInstrs += P.Code.size();
    CEmitResult C;
    {
      Tracer::Scope S(T, "codegen.emitKernelC", Op);
      C = emitKernelC(P, "hac_kernel");
    }
    if (C.OK)
      KernelCBytes += C.Code.size();
    if (Jit)
      Jit->push_back({&X, std::move(P)});
  }
}

/// JitCompiler::acquire against an empty private cache (cold: emit, cc,
/// dlopen) and then, with a fresh compiler, against the filled cache
/// (disk hit: no cc).
void Run::replayJit(std::vector<std::pair<Loaded *, lir::LIRProgram>> &Progs) {
  const std::string Dir = A.WorkDir + "/replay-kernels";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir);
  for (int Pass = 0; Pass != 2; ++Pass) {
    auto J = freshJit(Dir);
    Tracer::Scope S(T, Pass == 0 ? "bench.jit_cold" : "bench.jit_disk", 0);
    for (auto &[X, P] : Progs) {
      std::shared_ptr<jit::KernelEntry> K;
      {
        Tracer::Scope S2(T, "jit.acquire", 0);
        K = J->acquire(P, 1, /*Async=*/false, nullptr);
      }
      ++Attempted;
      if (!K || K->state() != jit::KernelEntry::Ready)
        fail("kernel for " + X->P->Name + " failed to build" +
             (K ? ": " + K->Error : ""));
    }
    const jit::JitStats St = J->stats();
    if (Pass == 0)
      JitCompilesCold = St.Compiles;
    else
      JitDiskHits = St.CacheHits;
  }
  // On the evaluator workloads, one native run per program gives what
  // the native tier would do at this size.
  if (Native)
    return;
  auto J = freshJit(Dir);
  std::set<Loaded *> Seen;
  for (auto &[X, P] : Progs) {
    if (!Seen.insert(X).second)
      continue;
    // The first run loads the kernel; the second is the timed sweep.
    DoubleArray Out;
    auto E = executorFor(X->C, J.get());
    std::string Err;
    prepareTarget(*X->P, Out);
    bool OK = runCompiled(*X->P, X->C, *E, Out, Err);
    prepareTarget(*X->P, Out);
    uint64_t T0 = nowNanos(), Ns;
    {
      Tracer::Scope S(T, "bench.native_replay", 0);
      OK = OK && runCompiled(*X->P, X->C, *E, Out, Err);
      Ns = nowNanos() - T0;
    }
    JitFallbacks += E->jitStats().Fallbacks;
    ++Attempted;
    if (!OK || E->jitStats().NativeRuns == 0)
      fail("native replay of " + X->P->Name + ": " + Err);
    else if (check(*X, Out, "native replay of"))
      NativeReplayNsPerCell.push_back(
          static_cast<double>(Ns) / cellsProduced(X->C, Out));
  }
}

void Run::replay() {
  T.setRecording(true);
  std::vector<std::pair<Loaded *, lir::LIRProgram>> Jit;
  // The corpus JIT replay takes a few programs of each kind; the kernels
  // take every plan.
  std::map<Kind, int> PerKind;
  for (size_t I = 0; I != L.size(); ++I) {
    const uint32_t Op = ReplayOpBase + static_cast<uint32_t>(I);
    Tracer::Scope S(T, "bench.replay", Op);
    checkStageReplay(L[I], Op);
    const bool TakeJit =
        A.Workload != "compile_corpus" || PerKind[L[I].P->K]++ < 2;
    replayLir(L[I], Op, TakeJit ? &Jit : nullptr);
  }
  replayJit(Jit);
  T.setRecording(false);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0;
}

std::vector<Metric> Run::endToEnd() const {
  std::vector<Metric> M;
  M.push_back({"setup_s", "s", median(SetupS)});
  M.push_back({"op_ms_p50", "ms",
               RoundP50.empty() ? median(OpMs) : median(RoundP50)});
  M.push_back({"op_ms_p90", "ms", quantile(OpMs, 0.9)});
  M.push_back({"cells_per_s", "1/s", ratio(Cells, OpNs / 1e9)});
  M.push_back({"warm_start_ms_p50", "ms", median(WarmMs)});
  M.push_back({"peak_rss_mb", "MB", peakRssMb()});
  return M;
}

std::vector<Metric> Run::perLayer() const {
  std::vector<Metric> M;
  auto Us = [&](const char *Span) { return median(T.durations(Span)) / 1e3; };
  uint64_t Clauses = 0, Splits = 0, Proven = 0, Outcomes = 0;
  uint64_t Doall = 0, Wave = 0, Serial = 0;
  size_t Peak = 0, NoReuse = 0;
  DepTierCounts Tiers;
  auto CountChecks = [&](const CompiledArray &CA) {
    for (CheckOutcome O :
         {CA.Collisions.NoCollisions, CA.Coverage.NoEmpties,
          CA.Coverage.InBounds, CA.ReadBounds.AllInBounds}) {
      ++Outcomes;
      Proven += O == CheckOutcome::Proven;
    }
  };
  std::function<void(const std::vector<PlanStmt> &)> Loops =
      [&](const std::vector<PlanStmt> &Stmts) {
        for (const PlanStmt &S : Stmts) {
          if (S.K != PlanStmt::Kind::For)
            continue;
          Doall += S.Par == par::ParClass::Doall;
          Wave += S.Par == par::ParClass::WaveOuter;
          Serial += S.Par == par::ParClass::Serial;
          Loops(S.Body);
        }
      };
  auto OneArray = [&](const CompiledArray &CA) {
    Clauses += CA.Nest.numClauses();
    Tiers += CA.Graph.Tiers;
    CountChecks(CA);
    Splits += CA.InPlaceSched.Splits.size();
    if (CA.Thunkless)
      Loops(CA.Plan.Stmts);
  };
  for (const Loaded &X : L) {
    if (X.C.Array)
      OneArray(*X.C.Array);
    if (X.C.Update) {
      Clauses += X.C.Update->Nest.numClauses();
      Tiers += X.C.Update->Graph.Tiers;
      Splits += X.C.Update->Update.Splits.size();
      if (X.C.Update->InPlace)
        Loops(X.C.Update->Plan.Stmts);
    }
    if (X.C.Module) {
      for (const ModuleBinding &B : X.C.Module->Bindings)
        OneArray(B.Array);
      if (X.C.Module->Thunkless) {
        Peak += X.C.Module->Buffers.PeakBytes;
        NoReuse += X.C.Module->Buffers.NoReusePeakBytes;
      }
    }
  }

  M.push_back({"frontend.parse_us", "us", Us("frontend.parse")});
  M.push_back({"comp.nest_us", "us", Us("comp.nest")});
  M.push_back({"comp.clauses", "count", double(Clauses)});
  M.push_back({"analysis.depgraph_us", "us", Us("analysis.dependence")});
  M.push_back({"analysis.checks_us", "us", Us("analysis.arrayAnalyses")});
  M.push_back({"analysis.tier_gcd", "count", double(Tiers.Gcd)});
  M.push_back({"analysis.tier_banerjee", "count", double(Tiers.Banerjee)});
  M.push_back({"analysis.tier_omega", "count", double(Tiers.Omega)});
  M.push_back({"analysis.tier_exact", "count", double(Tiers.Exact)});
  M.push_back({"analysis.tier_unknown", "count", double(Tiers.Unknown)});
  M.push_back({"analysis.checks_proven_ratio", "ratio",
               ratio(Proven, Outcomes)});
  M.push_back({"schedule.us", "us", Us("schedule.scheduleArray")});
  M.push_back({"schedule.node_splits", "count", double(Splits)});
  M.push_back({"codegen.plan_us", "us", Us("codegen.planAndFinish")});
  M.push_back({"codegen.kernel_c_bytes", "bytes", double(KernelCBytes)});
  M.push_back({"codegen.emit_us", "us", Us("codegen.emitKernelC")});
  M.push_back({"parallel.loops_doall", "count", double(Doall)});
  M.push_back({"parallel.loops_wavefront", "count", double(Wave)});
  M.push_back({"parallel.loops_serial", "count", double(Serial)});
  M.push_back({"core.compile_us", "us", Us("core.compile")});
  M.push_back({"core.thunkless_ratio", "ratio",
               Compiles ? ratio(ThunklessCompiles, Compiles)
                        : ratio(std::count_if(L.begin(), L.end(),
                                              [](const Loaded &X) {
                                                return X.C.thunkless();
                                              }),
                                L.size())});
  M.push_back({"core.module_reuse_ratio", "ratio", ratio(Peak, NoReuse)});
  M.push_back({"lir.lower_us", "us", Us("lir.lowerPlan")});
  M.push_back({"lir.optimize_us", "us", Us("lir.optimize")});
  M.push_back({"lir.absint_us", "us", Us("lir.secondChance")});
  M.push_back({"lir.analyze_us", "us", Us("lir.analyze")});
  M.push_back({"lir.instrs", "count", double(LirInstrs)});
  M.push_back({"lir.absint_checks_removed", "count", double(AbsintRemoved)});

  // Runtime: the first run after compiling (in ops on compile_corpus, in
  // set-up on the kernel workloads) and the timed sweeps.
  const std::vector<double> Sweep =
      T.durations("runtime.evaluate", "bench.op");
  const std::vector<double> First =
      A.Workload == "compile_corpus"
          ? Sweep
          : T.durations("runtime.evaluate", "bench.setup");
  const double SweepNs = std::accumulate(Sweep.begin(), Sweep.end(), 0.0);
  M.push_back({"runtime.first_run_us", "us", median(First) / 1e3});
  M.push_back({"runtime.sweep_us", "us", median(Sweep) / 1e3});
  M.push_back({"runtime.ns_per_cell", "ns", ratio(SweepNs, TracedExecCells)});
  const double RunCells = static_cast<double>(ExecCells);
  M.push_back({"runtime.loads_per_cell", "ratio", ratio(OpStats.Loads, RunCells)});
  M.push_back({"runtime.stores_per_cell", "ratio", ratio(OpStats.Stores, RunCells)});
  M.push_back({"runtime.checks_per_cell", "ratio",
               ratio(OpStats.BoundsChecks + OpStats.CollisionChecks, RunCells)});
  M.push_back({"runtime.copies_per_cell", "ratio",
               ratio(OpStats.RingSaves + OpStats.SnapshotCopies, RunCells)});
  M.push_back({"runtime.plan_cache_hit_ratio", "ratio",
               ratio(CacheHits, CacheLookups)});

  // JIT: cold and disk-warm acquisition from the replay.
  M.push_back({"jit.acquire_cold_ms", "ms",
               median(T.durations("jit.acquire", "bench.jit_cold")) / 1e6});
  M.push_back({"jit.compiles", "count", double(JitCompilesCold)});
  M.push_back({"jit.fallbacks", "count", double(JitFallbacks)});
  M.push_back({"jit.acquire_disk_ms", "ms",
               median(T.durations("jit.acquire", "bench.jit_disk")) / 1e6});
  M.push_back({"jit.cache_hits", "count", double(JitDiskHits)});
  const double NativeNs =
      Native ? ratio(SweepNs, TracedExecCells) : median(NativeReplayNsPerCell);
  M.push_back({"jit.native_ns_per_cell", "ns", NativeNs});
  // Computed bytes: every counted load and store moves 8 bytes; cache
  // behaviour is not measured.
  const double BytesPerCell = ratio(OpStats.Loads + OpStats.Stores, RunCells) * 8;
  M.push_back({"jit.native_gbps_computed", "GB/s", ratio(BytesPerCell, NativeNs)});
  M.push_back({"jit.native_run_share", "ratio", ratio(OpNativeRuns, OpRuns)});

  // Interpreter: fallback runs inside ops on compile_corpus; elsewhere
  // the reference runs (the same runThunked call, at the kernel's size).
  std::vector<double> Interp = T.durations("interp.runThunked");
  if (Interp.empty())
    for (const Reference &R : Refs)
      Interp.push_back(static_cast<double>(R.InterpNanos));
  M.push_back({"interp.fallback_us", "us", median(Interp) / 1e3});

  // Tracing and layer dominance.
  M.push_back({"trace.overhead_ratio", "ratio",
               ratio(median(OpMsTraced), median(OpMs))});
  const std::vector<double> Ops = T.durations("bench.op");
  const std::vector<double> Compiles = T.durations("core.compile", "bench.op");
  const double OpTotal = std::accumulate(Ops.begin(), Ops.end(), 0.0);
  const double CompileInOps =
      std::accumulate(Compiles.begin(), Compiles.end(), 0.0);
  double LirInOps = 0;
  for (const Loaded &X : L)
    LirInOps += static_cast<double>(X.LirReplayNs) * X.TracedOps;
  M.push_back({"trace.compile_share", "ratio", ratio(CompileInOps, OpTotal)});
  M.push_back({"trace.lir_share", "ratio",
               A.Workload == "compile_corpus" ? ratio(LirInOps, OpTotal) : 0});
  M.push_back({"trace.compile_calls_in_ops", "count",
               double(Compiles.size())});
  return M;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

int Run::main() {
  Native = A.Workload == "native_sweep";
  const bool Corpus = A.Workload == "compile_corpus";
  if (Corpus)
    Programs = generateCorpus(A.Seed, CorpusPerShape);
  else
    Programs = paperKernels(Native ? 1024 : 512, A.Seed);

  // References first, in a child process, before any thread exists.
  Refs = computeReferences(Programs, A.WorkDir);
  L.resize(Programs.size());
  for (size_t I = 0; I != Programs.size(); ++I) {
    L[I].P = &Programs[I];
    L[I].Ref = &Refs[I];
  }

  if (Corpus)
    setupCorpus();
  else
    setupKernels();
  timedLoop();
  if (A.Trace)
    replay();

  if (Native && OpNativeRuns != OpRuns)
    fail("not every native_sweep op ran a native kernel");
  for (const std::string &N : Notes)
    std::fprintf(stderr, "perfbench: FAILED %s\n", N.c_str());

  const std::vector<Metric> Ms = A.Trace ? perLayer() : endToEnd();
  std::ostringstream R;
  R << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    R << (I ? ", " : "") << jsonQuote(Ms[I].Name) << ": {\"value\": "
      << num(Ms[I].Value) << ", \"unit\": " << jsonQuote(Ms[I].Unit) << "}";
  R << "}}";

  const std::string Stem = A.OutDir + "/" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + "-trace" +
                           (A.Trace ? "1" : "0");
  {
    std::ofstream OS(Stem + ".json");
    OS << "{\"provenance\": " << Provenance << ",\n \"op_samples\": "
       << OpMs.size() << ", \"warm_samples\": " << WarmMs.size()
       << ",\n \"result\": " << R.str() << ",\n \"op_ms_p50_by_"
       << (Corpus ? "shape" : "kernel") << "\": {";
    // One row per kernel (per shape on compile_corpus).
    std::map<std::string, std::vector<double>> By;
    for (const Loaded &X : L)
      By[X.P->Shape].insert(By[X.P->Shape].end(), X.OpMs.begin(),
                            X.OpMs.end());
    bool First = true;
    for (const auto &[Name, V] : By) {
      OS << (First ? "" : ", ") << jsonQuote(Name) << ": " << num(median(V));
      First = false;
    }
    OS << "}}\n";
  }
  if (A.Trace) {
    std::ofstream OS(Stem + "-spans.json");
    T.writeJson(OS);
  }
  std::printf("perfbench: %zu op samples, %zu warm-start samples, "
              "%zu set-ups\n",
              OpMs.size() + OpMsTraced.size(), WarmMs.size(), SetupS.size());
  std::printf("%s\n", R.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: hac_perfbench --workload "
                 "compile_corpus|stencil_eval|native_sweep --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
                 "[--git-sha SHA] [--source-digest HEX]\n");
    return 2;
  }
  const std::map<std::string, std::string> Env = pinEnvironment();
  std::error_code EC;
  fs::create_directories(A.WorkDir, EC);
  fs::create_directories(A.OutDir, EC);
  std::string Prov = provenance(A, Env);
  std::printf("perfbench provenance: %s\n", Prov.c_str());
  std::fflush(stdout);
  Run R(A, std::move(Prov));
  return R.main();
}
