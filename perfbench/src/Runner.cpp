//===- perfbench/src/Runner.cpp - Calls into the library ------------------===//

#include "Runner.h"

#include "analysis/Omega.h"
#include "core/InterpBridge.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace hac;

CompileOptions perfbench::pinnedOptions() {
  CompileOptions O;
  O.ExactBudget = 100'000;
  O.OmegaBudget = omega::kDefaultBudget;
  O.DepSelfCheck = false;
  O.EnableCheckElimination = true;
  O.ValidateReads = false;
  O.VerifyLIR = false;
  O.VerifyLIRThreads = 1;
  return O;
}

bool CompiledProgram::thunkless() const {
  if (Array)
    return Array->Thunkless;
  if (Update)
    return Update->InPlace;
  if (Module)
    return Module->Thunkless;
  return false;
}

const ParamEnv &CompiledProgram::params() const {
  static const ParamEnv Empty;
  if (Array)
    return Array->Params;
  if (Update)
    return Update->Params;
  if (Module)
    return Module->Params;
  return Empty;
}

CompiledProgram perfbench::compileProgram(const Program &P,
                                          const CompileOptions &Options) {
  CompiledProgram C;
  if (P.K == Kind::Module) {
    ModuleCompiler MC(Options);
    C.Module = MC.compileModule(P.Source);
    if (!C.Module)
      C.Diags = MC.diags().str();
    return C;
  }
  Compiler TheCompiler(Options);
  switch (P.K) {
  case Kind::Array:
    C.Array = TheCompiler.compileArray(P.Source);
    break;
  case Kind::InPlace:
    C.Array = TheCompiler.compileArrayInPlace(P.Source, P.Target);
    break;
  case Kind::Update:
    C.Update = TheCompiler.compileUpdate(P.Source);
    break;
  case Kind::Accum:
    C.Array = TheCompiler.compileAccum(P.Source);
    break;
  case Kind::Module:
    break;
  }
  if (!C.ok())
    C.Diags = TheCompiler.diags().str();
  return C;
}

Executor perfbench::makeExecutor(const CompiledProgram &C) {
  Executor Exec(C.params());
  Exec.setNumThreads(1);
  Exec.setJitMode(jit::JitMode::Off);
  return Exec;
}

void perfbench::prepareTarget(const Program &P, DoubleArray &Out) {
  if (P.K == Kind::InPlace || P.K == Kind::Update)
    Out = *P.input(P.Target);
}

bool perfbench::runCompiled(const Program &P, const CompiledProgram &C,
                            Executor &Exec, DoubleArray &Out,
                            std::string &Err) {
  if (C.Module)
    return evaluateModule(*C.Module, {}, Exec, Out, Err);
  // The in-place target is the storage being updated, never an input.
  for (const Input &I : P.Inputs)
    if (I.Name != P.Target)
      Exec.bindInput(I.Name, &I.Data);
  if (C.Update)
    return C.Update->evaluateInPlace(Out, Exec, Err);
  if (P.K == Kind::InPlace)
    return C.Array->evaluateInPlace(Out, Exec, Err);
  return C.Array->evaluate(Out, Exec, Err);
}

bool perfbench::runInterpreter(const Program &P, DoubleArray &Out,
                               std::string &Err) {
  std::map<std::string, const DoubleArray *> Inputs;
  for (const Input &I : P.Inputs)
    Inputs[I.Name] = &I.Data;
  Interpreter Interp;
  Interp.setFuel(20'000'000'000ull);
  DiagnosticEngine Diags;
  ValuePtr V = runThunked(P.RefSource.empty() ? P.Source : P.RefSource,
                         Inputs, Interp, Diags);
  if (V->isError()) {
    Err = V->str();
    return false;
  }
  std::optional<DoubleArray> A = interpArrayToDouble(Interp, V, Err);
  if (!A)
    return false;
  Out = std::move(*A);
  return true;
}

uint64_t perfbench::cellsProduced(const CompiledProgram &C,
                                  const DoubleArray &Result) {
  if (C.Module && C.Module->Thunkless) {
    uint64_t N = 0;
    for (const ModuleBinding &B : C.Module->Bindings) {
      uint64_t S = 1;
      for (const auto &[Lo, Hi] : B.Array.Dims)
        S *= static_cast<uint64_t>(Hi - Lo + 1);
      N += S;
    }
    return N;
  }
  return Result.size();
}

bool perfbench::sameBits(const DoubleArray &A, const DoubleArray &B) {
  return A.dims() == B.dims() && A.size() == B.size() &&
         (A.size() == 0 ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

namespace {

template <typename T> void put(std::FILE *F, const T &V) {
  std::fwrite(&V, sizeof(T), 1, F);
}
template <typename T> bool get(std::FILE *F, T &V) {
  return std::fread(&V, sizeof(T), 1, F) == 1;
}

void writeReference(std::FILE *F, const Reference &R) {
  put<uint8_t>(F, R.OK);
  put<uint64_t>(F, R.InterpNanos);
  put<uint64_t>(F, R.Err.size());
  std::fwrite(R.Err.data(), 1, R.Err.size(), F);
  put<uint64_t>(F, R.Value.dims().size());
  for (const auto &[Lo, Hi] : R.Value.dims()) {
    put<int64_t>(F, Lo);
    put<int64_t>(F, Hi);
  }
  std::fwrite(R.Value.data(), sizeof(double), R.Value.size(), F);
}

bool readReference(std::FILE *F, Reference &R) {
  uint8_t OK;
  uint64_t Len, Rank;
  if (!get(F, OK) || !get(F, R.InterpNanos) || !get(F, Len))
    return false;
  R.OK = OK;
  R.Err.resize(Len);
  if (std::fread(R.Err.data(), 1, Len, F) != Len || !get(F, Rank))
    return false;
  DoubleArray::Dims D(Rank);
  for (auto &[Lo, Hi] : D)
    if (!get(F, Lo) || !get(F, Hi))
      return false;
  R.Value = DoubleArray(D);
  return std::fread(R.Value.data(), sizeof(double), R.Value.size(), F) ==
         R.Value.size();
}

} // namespace

/// Worker processes computing references; each takes every
/// RefWorkers-th program. Two halve the wait at n=1024 (the interpreter
/// peaks at about 1.3 GB per worker there) and keep memory modest.
constexpr size_t RefWorkers = 2;

std::vector<Reference>
perfbench::computeReferences(const std::vector<Program> &Ps,
                             const std::string &Scratch) {
  std::vector<Reference> Refs(Ps.size());
  auto PathOf = [&](size_t W) {
    return Scratch + "/references." + std::to_string(W) + ".bin";
  };
  std::fflush(nullptr);
  std::vector<pid_t> Pids;
  for (size_t W = 0; W != RefWorkers; ++W) {
    pid_t Pid = fork();
    if (Pid == 0) {
      std::FILE *F = std::fopen(PathOf(W).c_str(), "wb");
      if (!F)
        _exit(2);
      for (size_t I = W; I < Ps.size(); I += RefWorkers) {
        Reference R;
        const auto T0 = std::chrono::steady_clock::now();
        R.OK = runInterpreter(Ps[I], R.Value, R.Err);
        R.InterpNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - T0)
                            .count();
        if (!R.OK)
          R.Value = DoubleArray();
        writeReference(F, R);
      }
      _exit(std::fclose(F) == 0 ? 0 : 3);
    }
    Pids.push_back(Pid);
  }
  for (size_t W = 0; W != RefWorkers; ++W) {
    int Status = 0;
    const bool Exited = Pids[W] > 0 && waitpid(Pids[W], &Status, 0) == Pids[W] &&
                        WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    std::FILE *F = Exited ? std::fopen(PathOf(W).c_str(), "rb") : nullptr;
    bool Good = F != nullptr;
    for (size_t I = W; I < Ps.size(); I += RefWorkers)
      if (!Good || !(Good = readReference(F, Refs[I]))) {
        Refs[I] = Reference();
        Refs[I].Err = "reference interpreter process failed";
      }
    if (F)
      std::fclose(F);
    std::remove(PathOf(W).c_str());
  }
  return Refs;
}
