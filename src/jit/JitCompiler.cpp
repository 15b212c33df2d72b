//===- jit/JitCompiler.cpp - Tiered kernel compilation --------------------===//

#include "jit/JitCompiler.h"

#include "codegen/CEmitter.h"
#include "jit/NativeBuild.h"
#include "lir/LIR.h"
#include "lir/LIRPasses.h"
#include "parallel/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>

using namespace hac;
using namespace hac::jit;

/// Every kernel exports this one symbol; dlopen handles keep the
/// objects apart.
static const char *const KernelSymbol = "hac_kernel";

JitCompiler::JitCompiler(Config C)
    : Cache(KernelCache::Config{std::move(C.CacheDir), C.CacheBytes}) {}

JitCompiler::~JitCompiler() { waitIdle(); }

JitCompiler &JitCompiler::global() {
  static JitCompiler G(Config{cacheDirFromEnv(), cacheBytesFromEnv()});
  return G;
}

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

std::shared_ptr<KernelEntry> JitCompiler::acquire(
    const lir::LIRProgram &EvalProg, unsigned Threads, bool Async,
    par::ThreadPool *Pool) {
  // Copy synchronously — the evaluator's cached program can be evicted
  // while a background compile is still reading. A serial kernel drops
  // the par flags; a parallel one gets the stricter C legality pass
  // (rendered checks may not sit inside an OpenMP region), which is
  // idempotent over the eval legalization since demotion is monotone.
  auto Prog = std::make_shared<lir::LIRProgram>(EvalProg);
  const unsigned PinThreads = lir::legalizeKernel(*Prog, Threads);
  const bool OpenMP = PinThreads && *detectedOmpFlag() != '\0';
  const KernelKey Key = makeKernelKey(lir::printLIR(*Prog), PinThreads, OpenMP);

  std::shared_ptr<KernelEntry> Entry;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Table.find(Key.H);
    if (It != Table.end()) {
      ++Stats.CacheHits;
      HAC_TRACE_COUNT("jit.cache_hits");
      return It->second;
    }
    Entry = std::make_shared<KernelEntry>();
    Entry->CanFail = lir::canFail(*Prog);
    Entry->KeyHex = Key.hex();
    Table[Key.H] = Entry;
    ++InFlight;
  }
  if (Async && Pool) {
    Pool->submit([this, Entry, Prog, Key, PinThreads, OpenMP] {
      compileEntry(Entry, Prog, Key, PinThreads, OpenMP);
    });
  } else {
    HAC_TRACE_SPAN(Span, "jit.compile");
    compileEntry(Entry, Prog, Key, PinThreads, OpenMP);
  }
  return Entry;
}

void JitCompiler::compileEntry(std::shared_ptr<KernelEntry> Entry,
                               std::shared_ptr<lir::LIRProgram> Prog,
                               const KernelKey &Key, unsigned Threads,
                               bool OpenMP) {
  const uint64_t T0 = nowNanos();
  std::string Error;
  KernelFn Fn = nullptr;
  bool FromDisk = false;
  bool Compiled = false;
  KernelCacheStats DiskBefore, DiskAfter;
  {
    // Disk-cache metadata under CacheM; cc itself runs unlocked below.
    std::lock_guard<std::mutex> Lock(CacheM);
    DiskBefore = Cache.stats();
    std::string So = Cache.lookup(Key, KernelSymbol);
    if (!So.empty()) {
      // dlopen via a unique scratch name (stageForLoad) so a cache
      // path that was already loaded — and possibly replaced since —
      // in this process can never alias onto a stale mapping.
      std::string LoadErr;
      std::string Staged = stageForLoad(So, LoadErr);
      if (!Staged.empty())
        Fn = reinterpret_cast<KernelFn>(
            loadKernelSymbol(Staged, KernelSymbol, LoadErr));
      if (Fn) {
        FromDisk = true;
      } else {
        // A cached object that no longer loads (toolchain drift, bit
        // rot): drop it and recompile below.
        Cache.invalidate(Key);
      }
    }
    DiskAfter = Cache.stats();
  }
  if (!Fn) {
    KernelEmitOptions Opts;
    Opts.Threads = Threads;
    CEmitResult Emit = emitKernelC(*Prog, KernelSymbol, Opts);
    if (!Emit.OK) {
      Error = "kernel emission failed: " + Emit.Error;
    } else {
      // Compiled and dlopened entirely inside the scratch dir under a
      // per-compile unique name, then copied into the cache by
      // commit(): the loaded mapping can never be aliased by a later
      // dlopen of the (mutable) cache path nor torn down by tampering
      // with the cache file, and concurrent compiles of *different*
      // keys cannot corrupt each other — the table already
      // deduplicates same-key compiles.
      static std::atomic<unsigned> Serial{0};
      const std::string StagedSo =
          scratchDir() + "/" + Key.hex() + "-" + std::to_string(Serial++) +
          ".so";
      BuildResult Build = compileSharedObject(Emit.Code, StagedSo, OpenMP);
      if (!Build.OK) {
        Error = Build.Error;
      } else {
        Fn = reinterpret_cast<KernelFn>(
            loadKernelSymbol(Build.SoPath, KernelSymbol, Error));
        std::lock_guard<std::mutex> Lock(CacheM);
        if (Fn) {
          Cache.commit(Key, KernelSymbol, Build.SoPath);
          Compiled = true;
        } else {
          Cache.invalidate(Key);
        }
        DiskAfter = Cache.stats();
      }
    }
  }
  const uint64_t Nanos = nowNanos() - T0;
  {
    std::lock_guard<std::mutex> Lock(M);
    Stats.Evictions += DiskAfter.Evictions - DiskBefore.Evictions;
    Stats.Corrupt += DiskAfter.Corrupt - DiskBefore.Corrupt;
    Stats.CompileNanos += Nanos;
    if (FromDisk) {
      ++Stats.CacheHits;
    } else {
      ++Stats.CacheMisses;
      if (Compiled)
        ++Stats.Compiles;
    }
    if (!Fn)
      ++Stats.CompileFailures;
  }
  HAC_TRACE_COUNT("jit.compile_ns", Nanos);
  if (FromDisk)
    HAC_TRACE_COUNT("jit.cache_hits");
  else
    HAC_TRACE_COUNT("jit.cache_misses");
  if (Compiled)
    HAC_TRACE_COUNT("jit.compiles");
  // Publish last: the state flips only once Fn/Error/FromDisk are
  // final, so an acquire-side reader of Ready/Failed sees them settled.
  if (Fn) {
    Entry->FromDisk = FromDisk;
    Entry->Fn.store(Fn, std::memory_order_release);
    Entry->St.store(KernelEntry::Ready, std::memory_order_release);
  } else {
    Entry->Error = Error;
    Entry->St.store(KernelEntry::Failed, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> Lock(M);
    if (--InFlight == 0)
      IdleCV.notify_all();
  }
}

void JitCompiler::waitIdle() {
  std::unique_lock<std::mutex> Lock(M);
  IdleCV.wait(Lock, [&] { return InFlight == 0; });
}

JitStats JitCompiler::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}
