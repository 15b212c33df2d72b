//===- jit/KernelCache.h - Content-addressed kernel store -------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the JIT's kernel cache. Kernels are content-
/// addressed: the key hashes the sealed LIR's textual serialization
/// (printLIR — deterministic by construction, it is what the lir golden
/// tests pin) together with every emission option that changes the
/// generated C (thread pin, OpenMP flag) and the kernel ABI version.
/// Identical programs therefore share one compile across runs and
/// processes; any change to the IR printer, the emitter, or the ABI
/// changes the key or the manifest version and can never load a stale
/// object against mismatched expectations.
///
/// Layout of the cache directory:
///   MANIFEST            "hac-kernel-cache <version>" — purged wholesale
///                       on mismatch (emitter/ABI generation changes)
///   <key16>.so          the compiled kernel
///   <key16>.meta        key + symbol echo; a corrupt or half-written
///                       pair is unlinked and recompiled, never loaded
///
/// Eviction is LRU by mtime under a byte cap (HAC_JIT_CACHE_MB):
/// lookups touch their entry, inserts evict oldest-first until under
/// the cap.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_JIT_KERNELCACHE_H
#define HAC_JIT_KERNELCACHE_H

#include <cstdint>
#include <string>

namespace hac {
namespace jit {

/// Bumped whenever the generated kernel ABI or the meaning of cached
/// bytes changes; part of both the content hash and the MANIFEST. The
/// key hashes the LIR text, not the C, so any change to the C that a
/// given LIR text renders to must bump it too — otherwise a disk cache
/// filled by the old printer keeps serving the old kernels.
/// 2: `defined` is written only under LIRProgram::HasDefined (then
///    unguarded and `restrict`), serial wave pairs render as strips.
constexpr unsigned KernelAbiVersion = 2;

/// A content key for one kernel: FNV-1a 64 over the LIR text and the
/// emission options.
struct KernelKey {
  uint64_t H = 0;
  /// 16 lowercase hex digits; the cache file basename.
  std::string hex() const;
};

/// Derives the key for a sealed program's printLIR text compiled with
/// \p Threads (0 = serial) and \p OpenMP.
KernelKey makeKernelKey(const std::string &LirText, unsigned Threads,
                        bool OpenMP);

/// Counters mirrored onto the jit.* trace counters by the compiler.
struct KernelCacheStats {
  uint64_t Hits = 0;      ///< valid disk entries reused
  uint64_t Misses = 0;    ///< lookups that found nothing usable
  uint64_t Evictions = 0; ///< entries removed by the size cap
  uint64_t Corrupt = 0;   ///< entries unlinked as unreadable/mismatched
};

/// The on-disk store. Not internally synchronized — the owning
/// JitCompiler serializes access.
class KernelCache {
public:
  struct Config {
    std::string Dir;                   ///< cache directory (created lazily)
    uint64_t MaxBytes = 256ull << 20;  ///< LRU size cap
  };

  explicit KernelCache(Config C);

  /// Path of a valid cached object for \p Key, or "" on a miss. A
  /// corrupt pair (unreadable meta, key/symbol mismatch, missing or
  /// non-ELF .so) is unlinked, counted, and reported as a miss. Hits
  /// touch the entry's mtime.
  std::string lookup(const KernelKey &Key, const std::string &Symbol);

  /// Where \p Key's object lives inside the cache directory.
  std::string soPathFor(const KernelKey &Key) const;

  /// Publishes an entry: moves the compiled object from \p SrcSo
  /// (a scratch staging path — the compiler dlopens it *there*, under
  /// a unique name, before committing) into soPathFor(), writes the
  /// meta sidecar, and enforces the size cap (never evicting the entry
  /// just committed). Best-effort: a failed move leaves the kernel
  /// un-cached but the caller's loaded copy stays valid.
  void commit(const KernelKey &Key, const std::string &Symbol,
              const std::string &SrcSo);

  /// Drops \p Key's pair — called when a cached object fails to
  /// dlopen/dlsym so the next run recompiles instead of re-failing.
  void invalidate(const KernelKey &Key);

  const KernelCacheStats &stats() const { return Stats; }
  const std::string &dir() const { return Dir; }

private:
  void ensureDir();
  void enforceCap(const std::string &Keep);

  std::string Dir;
  uint64_t MaxBytes;
  bool Ready = false; ///< directory exists and MANIFEST validated
  KernelCacheStats Stats;
};

} // namespace jit
} // namespace hac

#endif // HAC_JIT_KERNELCACHE_H
