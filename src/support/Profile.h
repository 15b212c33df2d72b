//===- support/Profile.h - Source-attributed execution profiles -*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-profile sink: per-loop runtime totals (trip counts,
/// dispatched LIR instructions, executed runtime checks, inclusive wall
/// time) attributed back to the originating comprehension clause's
/// source location, plus thread-pool utilization telemetry.
///
/// Like TraceSink, the sink is process-global and disabled by default;
/// the disabled fast path is a single inline branch on one bool, so the
/// Executor's instrumentation stays wired in permanently. Setting the
/// HAC_PROFILE environment variable enables profiling in any binary and
/// dumps the hot-loop table to stderr at process exit.
///
/// The sink stores plain data only — it knows nothing about the LIR.
/// The Executor converts LIRProgram::Loops plus the evaluator's
/// EvalProfile into one ProgramProfile per run and records it here;
/// `hacc -profile` renders the merged result.
///
/// Counter semantics (the stable part of the interface, pinned by
/// profile_test): Entries/Trips/Instrs/Checks on a successful run are
/// bit-identical across thread counts for the same lowered program —
/// parallel loops are charged analytically with their serial-equivalent
/// instruction counts. Nanos is wall time and naturally varies.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_SUPPORT_PROFILE_H
#define HAC_SUPPORT_PROFILE_H

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hac {

/// One loop's accumulated execution totals, with source attribution.
struct ProfiledLoop {
  /// The comprehension generator variable, or "<fold>" / "<snapshot>"
  /// for compiler-synthesized loops.
  std::string Var;
  /// Source location of the originating clause (1-based; 0 = unknown).
  uint32_t Line = 0;
  uint32_t Col = 0;
  /// Static nesting depth (outermost loops are 0).
  uint32_t Depth = 0;
  /// Index of the enclosing loop within the same ProgramProfile::Loops,
  /// or -1 for top-level loops.
  int32_t Parent = -1;
  /// The par class the loop actually executed as ("serial", "doall",
  /// "wave-outer", "wave-inner").
  std::string ParClass = "serial";
  /// HAC008 witness explaining why the planner kept the loop serial
  /// ("" when parallel or never examined).
  std::string Witness;

  uint64_t Entries = 0; ///< times the loop was entered with >= 1 trip
  uint64_t Trips = 0;   ///< iterations executed
  uint64_t Instrs = 0;  ///< LIR instructions dispatched (inclusive)
  uint64_t Checks = 0;  ///< runtime check instructions executed (inclusive)
  uint64_t Nanos = 0;   ///< inclusive wall time
};

/// Everything profiled about one compiled program (target array),
/// accumulated across runs.
struct ProgramProfile {
  std::string Name; ///< the target array name
  /// The execution tier that ran: "interp" (the LIR evaluator) or
  /// "native" (a JIT-compiled kernel). Part of the merge key, so a plan
  /// that hot-swaps tiers mid-stream reports one row per tier.
  std::string Tier = "interp";
  uint64_t Runs = 0;
  uint64_t RootInstrs = 0; ///< whole-program dispatched instructions
  uint64_t RootChecks = 0;
  uint64_t RootNanos = 0; ///< whole-program wall time inside evalLIR
  std::vector<ProfiledLoop> Loops;
};

/// Thread-pool utilization telemetry (accumulated deltas).
struct PoolUtilization {
  uint64_t Jobs = 0; ///< parallelFor barriers executed
  struct Worker {
    uint64_t Tasks = 0;     ///< tasks this worker executed
    uint64_t IdleNanos = 0; ///< time spent blocked waiting for work
  };
  std::vector<Worker> Workers;
};

/// The process-global profile sink.
class ProfileSink {
public:
  /// The singleton. First access seeds the enabled flag from the
  /// HAC_PROFILE environment variable.
  static ProfileSink &get();

  bool enabled() const { return Enabled; }
  void setEnabled(bool E) { Enabled = E; }

  /// Drops all recorded profiles (the enabled flag is unchanged).
  void clear();

  /// True when nothing has been recorded.
  bool empty() const;

  /// Merges one run's profile. Programs are keyed on (Name, loop
  /// structure): a re-run of the same lowered program accumulates into
  /// the existing entry, anything else appends a new one.
  void record(const ProgramProfile &P);

  /// Merges one run's pool-stat deltas (element-wise by worker index).
  void recordPool(const PoolUtilization &U);

  /// Copy-out under the mutex (safe while workers run).
  std::vector<ProgramProfile> programsSnapshot() const;
  PoolUtilization poolSnapshot() const;

  /// Renders the ranked hot-loop table (inclusive wall time, descending)
  /// with source locations, par classes, and HAC008 witnesses for
  /// serial loops, followed by the pool utilization summary.
  void printTable(std::ostream &OS) const;

  /// Writes {"programs": [...], "pool": {...}} — a JSON object callers
  /// embed in larger telemetry documents.
  void writeJson(std::ostream &OS, unsigned Indent = 0) const;

private:
  ProfileSink();

  mutable std::mutex Mutex;
  bool Enabled = false;
  std::vector<ProgramProfile> Programs;
  PoolUtilization Pool;
};

/// True when the global profile sink is recording. Use to guard
/// non-trivial instrumentation (profile assembly, stat folding).
inline bool profileEnabled() { return ProfileSink::get().enabled(); }

} // namespace hac

#endif // HAC_SUPPORT_PROFILE_H
