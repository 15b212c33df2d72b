//===- codegen/ExecPlan.h - Executable loop program IR ----------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level imperative program produced from a schedule: a tree of
/// DO-loops (with directions) and element stores, plus the node-splitting
/// apparatus (ring buffers and snapshots, Section 9) and flags saying
/// which runtime checks the analyses could and could not eliminate
/// (Sections 4 and 7).
///
/// Ring buffers implement rolling-temporary node splitting: every store
/// first saves the element's old value into a ring slot keyed by the
/// carried loop's phase and the deeper loop ordinals; redirected reads
/// fetch from the slot their saving instance wrote (or from the array
/// itself when the saving instance does not exist). A single ring per
/// clause serves all of its rolling splits — for the paper's Jacobi this
/// is exactly the "previous row" vector plus carried scalar.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CODEGEN_EXECPLAN_H
#define HAC_CODEGEN_EXECPLAN_H

#include "analysis/ArrayChecks.h"
#include "comp/CompNest.h"
#include "parallel/ParPlan.h"
#include "schedule/Scheduler.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hac {

/// One ring buffer serving the rolling splits of a single clause.
struct RingSpec {
  unsigned Id = 0;
  const ClauseNode *Clause = nullptr;
  /// Carried loop level c (index into Clause->loops()).
  unsigned Level = 0;
  /// Ring depth D: slots for the last D phases of loop c.
  int64_t Depth = 1;
  /// Trip counts of the loops deeper than c, outermost first.
  std::vector<int64_t> DeeperTrips;

  size_t size() const {
    size_t S = static_cast<size_t>(Depth);
    for (int64_t T : DeeperTrips)
      S *= static_cast<size_t>(T > 0 ? T : 0);
    return S;
  }
};

/// Redirection of one read to a ring buffer.
struct RingRedirect {
  unsigned RingId = 0;
  /// The level k the split's dependence is carried at (>= ring Level).
  unsigned Level = 0;
  int64_t Distance = 1;
};

/// A snapshot temporary: a pre-pass copy of a region of the target array.
struct SnapshotSpec {
  unsigned Id = 0;
  /// Inclusive [min, max] per dimension.
  std::vector<std::pair<int64_t, int64_t>> Region;

  size_t size() const {
    size_t S = 1;
    for (const auto &[Lo, Hi] : Region)
      S *= Hi >= Lo ? static_cast<size_t>(Hi - Lo + 1) : 0;
    return S;
  }
};

/// Redirection of one read to a snapshot.
struct SnapshotRedirect {
  unsigned SnapId = 0;
};

/// One statement in the plan.
struct PlanStmt {
  enum class Kind : uint8_t { For, Store } K = Kind::Store;

  // Kind::For — one pass of a loop.
  const LoopNode *Loop = nullptr;
  bool Backward = false;
  std::vector<PlanStmt> Body;
  /// Parallel class assigned by the ParPlanner (Serial until it runs)
  /// plus the human-readable proof witness / blocking reason. Lowering
  /// mirrors the class onto the LIR loop flags; hac-verify surfaces
  /// serial witnesses as HAC008 notes.
  par::ParClass Par = par::ParClass::Serial;
  std::string ParWitness;

  // Kind::Store — evaluate one clause instance and store it. Guards are
  // evaluated first; RingId >= 0 requests an old-value save before the
  // store.
  const ClauseNode *Clause = nullptr;
  int SaveRingId = -1;

  static PlanStmt makeFor(const LoopNode *L, bool Backward,
                          std::vector<PlanStmt> Body) {
    PlanStmt S;
    S.K = Kind::For;
    S.Loop = L;
    S.Backward = Backward;
    S.Body = std::move(Body);
    return S;
  }
  static PlanStmt makeStore(const ClauseNode *C, int SaveRingId) {
    PlanStmt S;
    S.K = Kind::Store;
    S.Clause = C;
    S.SaveRingId = SaveRingId;
    return S;
  }
};

/// A complete executable plan for one array construction or update.
struct ExecPlan {
  /// Name the target array is referenced by inside clause values.
  std::string TargetName;
  /// For in-place storage reuse (the Gauss-Seidel / Livermore 23 pattern):
  /// reads of this *input* array name resolve to the target storage too.
  std::string AliasName;
  ArrayDims Dims;
  std::vector<PlanStmt> Stmts;

  std::vector<RingSpec> Rings;
  std::vector<SnapshotSpec> Snapshots;
  /// Read expressions (ArraySub nodes inside clause values) redirected by
  /// node splitting.
  std::map<const Expr *, RingRedirect> RingRedirects;
  std::map<const Expr *, SnapshotRedirect> SnapRedirects;

  /// Runtime checks left over after analysis (Sections 4 and 7).
  bool CheckStoreBounds = true;
  bool CheckCollisions = true;
  bool CheckEmpties = true;
  /// Per-read bounds checks; false when the read-bounds analysis proved
  /// every array read in bounds (the verifier's HAC005 proof).
  bool CheckReadBounds = true;

  /// True for in-place updates (bigupd): the target starts defined and
  /// collisions are sequencing, not errors.
  bool InPlace = false;

  /// Set for accumArray constructions: untouched elements hold this
  /// initial value, which the Executor prefills the target with.
  std::optional<double> AccumInit;

  /// Unique identity assigned by the plan builders. The Executor's LIR
  /// cache keys on it, so two plans that happen to reuse the same stack
  /// or heap address never alias a cached compilation (0 = unassigned,
  /// never cached).
  uint64_t Id = 0;

  /// Human-readable rendering (tests, the depgraph tool).
  std::string str() const;
};

/// Lowers a schedule to an executable plan for a *monolithic* array
/// construction. Check flags are derived from \p Collisions / \p Coverage
/// (a Proven outcome eliminates the corresponding runtime check).
ExecPlan buildArrayPlan(const CompNest &Nest, const Schedule &Sched,
                        const std::string &TargetName, const ArrayDims &Dims,
                        const CollisionAnalysis &Collisions,
                        const CoverageAnalysis &Coverage,
                        const ReadBoundsAnalysis &ReadBounds);

/// Lowers an update schedule (with node splits) to an in-place plan.
ExecPlan buildUpdatePlan(const CompNest &Nest, const UpdateSchedule &Update,
                         const std::string &TargetName,
                         const ArrayDims &Dims);

/// Lowers an in-place *construction* (a monolithic array whose result
/// overwrites input array \p ReuseName — Section 9's storage-reuse case):
/// schedule and node splits come from \p Update (computed over flow +
/// anti edges), check flags from the construction analyses.
ExecPlan buildInPlaceArrayPlan(const CompNest &Nest,
                               const UpdateSchedule &Update,
                               const std::string &TargetName,
                               const std::string &ReuseName,
                               const ArrayDims &Dims,
                               const CollisionAnalysis &Collisions,
                               const CoverageAnalysis &Coverage,
                               const ReadBoundsAnalysis &ReadBounds);

} // namespace hac

#endif // HAC_CODEGEN_EXECPLAN_H
