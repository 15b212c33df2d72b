//===- lir/LIR.h - Flat register-based loop IR ------------------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified Loop IR (LIR): a flat, register-based instruction stream
/// sitting between ExecPlan and both backends. One LIRLowering compiles a
/// plan exactly once — loop variables and `let` bindings become numbered
/// slots (no name lookups), subscripts become linearized address chains
/// ready for strength reduction, and ring/snapshot redirects, guards,
/// fused folds, and residual runtime checks become explicit instructions.
/// The in-process evaluator (LIREval) interprets the stream; the C
/// printer in CEmitter renders the *same* stream as nested DO-loops.
///
/// Slot model: slots are a flat numbered register file, statically typed
/// (int64 or double; booleans are int slots holding 0/1). Most slots are
/// written exactly once; the only multi-definition slots are loop
/// induction variables/ordinals, fold accumulators, and the result slots
/// of if/and/or merges — the optimization passes only touch
/// single-definition slots.
///
/// Control flow is region-structured: LoopBegin/LoopEnd,
/// LoopDynBegin/LoopDynEnd and IfBegin/[Else]/IfEnd must nest properly.
/// `seal()` resolves the Jump cross-links from the region structure after
/// the passes have run; the evaluator then never scans for a matching
/// end marker.
///
/// The C printer renders every instruction the evaluator runs — checks as
/// real C checks, counters as adds into the kernel's stats block — so the
/// emitted C fails exactly where the evaluator does; it refuses only
/// programs holding Fail or CheckDefined. The differential suite pins
/// that invariant: Executor and CEmitter consume identical LIR.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_LIR_LIR_H
#define HAC_LIR_LIR_H

#include <cstdint>
#include <string>
#include <vector>

namespace hac {
namespace lir {

/// LIR opcodes. Operand conventions (slots unless noted):
///  A = destination, B/C = sources, Imm0..Imm2 = immediates,
///  FImm = float immediate, Str = string-table index, Jump = resolved by
///  seal().
enum class LOp : uint8_t {
  // Constants and moves.
  ConstI, ///< A = Imm0
  ConstF, ///< A = FImm
  MovI,   ///< A = B
  MovF,   ///< A = B
  IToF,   ///< A = (double)B

  // Integer arithmetic. DivI/ModI must be preceded by a CheckNonZeroI on
  // the divisor; they are the only faulting arithmetic ops.
  AddI, SubI, MulI, DivI, ModI, NegI, AbsI, MinI, MaxI,
  AddImmI, ///< A = B + Imm0
  MulImmI, ///< A = B * Imm0
  ModImmI, ///< A = B % Imm0 (Imm0 != 0, C semantics)

  // Double arithmetic (non-faulting, IEEE).
  AddF, SubF, MulF, DivF, ModF, NegF, AbsF, MinF, MaxF, SqrtF,

  // Comparisons: A (int 0/1) = B op C.
  CmpEqI, CmpNeI, CmpLtI, CmpLeI, CmpGtI, CmpGeI,
  CmpEqF, CmpNeF, CmpLtF, CmpLeF, CmpGtF, CmpGeF,
  NotB, ///< A = !B

  // Region-structured control flow.
  // LoopBegin: A = induction var slot, B = 1-based ordinal slot,
  //   Imm0 = iv initial value, Imm1 = per-iteration iv delta,
  //   Imm2 = trip count; FlagBackward selects ordinal Trip..1 instead of
  //   1..Trip. Trip <= 0 skips the body entirely. Jump -> LoopEnd.
  // LoopEnd mirrors the Begin fields; Jump -> LoopBegin.
  LoopBegin, LoopEnd,
  // LoopDynBegin: A = iv slot (initialized by a preceding MovI),
  //   B = hi slot, C = step slot. Iterates while
  //   step > 0 ? iv <= hi : iv >= hi. Jump -> LoopDynEnd.
  // LoopDynEnd: A = iv, C = step; iv += step. Jump -> LoopDynBegin.
  LoopDynBegin, LoopDynEnd,
  // IfBegin: A = condition slot. Jump -> Else (if present) else IfEnd.
  // Else: Jump -> IfEnd.
  IfBegin, Else, IfEnd,

  // Memory. All loads count ExecStats::Loads in the evaluator. LoadT,
  // LoadIn and StoreT address R[B] + Imm1: the displacement lets IV
  // coalescing fold a constant offset into the access (0 = plain R[B]).
  LoadT,    ///< A = target[B + Imm1]
  LoadIn,   ///< A = inputs[Imm0][B + Imm1]
  LoadRing, ///< A = ring[Imm0][B]
  LoadSnap, ///< A = snap[Imm0][B]
  StoreT,   ///< target[B + Imm1] = C; marks it defined; counts Stores
  SaveRing, ///< ring[Imm0][B] = target[C]; counts RingSaves
  SnapSaveT,///< snap[Imm0][B] = target[C]; counts SnapshotCopies

  // Runtime checks. CheckIdx: fail/return Imm2 unless Imm0 <= B <= Imm1
  // (message Str). CheckNonZeroI: fail/return Imm2 when B == 0.
  // CheckCollision: count CollisionChecks, then fail when target element
  // B is already defined (C: rc = 2). CheckDefined: fail when target
  // element B is not yet defined (schedule validation; evaluator only,
  // the C printer refuses programs containing it).
  CheckIdx, CheckCollision, CheckDefined, CheckNonZeroI,

  // ExecStats counters (Imm0 = increment). The passes may merge and
  // hoist them (counter folding) but keep ExecStats totals identical on
  // success and at every failure point, so the optimizer never changes
  // what a run reports.
  CountBounds, CountGuard, CountFused,

  // Unconditional failure with message Str. The evaluator fails only
  // when the instruction is actually executed; the C printer refuses to
  // emit any program containing one (emission-time error, matching the
  // seed backend's behavior for unsupported constructs).
  Fail,
};

const char *opName(LOp Op);

enum : uint8_t {
  FlagBackward = 1u << 1, ///< LoopBegin/LoopEnd: ordinal runs Trip..1
  /// LoopBegin/LoopEnd parallel classes from the ParPlanner. The passes
  /// and the serial evaluator ignore them; the legality pass
  /// (legalizePar) demotes any loop whose lowered body turned out to
  /// contain a construct the parallel runtime cannot execute concurrently
  /// (rings, defined-bitmap checks, ...).
  FlagParDoall = 1u << 2,     ///< iterations are independent
  FlagParWaveOuter = 1u << 3, ///< outer loop of a wavefront pair
  FlagParWaveInner = 1u << 4, ///< inner loop of a wavefront pair
  /// CheckIdx only: a front-end analysis claimed this fact proven (e.g.
  /// store bounds with Plan.CheckStoreBounds == false), and the lowering
  /// kept the check as a shadow of the claim. The LIR translation
  /// validator must re-derive the claim on the optimized stream or report
  /// HAC009; checks without the flag carry no such obligation.
  FlagProvenClaim = 1u << 5,
};

/// All parallel-class flag bits.
inline constexpr uint8_t ParFlagMask =
    FlagParDoall | FlagParWaveOuter | FlagParWaveInner;

/// One LIR instruction.
struct LInst {
  LOp Op = LOp::Fail;
  uint8_t Flags = 0;
  int32_t A = -1, B = -1, C = -1;
  int64_t Imm0 = 0, Imm1 = 0, Imm2 = 0;
  double FImm = 0.0;
  int32_t Str = -1;
  int32_t Jump = -1;
  /// LoopBegin/LoopDynBegin: index into LIRProgram::Loops, or -1. The
  /// passes copy instructions wholesale, so the attribution survives
  /// every pass and the par-flag rewrites; only the profiler reads it.
  int32_t Meta = -1;

  bool backward() const { return Flags & FlagBackward; }
  bool parDoall() const { return Flags & FlagParDoall; }
  bool parWaveOuter() const { return Flags & FlagParWaveOuter; }
  bool parWaveInner() const { return Flags & FlagParWaveInner; }
  bool provenClaim() const { return Flags & FlagProvenClaim; }
};

/// Source attribution for one lowered loop (profiler side table). The
/// lowering records one entry per LoopBegin/LoopDynBegin it emits; the
/// instruction's Meta field indexes this table. Purely descriptive: the
/// evaluator and the C emitter never read it.
struct LoopMeta {
  /// The comprehension generator variable, or "<fold>" / "<snapshot>"
  /// for loops the lowering synthesized itself.
  std::string Var;
  /// Source location of the originating comprehension clause (1-based;
  /// Line == 0 when unknown).
  uint32_t Line = 0;
  uint32_t Col = 0;
  /// Static nesting depth at lowering time (outermost loops are 0).
  uint32_t Depth = 0;
  /// Index of the enclosing loop's meta, or -1 for top-level loops.
  int32_t Parent = -1;
  /// par::ParClass the planner assigned (0 = serial). Stored as a raw
  /// byte so this header stays dependency-free.
  uint8_t ParClass = 0;
  /// The HAC008 witness explaining why a loop stayed serial ("" when
  /// parallel or never examined).
  std::string Witness;
  /// Compile-time trip count, or -1 for dynamic-bound loops.
  int64_t StaticTrip = -1;
};

/// A complete lowered program: the instruction stream plus everything the
/// shells (evaluator prologue/epilogue, C function frame) need.
struct LIRProgram {
  /// Target array dimensions the lowering baked into every address chain.
  std::vector<std::pair<int64_t, int64_t>> TargetDims;
  size_t TargetSize = 0;
  /// Input arrays in inputs[] order (LoadIn Imm0 indexes this).
  std::vector<std::string> InputNames;
  /// Ring / snapshot temporary sizes in elements.
  std::vector<size_t> RingSizes;
  std::vector<size_t> SnapSizes;
  /// Whether the target needs a defined bitmap (collisions or empties).
  bool HasDefined = false;
  /// Run the post-pass empties sweep (Section 4).
  bool CheckEmpties = false;

  uint32_t NumSlots = 0;
  std::vector<uint8_t> SlotIsF; ///< per-slot: 1 = double, 0 = int64
  std::vector<LInst> Code;
  std::vector<std::string> Strs;
  /// Loop attribution table (LInst::Meta indexes it).
  std::vector<LoopMeta> Loops;

  /// Pass statistics (lir.* trace counters).
  uint64_t NumHoisted = 0;
  uint64_t NumStrengthReduced = 0;
  uint64_t NumDce = 0;
  /// Carried address slots folded onto another induction of their loop
  /// (lir.ivs_coalesced).
  uint64_t NumIvsCoalesced = 0;
  /// Counter instructions merged into another or hoisted out of a loop
  /// (lir.counters_folded).
  uint64_t NumCountersFolded = 0;
  /// Residual checks deleted by the abstract-interpretation second-chance
  /// pass (lir.absint.second_chance).
  uint64_t NumAbsintElim = 0;

  int32_t intern(const std::string &S) {
    for (size_t I = 0; I != Strs.size(); ++I)
      if (Strs[I] == S)
        return static_cast<int32_t>(I);
    Strs.push_back(S);
    return static_cast<int32_t>(Strs.size() - 1);
  }
  const std::string &str(int32_t Id) const { return Strs[Id]; }

  uint32_t newSlot(bool IsF) {
    SlotIsF.push_back(IsF ? 1 : 0);
    return NumSlots++;
  }
};

/// Resolves every Jump cross-link from the region structure. Returns
/// false (with \p Err) on malformed nesting.
bool seal(LIRProgram &P, std::string &Err);

/// Structural verifier: region nesting, slot/string/jump ranges, operand
/// types. Returns an empty string when the program is well-formed.
std::string verify(const LIRProgram &P);

/// Textual rendering (hacc -dump-lir, golden tests).
std::string printLIR(const LIRProgram &P);

/// Whether a run of \p P can stop mid-run, after some stores have landed:
/// the program holds a check.idx, check.nonzero, check.collision,
/// check.defined or fail. Such a run starts from a prefilled target (the
/// Executor) and a native kernel from a pre-image copy (the JIT).
bool canFail(const LIRProgram &P);

/// Which slots an instruction writes (0, 1, or 2 of them).
inline int writtenSlots(const LInst &I, int32_t Out[2]) {
  switch (I.Op) {
  case LOp::LoopBegin:
  case LOp::LoopEnd:
    Out[0] = I.A;
    Out[1] = I.B;
    return 2;
  case LOp::LoopDynBegin:
  case LOp::LoopDynEnd:
    Out[0] = I.A;
    return 1;
  case LOp::IfBegin:
  case LOp::Else:
  case LOp::IfEnd:
  case LOp::StoreT:
  case LOp::SaveRing:
  case LOp::SnapSaveT:
  case LOp::CheckIdx:
  case LOp::CheckCollision:
  case LOp::CheckDefined:
  case LOp::CheckNonZeroI:
  case LOp::CountBounds:
  case LOp::CountGuard:
  case LOp::CountFused:
  case LOp::Fail:
    return 0;
  default:
    Out[0] = I.A;
    return 1;
  }
}

/// Which slots an instruction reads (up to 3).
inline int readSlots(const LInst &I, int32_t Out[3]) {
  switch (I.Op) {
  case LOp::ConstI:
  case LOp::ConstF:
  case LOp::Fail:
  case LOp::CountBounds:
  case LOp::CountGuard:
  case LOp::CountFused:
  case LOp::IfEnd:
  case LOp::Else:
  case LOp::LoopBegin:
    return 0;
  case LOp::LoopEnd: {
    Out[0] = I.A;
    Out[1] = I.B;
    return 2;
  }
  case LOp::LoopDynBegin: {
    Out[0] = I.A;
    Out[1] = I.B;
    Out[2] = I.C;
    return 3;
  }
  case LOp::LoopDynEnd: {
    Out[0] = I.A;
    Out[1] = I.C;
    return 2;
  }
  case LOp::MovI:
  case LOp::MovF:
  case LOp::IToF:
  case LOp::NegI:
  case LOp::AbsI:
  case LOp::NegF:
  case LOp::AbsF:
  case LOp::SqrtF:
  case LOp::NotB:
  case LOp::AddImmI:
  case LOp::MulImmI:
  case LOp::ModImmI:
    Out[0] = I.B;
    return 1;
  case LOp::IfBegin:
    Out[0] = I.A;
    return 1;
  case LOp::LoadT:
  case LOp::LoadIn:
  case LOp::LoadRing:
  case LOp::LoadSnap:
  case LOp::CheckIdx:
  case LOp::CheckCollision:
  case LOp::CheckDefined:
  case LOp::CheckNonZeroI:
    Out[0] = I.B;
    return 1;
  case LOp::StoreT:
  case LOp::SaveRing:
  case LOp::SnapSaveT:
    Out[0] = I.B;
    Out[1] = I.C;
    return 2;
  default: // binary arithmetic / comparisons
    Out[0] = I.B;
    Out[1] = I.C;
    return 2;
  }
}

/// True for pure, non-faulting value computations: safe to hoist,
/// sink, or delete when data flow allows (LICM / DCE candidate set).
inline bool isPureValueOp(LOp Op) {
  switch (Op) {
  case LOp::ConstI:
  case LOp::ConstF:
  case LOp::MovI:
  case LOp::MovF:
  case LOp::IToF:
  case LOp::AddI:
  case LOp::SubI:
  case LOp::MulI:
  case LOp::NegI:
  case LOp::AbsI:
  case LOp::MinI:
  case LOp::MaxI:
  case LOp::AddImmI:
  case LOp::MulImmI:
  case LOp::ModImmI:
  case LOp::AddF:
  case LOp::SubF:
  case LOp::MulF:
  case LOp::DivF:
  case LOp::ModF:
  case LOp::NegF:
  case LOp::AbsF:
  case LOp::MinF:
  case LOp::MaxF:
  case LOp::SqrtF:
  case LOp::CmpEqI:
  case LOp::CmpNeI:
  case LOp::CmpLtI:
  case LOp::CmpLeI:
  case LOp::CmpGtI:
  case LOp::CmpGeI:
  case LOp::CmpEqF:
  case LOp::CmpNeF:
  case LOp::CmpLtF:
  case LOp::CmpLeF:
  case LOp::CmpGtF:
  case LOp::CmpGeF:
  case LOp::NotB:
    return true;
  default:
    return false;
  }
}

} // namespace lir
} // namespace hac

#endif // HAC_LIR_LIR_H
