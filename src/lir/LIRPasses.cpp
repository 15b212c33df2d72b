//===- lir/LIRPasses.cpp - LIR optimization passes ------------------------===//
//
// The passes only consult the region structure (Begin/End markers),
// never the Jump fields — but the def/use scans need the loop-closer
// operand mirroring seal() performs, so optimize() seals on entry and
// the caller must seal again afterwards (moves invalidate Jump).
//
// Every pass is one sweep: the loop passes visit the loops innermost
// first and, when a visit edits the stream, shift the bounds of the
// loops still to come instead of rescanning; coalescing, DCE and
// counter folding are linear walks over the stream.
//
// Memory and check operations are never created, moved, or deleted
// except where documented. Counter instructions (CountBounds/CountGuard/
// CountFused) are only merged and hoisted by counter folding, whose
// contract is that ExecStats totals are identical on success and at
// every failure point.
//
//===----------------------------------------------------------------------===//

#include "lir/LIRPasses.h"

#include "lir/LIRAbsint.h"
#include "lir/LIRLowering.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace hac;
using namespace hac::lir;

namespace {

bool isOpenOp(LOp Op) {
  return Op == LOp::LoopBegin || Op == LOp::LoopDynBegin ||
         Op == LOp::IfBegin;
}
bool isCloseOp(LOp Op) {
  return Op == LOp::LoopEnd || Op == LOp::LoopDynEnd || Op == LOp::IfEnd;
}

/// The memory operations whose address is `R[B] + Imm1`.
bool hasDisplacement(LOp Op) {
  return Op == LOp::LoadT || Op == LOp::LoadIn || Op == LOp::StoreT;
}

struct Region {
  size_t Begin = 0;
  size_t End = 0;
};

/// All loop regions, innermost before any loop enclosing them (the order
/// their End markers appear in).
std::vector<Region> collectLoops(const std::vector<LInst> &Code) {
  std::vector<Region> Loops;
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Code.size(); ++I) {
    if (isOpenOp(Code[I].Op)) {
      Stack.push_back(I);
    } else if (isCloseOp(Code[I].Op)) {
      size_t B = Stack.back();
      Stack.pop_back();
      if (Code[B].Op != LOp::IfBegin)
        Loops.push_back({B, I});
    }
  }
  return Loops;
}

/// For every region opener, the index of its closing marker (and of the
/// Else of an if, or the IfEnd when there is none).
struct RegionMap {
  std::vector<size_t> Close, Else;
  explicit RegionMap(const std::vector<LInst> &Code)
      : Close(Code.size(), 0), Else(Code.size(), 0) {
    std::vector<size_t> Stack;
    for (size_t I = 0; I != Code.size(); ++I) {
      LOp Op = Code[I].Op;
      if (isOpenOp(Op)) {
        Stack.push_back(I);
      } else if (Op == LOp::Else) {
        Else[Stack.back()] = I;
      } else if (isCloseOp(Op)) {
        size_t B = Stack.back();
        Stack.pop_back();
        Close[B] = I;
        if (Code[B].Op == LOp::IfBegin && Else[B] == 0)
          Else[B] = I;
      }
    }
  }
};

/// A set of slots that clears in O(1).
class SlotSet {
  std::vector<uint32_t> Stamp;
  uint32_t Cur = 1;

public:
  void clear(size_t NumSlots) {
    if (Stamp.size() < NumSlots)
      Stamp.resize(NumSlots, 0);
    ++Cur;
  }
  void insert(int32_t S) { Stamp[static_cast<size_t>(S)] = Cur; }
  void erase(int32_t S) { Stamp[static_cast<size_t>(S)] = 0; }
  bool contains(int32_t S) const {
    return static_cast<size_t>(S) < Stamp.size() &&
           Stamp[static_cast<size_t>(S)] == Cur;
  }
};

/// Resets \p W to the slots written anywhere in L, markers included.
void markWritten(const LIRProgram &P, Region L, SlotSet &W) {
  W.clear(P.NumSlots);
  int32_t Buf[2];
  for (size_t I = L.Begin; I <= L.End; ++I) {
    int N = writtenSlots(P.Code[I], Buf);
    for (int K = 0; K != N; ++K)
      W.insert(Buf[K]);
  }
}

/// Whole-stream definition and read counts per slot, kept current by
/// the passes that add or delete instructions.
struct SlotCounts {
  std::vector<uint32_t> Defs, Uses;
  explicit SlotCounts(const LIRProgram &P) {
    for (const LInst &I : P.Code)
      add(I, P.NumSlots);
  }
  void add(const LInst &I, size_t NumSlots) {
    if (Defs.size() < NumSlots) {
      Defs.resize(NumSlots, 0);
      Uses.resize(NumSlots, 0);
    }
    int32_t Buf[3];
    int N = writtenSlots(I, Buf);
    for (int K = 0; K != N; ++K)
      ++Defs[Buf[K]];
    N = readSlots(I, Buf);
    for (int K = 0; K != N; ++K)
      ++Uses[Buf[K]];
  }
  void remove(const LInst &I) {
    int32_t Buf[3];
    int N = writtenSlots(I, Buf);
    for (int K = 0; K != N; ++K)
      --Defs[Buf[K]];
    N = readSlots(I, Buf);
    for (int K = 0; K != N; ++K)
      --Uses[Buf[K]];
  }
};

/// Indices of the instructions at nesting depth 0 of the loop body
/// (region markers themselves excluded).
std::vector<size_t> topLevelOf(const std::vector<LInst> &Code, Region L) {
  std::vector<size_t> Out;
  int Depth = 0;
  for (size_t I = L.Begin + 1; I < L.End; ++I) {
    LOp Op = Code[I].Op;
    if (isOpenOp(Op)) {
      ++Depth;
      continue;
    }
    if (isCloseOp(Op)) {
      --Depth;
      continue;
    }
    if (Op == LOp::Else)
      continue;
    if (Depth == 0)
      Out.push_back(I);
  }
  return Out;
}

/// Moves the flagged top-level instructions of L, in order, ahead of its
/// LoopBegin. Everything stays inside the enclosing loops, so the bounds
/// of every region outside L are unchanged.
void moveToPreheader(LIRProgram &P, Region L, const std::vector<size_t> &Top,
                     const std::vector<char> &Move) {
  std::vector<LInst> Seg;
  Seg.reserve(L.End - L.Begin + 1);
  for (size_t K = 0; K != Top.size(); ++K)
    if (Move[K])
      Seg.push_back(P.Code[Top[K]]);
  size_t K = 0;
  for (size_t I = L.Begin; I <= L.End; ++I) {
    if (K < Top.size() && Top[K] == I && Move[K++])
      continue;
    Seg.push_back(P.Code[I]);
  }
  std::copy(Seg.begin(), Seg.end(),
            P.Code.begin() + static_cast<ptrdiff_t>(L.Begin));
}

//===--------------------------------------------------------------------===//
// Loop-invariant code motion
//===--------------------------------------------------------------------===//

uint64_t licmLoop(LIRProgram &P, Region L, const SlotCounts &SC,
                  SlotSet &W) {
  markWritten(P, L, W);
  std::vector<size_t> Top = topLevelOf(P.Code, L);
  std::vector<char> Move(Top.size(), 0);
  uint64_t N = 0;
  for (bool Grow = true; Grow;) {
    Grow = false;
    for (size_t K = 0; K != Top.size(); ++K) {
      const LInst &In = P.Code[Top[K]];
      if (Move[K] || !isPureValueOp(In.Op) || SC.Defs[In.A] != 1)
        continue;
      int32_t Rd[3];
      int NR = readSlots(In, Rd);
      bool OK = true;
      for (int J = 0; J != NR && OK; ++J)
        OK = !W.contains(Rd[J]);
      if (!OK)
        continue;
      Move[K] = 1;
      W.erase(In.A); // its only definition now sits outside the loop
      ++N;
      Grow = true;
    }
  }
  if (N)
    moveToPreheader(P, L, Top, Move);
  return N;
}

bool licmSweep(LIRProgram &P, const SlotCounts &SC, SlotSet &W) {
  uint64_t N = 0;
  for (Region L : collectLoops(P.Code))
    N += licmLoop(P, L, SC, W);
  P.NumHoisted += N;
  return N != 0;
}

//===--------------------------------------------------------------------===//
// Strength reduction
//===--------------------------------------------------------------------===//

/// Rewrites address chains in one static loop. An instruction whose
/// value changes by a known constant per iteration becomes a carried
/// slot: the preheader computes its first-iteration value into a fresh
/// slot and copies it in, one AddImmI at the loop tail advances it, and
/// the in-loop definition disappears. Chains reference the fresh
/// preheader slots, so the init code is itself single-definition and
/// reducible when the enclosing loop is processed (multi-level SR).
/// Returns the number of instructions the stream grew by.
size_t srLoop(LIRProgram &P, Region L, SlotCounts &SC, SlotSet &W) {
  const LInst Begin = P.Code[L.Begin];
  if (Begin.Op != LOp::LoopBegin)
    return 0;
  std::vector<size_t> Top = topLevelOf(P.Code, L);
  bool AnyCandidate = false;
  for (size_t I : Top) {
    LOp Op = P.Code[I].Op;
    AnyCandidate |= Op == LOp::AddImmI || Op == LOp::MulImmI ||
                    Op == LOp::AddI || Op == LOp::SubI;
  }
  if (!AnyCandidate)
    return 0;

  const int32_t Iv = Begin.A, Ord = Begin.B;
  const int64_t IvDelta = Begin.Imm1;
  const int64_t OrdDelta = Begin.backward() ? -1 : 1;
  const int64_t IvInit = Begin.Imm0;
  const int64_t OrdInit = Begin.backward() ? Begin.Imm2 : 1;
  markWritten(P, L, W);
  // Reads inside L per slot, counted on the first candidate that gets
  // as far as the escape test.
  std::vector<uint32_t> InUses;
  auto usedOnlyInside = [&](int32_t S) {
    if (InUses.empty()) {
      InUses.assign(P.NumSlots, 0);
      int32_t Rd[3];
      for (size_t I = L.Begin; I <= L.End; ++I) {
        int N = readSlots(P.Code[I], Rd);
        for (int K = 0; K != N; ++K)
          ++InUses[Rd[K]];
      }
    }
    return InUses[S] == SC.Uses[S];
  };

  std::vector<std::pair<int32_t, int64_t>> Delta; // accepted dst, delta
  std::vector<std::pair<int32_t, int64_t>> Fresh; // accepted dst, init slot
  std::vector<char> Removed(Top.size(), 0);
  std::vector<LInst> Pre, Tail;
  int32_t IvC = -1, OrdC = -1;

  auto find = [](const std::vector<std::pair<int32_t, int64_t>> &V,
                 int32_t S) -> std::optional<int64_t> {
    for (const auto &[K, X] : V)
      if (K == S)
        return X;
    return std::nullopt;
  };
  auto getDelta = [&](int32_t S) -> std::optional<int64_t> {
    if (S == Iv)
      return IvDelta;
    if (S == Ord)
      return OrdDelta;
    if (auto D = find(Delta, S))
      return D;
    if (!W.contains(S))
      return 0;
    return std::nullopt;
  };
  auto canMaterialize = [&](int32_t S) {
    return S == Iv || S == Ord || find(Fresh, S) || !W.contains(S);
  };
  auto materializeConst = [&](int32_t &Cache, int64_t V) {
    if (Cache < 0) {
      Cache = static_cast<int32_t>(P.newSlot(false));
      LInst CI;
      CI.Op = LOp::ConstI;
      CI.A = Cache;
      CI.Imm0 = V;
      Pre.push_back(CI);
    }
    return Cache;
  };
  auto materialize = [&](int32_t S) -> int32_t {
    if (S == Iv)
      return materializeConst(IvC, IvInit);
    if (S == Ord)
      return materializeConst(OrdC, OrdInit);
    return static_cast<int32_t>(find(Fresh, S).value_or(S));
  };

  for (size_t K = 0; K != Top.size(); ++K) {
    const LInst &In = P.Code[Top[K]];
    std::optional<int64_t> D;
    switch (In.Op) {
    case LOp::AddImmI:
      D = getDelta(In.B);
      break;
    case LOp::MulImmI:
      if (auto B = getDelta(In.B))
        D = *B * In.Imm0;
      break;
    case LOp::AddI:
      if (auto B = getDelta(In.B))
        if (auto C = getDelta(In.C))
          D = *B + *C;
      break;
    case LOp::SubI:
      if (auto B = getDelta(In.B))
        if (auto C = getDelta(In.C))
          D = *B - *C;
      break;
    default:
      continue;
    }
    if (!D || *D == 0 || SC.Defs[In.A] != 1)
      continue;
    int32_t Rd[3];
    int N = readSlots(In, Rd);
    bool OK = true;
    for (int J = 0; J != N && OK; ++J)
      OK = canMaterialize(Rd[J]);
    // A use outside the loop would see init + Trip*delta.
    if (!OK || !usedOnlyInside(In.A))
      continue;

    LInst Init = In;
    Init.B = materialize(In.B);
    if (In.Op == LOp::AddI || In.Op == LOp::SubI)
      Init.C = materialize(In.C);
    int32_t F = static_cast<int32_t>(P.newSlot(false));
    Init.A = F;
    Pre.push_back(Init);
    LInst Mv;
    Mv.Op = LOp::MovI;
    Mv.A = In.A;
    Mv.B = F;
    Pre.push_back(Mv);
    LInst Inc;
    Inc.Op = LOp::AddImmI;
    Inc.A = In.A;
    Inc.B = In.A;
    Inc.Imm0 = *D;
    Tail.push_back(Inc);
    Fresh.emplace_back(In.A, F);
    Delta.emplace_back(In.A, *D);
    Removed[K] = 1;
  }
  if (Delta.empty())
    return 0;

  std::vector<LInst> NewCode;
  NewCode.reserve(P.Code.size() + Pre.size() + Tail.size());
  size_t K = 0;
  for (size_t I = 0; I != P.Code.size(); ++I) {
    if (I == L.Begin)
      NewCode.insert(NewCode.end(), Pre.begin(), Pre.end());
    if (I == L.End)
      NewCode.insert(NewCode.end(), Tail.begin(), Tail.end());
    if (K < Top.size() && Top[K] == I && Removed[K++]) {
      SC.remove(P.Code[I]);
      continue;
    }
    NewCode.push_back(P.Code[I]);
  }
  P.Code = std::move(NewCode);
  for (const LInst &X : Pre)
    SC.add(X, P.NumSlots);
  for (const LInst &X : Tail)
    SC.add(X, P.NumSlots);
  P.NumStrengthReduced += Delta.size();
  return Pre.size() + Tail.size() - Delta.size();
}

bool srSweep(LIRProgram &P, SlotCounts &SC, SlotSet &W) {
  std::vector<Region> Loops = collectLoops(P.Code);
  bool Any = false;
  for (size_t K = 0; K != Loops.size(); ++K) {
    const Region L = Loops[K];
    size_t Grew = srLoop(P, L, SC, W);
    if (!Grew)
      continue;
    Any = true;
    // Every loop still to visit ends after L: it either encloses L or
    // lies wholly after it.
    for (size_t J = K + 1; J != Loops.size(); ++J) {
      if (Loops[J].Begin > L.End)
        Loops[J].Begin += Grew;
      Loops[J].End += Grew;
    }
  }
  return Any;
}

//===--------------------------------------------------------------------===//
// Check hoisting
//===--------------------------------------------------------------------===//

uint64_t checkHoistLoop(LIRProgram &P, Region L, SlotSet &W) {
  const LInst &B = P.Code[L.Begin];
  // Only loops that provably run at least once: hoisting a check out of
  // a zero-trip loop would surface an error the program never hits.
  if (B.Op != LOp::LoopBegin || B.Imm2 < 1)
    return 0;
  std::vector<size_t> Top = topLevelOf(P.Code, L);
  std::vector<char> Move(Top.size(), 0);
  uint64_t N = 0;
  bool Marked = false;
  for (size_t K = 0; K != Top.size(); ++K) {
    const LInst &In = P.Code[Top[K]];
    if (In.Op != LOp::CheckIdx)
      continue;
    if (!Marked) {
      markWritten(P, L, W);
      Marked = true;
    }
    if (W.contains(In.B))
      continue;
    Move[K] = 1;
    ++N;
  }
  if (N)
    moveToPreheader(P, L, Top, Move);
  return N;
}

void checkHoistSweep(LIRProgram &P, SlotSet &W) {
  for (Region L : collectLoops(P.Code))
    P.NumHoisted += checkHoistLoop(P, L, W);
}

//===--------------------------------------------------------------------===//
// Induction-variable coalescing
//===--------------------------------------------------------------------===//

/// Rewrites memory addresses onto fewer carried slots. A forward walk
/// maps every int slot to `value of event Id + C`, where an event is one
/// opaque definition (Id 0 is the constant zero), through const/mov/
/// addimm/add/sub with a constant operand, sub of one base, and mulimm
/// of a constant. Entering a region forgets every slot written inside it.
///
/// At a static loop, the carried slots (`%x = addimm %x, d` at top
/// level, the only definition of %x in the loop) whose entry values share
/// a base and whose steps are equal form one induction: the leader gets
/// a fresh event, each follower is `leader + c2 - c1` for the whole
/// iteration until one of them is stepped at the tail. Every LoadT/
/// LoadIn/StoreT address that is a leader plus a constant is rewritten
/// to the leader with that displacement; liveness DCE then deletes the
/// followers nobody else reads. Loops are entered outermost first, so a
/// coalesced outer induction gives the inner loops' inits one base.
/// Check operands and loop iv/ord slots are never rewritten.
class IvCoalescer {
  struct Sym {
    uint32_t Id = 0;
    int64_t C = 0;
  };

  LIRProgram &P;
  RegionMap RM;
  std::vector<Sym> Val;
  std::vector<int32_t> LeaderOf; ///< event -> the carried slot it names
  uint32_t NextId = 1;

  Sym fresh() { return {NextId++, 0}; }
  static std::optional<Sym> offset(Sym S, int64_t K) {
    int64_t C;
    if (__builtin_add_overflow(S.C, K, &C))
      return std::nullopt;
    return Sym{S.Id, C};
  }

  /// Slots written in the region opened at \p B, once each.
  std::vector<int32_t> writtenIn(size_t B, SlotSet &Seen) {
    Seen.clear(P.NumSlots);
    std::vector<int32_t> Out;
    int32_t Buf[2];
    for (size_t I = B, E = RM.Close[B]; I <= E; ++I) {
      int N = writtenSlots(P.Code[I], Buf);
      for (int K = 0; K != N; ++K)
        if (!Seen.contains(Buf[K])) {
          Seen.insert(Buf[K]);
          Out.push_back(Buf[K]);
        }
    }
    return Out;
  }

  void forget(const std::vector<int32_t> &Slots) {
    for (int32_t S : Slots)
      Val[S] = fresh();
  }

  void transfer(const LInst &In) {
    int32_t W[2];
    int NW = writtenSlots(In, W);
    if (!NW)
      return;
    auto V = [&](int32_t S) { return Val[S]; };
    std::optional<Sym> R;
    switch (In.Op) {
    case LOp::ConstI:
      R = Sym{0, In.Imm0};
      break;
    case LOp::MovI:
      R = V(In.B);
      break;
    case LOp::AddImmI:
      R = offset(V(In.B), In.Imm0);
      break;
    case LOp::AddI:
      if (V(In.C).Id == 0)
        R = offset(V(In.B), V(In.C).C);
      else if (V(In.B).Id == 0)
        R = offset(V(In.C), V(In.B).C);
      break;
    case LOp::SubI: {
      int64_t C;
      if (V(In.C).Id == 0 && V(In.C).C != INT64_MIN)
        R = offset(V(In.B), -V(In.C).C);
      else if (V(In.B).Id == V(In.C).Id &&
               !__builtin_sub_overflow(V(In.B).C, V(In.C).C, &C))
        R = Sym{0, C};
      break;
    }
    case LOp::MulImmI: {
      int64_t C;
      if (V(In.B).Id == 0 && !__builtin_mul_overflow(V(In.B).C, In.Imm0, &C))
        R = Sym{0, C};
      break;
    }
    default:
      break;
    }
    for (int K = 0; K != NW; ++K)
      Val[W[K]] = fresh();
    if (R)
      Val[W[0]] = *R;
  }

  void rewriteAddress(LInst &In) {
    const Sym A = Val[In.B];
    if (A.Id >= LeaderOf.size() || LeaderOf[A.Id] < 0)
      return;
    const int32_t R = LeaderOf[A.Id];
    int64_t D, Disp;
    if (R == In.B || Val[R].Id != A.Id ||
        __builtin_sub_overflow(A.C, Val[R].C, &D) ||
        __builtin_add_overflow(In.Imm1, D, &Disp))
      return;
    In.B = R;
    In.Imm1 = Disp;
  }

  /// Forgets the loop's writes, then re-seeds its carried groups.
  void enterLoop(size_t B, const std::vector<int32_t> &Written) {
    const size_t E = RM.Close[B];
    struct Carried {
      int32_t Slot;
      int64_t Step;
      Sym Entry;
      bool Pinned = false; ///< read by a non-address operand in the loop
    };
    std::vector<Carried> Cs;
    for (const auto &[Slot, Step] : carriedSlots(P, B, E))
      Cs.push_back({Slot, Step, Val[Slot]});
    forget(Written);
    if (Cs.empty())
      return;
    // Reads that coalescing cannot redirect keep a slot alive anyway, so
    // such a slot makes the cheapest leader.
    int32_t Buf[3];
    for (size_t I = B + 1; I < E; ++I) {
      const LInst &In = P.Code[I];
      if (isPureValueOp(In.Op))
        continue;
      int N = readSlots(In, Buf);
      for (int K = 0; K != N; ++K) {
        if (hasDisplacement(In.Op) && K == 0)
          continue; // the address operand
        for (Carried &C : Cs)
          C.Pinned |= C.Slot == Buf[K];
      }
    }
    std::vector<char> Done(Cs.size(), 0);
    for (size_t G = 0; G != Cs.size(); ++G) {
      if (Done[G])
        continue;
      size_t Lead = G;
      for (size_t H = G; H != Cs.size(); ++H)
        if (!Done[H] && Cs[H].Step == Cs[G].Step &&
            Cs[H].Entry.Id == Cs[G].Entry.Id && Cs[H].Pinned) {
          Lead = H;
          break;
        }
      const Sym V = fresh();
      if (LeaderOf.size() <= V.Id)
        LeaderOf.resize(V.Id + 1, -1);
      LeaderOf[V.Id] = Cs[Lead].Slot;
      for (size_t H = G; H != Cs.size(); ++H) {
        if (Done[H] || Cs[H].Step != Cs[G].Step ||
            Cs[H].Entry.Id != Cs[G].Entry.Id)
          continue;
        int64_t Disp;
        if (__builtin_sub_overflow(Cs[H].Entry.C, Cs[Lead].Entry.C, &Disp))
          continue; // stays forgotten: its own induction next time round
        Done[H] = 1;
        Val[Cs[H].Slot] = Sym{V.Id, Disp};
        if (H != Lead)
          ++P.NumIvsCoalesced;
      }
    }
  }

public:
  explicit IvCoalescer(LIRProgram &P) : P(P), RM(P.Code), Val(P.NumSlots) {
    for (Sym &S : Val)
      S = fresh();
  }

  void run() {
    SlotSet Seen;
    std::vector<std::vector<int32_t>> Open; // writes of each open region
    for (size_t I = 0; I != P.Code.size(); ++I) {
      LInst &In = P.Code[I];
      switch (In.Op) {
      case LOp::LoopBegin:
        Open.push_back(writtenIn(I, Seen));
        enterLoop(I, Open.back());
        break;
      case LOp::LoopDynBegin:
      case LOp::IfBegin:
        Open.push_back(writtenIn(I, Seen));
        forget(Open.back());
        break;
      case LOp::Else:
        forget(Open.back());
        break;
      case LOp::LoopEnd:
      case LOp::LoopDynEnd:
      case LOp::IfEnd:
        forget(Open.back());
        Open.pop_back();
        break;
      default:
        if (hasDisplacement(In.Op))
          rewriteAddress(In);
        transfer(In);
        break;
      }
    }
  }
};

//===--------------------------------------------------------------------===//
// Liveness DCE
//===--------------------------------------------------------------------===//

/// Deletes every pure instruction whose destination is dead. A slot is
/// live when a non-pure instruction reads it, or when a pure instruction
/// whose destination is live reads it — so a carried slot that only
/// feeds its own increment dies with it.
void dce(LIRProgram &P) {
  const size_t NS = P.NumSlots;
  // Pure definitions per slot, as a CSR table.
  std::vector<uint32_t> Start(NS + 1, 0);
  for (const LInst &I : P.Code)
    if (isPureValueOp(I.Op))
      ++Start[I.A + 1];
  for (size_t S = 0; S != NS; ++S)
    Start[S + 1] += Start[S];
  std::vector<uint32_t> Defs(Start[NS]);
  {
    std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
    for (size_t I = 0; I != P.Code.size(); ++I)
      if (isPureValueOp(P.Code[I].Op))
        Defs[Fill[P.Code[I].A]++] = static_cast<uint32_t>(I);
  }
  std::vector<char> Live(NS, 0);
  std::vector<int32_t> Work;
  int32_t Rd[3];
  auto markReads = [&](const LInst &I) {
    int N = readSlots(I, Rd);
    for (int K = 0; K != N; ++K)
      if (!Live[Rd[K]]) {
        Live[Rd[K]] = 1;
        Work.push_back(Rd[K]);
      }
  };
  for (const LInst &I : P.Code)
    if (!isPureValueOp(I.Op))
      markReads(I);
  while (!Work.empty()) {
    int32_t S = Work.back();
    Work.pop_back();
    for (uint32_t K = Start[S]; K != Start[S + 1]; ++K)
      markReads(P.Code[Defs[K]]);
  }
  size_t Out = 0;
  for (size_t I = 0; I != P.Code.size(); ++I) {
    const LInst &In = P.Code[I];
    if (isPureValueOp(In.Op) && !Live[In.A])
      continue;
    P.Code[Out++] = In;
  }
  P.NumDce += P.Code.size() - Out;
  P.Code.resize(Out);
}

//===--------------------------------------------------------------------===//
// Counter folding
//===--------------------------------------------------------------------===//

/// True for the instructions that can stop a run with an error.
bool isFailingOp(LOp Op) {
  return Op == LOp::CheckIdx || Op == LOp::CheckCollision ||
         Op == LOp::CheckDefined || Op == LOp::CheckNonZeroI ||
         Op == LOp::Fail;
}

int counterKind(LOp Op) {
  switch (Op) {
  case LOp::CountBounds:
    return 0;
  case LOp::CountGuard:
    return 1;
  case LOp::CountFused:
    return 2;
  default:
    return -1;
  }
}

/// Rebuilds the stream with fewer counter instructions. Within a run of
/// one nesting level that no failing instruction (or failing nested
/// region) interrupts, all counters of one kind merge into the first;
/// a static loop whose whole body cannot fail and runs at least once
/// hands its top-level counters to its preheader as `Imm0 * trip`,
/// innermost loops first. No failure point ever sees a different total.
class CounterFolder {
  const std::vector<LInst> &In;
  RegionMap RM;

  /// Output position of the current run's counter of each kind.
  struct Run {
    int64_t At[3] = {-1, -1, -1};
    void reset() { At[0] = At[1] = At[2] = -1; }
  };

  /// Adds \p N events of \p C's kind to the run, merging into the run's
  /// counter of that kind when it has one.
  bool add(std::vector<LInst> &Out, Run &R, const LInst &C, int64_t N) {
    const int K = counterKind(C.Op);
    int64_t Sum;
    if (R.At[K] >= 0 &&
        !__builtin_add_overflow(Out[R.At[K]].Imm0, N, &Sum)) {
      Out[R.At[K]].Imm0 = Sum;
      return true;
    }
    R.At[K] = static_cast<int64_t>(Out.size());
    Out.push_back(C);
    Out.back().Imm0 = N;
    return false;
  }

  /// Emits [Lo, Hi) of one nesting level; true when anything in it can fail.
  bool seq(size_t Lo, size_t Hi, std::vector<LInst> &Out, Run &R) {
    bool CanFail = false;
    for (size_t I = Lo; I < Hi; ++I) {
      const LInst &X = In[I];
      if (counterKind(X.Op) >= 0) {
        Folded += add(Out, R, X, X.Imm0);
        continue;
      }
      bool Fails;
      if (isOpenOp(X.Op)) {
        Fails = region(I, Out, R);
        I = RM.Close[I];
      } else {
        Out.push_back(X);
        Fails = isFailingOp(X.Op);
      }
      if (Fails) {
        CanFail = true;
        R.reset();
      }
    }
    return CanFail;
  }

  bool region(size_t B, std::vector<LInst> &Out, Run &Outer) {
    const LInst &Begin = In[B];
    const size_t E = RM.Close[B];
    Run R;
    if (Begin.Op != LOp::LoopBegin) {
      Out.push_back(Begin);
      const size_t Mid = RM.Else[B];
      bool Fails = seq(B + 1, Begin.Op == LOp::IfBegin ? Mid : E, Out, R);
      if (Begin.Op == LOp::IfBegin && Mid != E) {
        Out.push_back(In[Mid]);
        Run ElseRun;
        Fails |= seq(Mid + 1, E, Out, ElseRun);
      }
      Out.push_back(In[E]);
      return Fails;
    }
    std::vector<LInst> Body;
    const bool Fails = seq(B + 1, E, Body, R);
    if (!Fails && Begin.Imm2 >= 1)
      for (int64_t At : R.At) {
        int64_t Total;
        if (At < 0 || __builtin_mul_overflow(Body[At].Imm0, Begin.Imm2, &Total))
          continue;
        add(Out, Outer, Body[At], Total);
        Body[At].Imm0 = 0; // dropped below
        ++Folded;          // one hoist, merged or not
      }
    Out.push_back(Begin);
    for (const LInst &X : Body)
      if (counterKind(X.Op) < 0 || X.Imm0 != 0)
        Out.push_back(X);
    Out.push_back(In[E]);
    return Fails;
  }

public:
  /// Counters merged into another plus counters hoisted out of a loop.
  uint64_t Folded = 0;

  explicit CounterFolder(const std::vector<LInst> &Code)
      : In(Code), RM(Code) {}

  std::vector<LInst> run() {
    std::vector<LInst> Out;
    Out.reserve(In.size());
    Run R;
    seq(0, In.size(), Out, R);
    return Out;
  }
};

} // namespace

void lir::cleanup(LIRProgram &P) {
  // Liveness reads the loop closers' mirrored operands (see optimize()).
  std::string SealErr;
  if (!seal(P, SealErr))
    return;
  dce(P);
  CounterFolder F(P.Code);
  P.Code = F.run();
  P.NumCountersFolded += F.Folded;
}

void lir::optimize(LIRProgram &P) {
  // The def/use scans read loop-closer operands, which only exist after
  // the mirroring pass; an unbalanced program is a lowering bug the
  // caller's own seal() will report, so just skip optimizing it.
  std::string SealErr;
  if (!seal(P, SealErr))
    return;
  // LICM first so loop-invariant pieces of address chains move out and
  // become materializable SR operands; alternate to fixpoint because SR
  // init code exposes new invariants at the enclosing loop level (and
  // vice versa).
  SlotCounts SC(P);
  SlotSet W;
  for (bool Changed = true; Changed;) {
    Changed = licmSweep(P, SC, W);
    Changed |= srSweep(P, SC, W);
  }
  checkHoistSweep(P, W);
  IvCoalescer(P).run();
  cleanup(P);
}

void lir::stripParFlags(LIRProgram &P) {
  for (LInst &I : P.Code)
    I.Flags &= static_cast<uint8_t>(~ParFlagMask);
}

namespace {

/// Clears the par bits on a sealed loop's Begin and its mirrored End.
void demoteLoop(LIRProgram &P, size_t Begin) {
  LInst &B = P.Code[Begin];
  P.Code[static_cast<size_t>(B.Jump)].Flags &=
      static_cast<uint8_t>(~ParFlagMask);
  B.Flags &= static_cast<uint8_t>(~ParFlagMask);
}

/// True when \p I may not execute inside a parallel region's body. The
/// stat counters (CountBounds et al.) stay legal under \p ForC: they
/// render as OpenMP reductions.
bool forbiddenInParBody(const LInst &I, bool ForC) {
  switch (I.Op) {
  case LOp::SaveRing:   // rolling temporaries carry values serially
  case LOp::LoadRing:
  case LOp::SnapSaveT:  // snapshot saves are ordered with the stores
  case LOp::CheckCollision: // defined-bitmap read/modify/write races
  case LOp::CheckDefined:
    return true;
  case LOp::CheckIdx:
  case LOp::CheckNonZeroI:
  case LOp::Fail:
    // The C rendering of a failing check is `goto done`, which may not
    // jump out of an OpenMP region; the evaluator instead records a
    // per-task error and reports the lexicographically first one.
    return ForC;
  default:
    return false;
  }
}

bool regionHasForbidden(const LIRProgram &P, size_t B, size_t E, bool ForC) {
  for (size_t I = B + 1; I < E; ++I)
    if (forbiddenInParBody(P.Code[I], ForC))
      return true;
  return false;
}

/// The first and last reader of each slot, from one sweep.
struct ReadSpans {
  std::vector<uint32_t> First, Last;
  explicit ReadSpans(const LIRProgram &P)
      : First(P.NumSlots, UINT32_MAX), Last(P.NumSlots, 0) {
    int32_t Buf[3];
    for (size_t I = 0; I != P.Code.size(); ++I) {
      int N = readSlots(P.Code[I], Buf);
      for (int K = 0; K != N; ++K) {
        First[Buf[K]] = std::min(First[Buf[K]], static_cast<uint32_t>(I));
        Last[Buf[K]] = static_cast<uint32_t>(I);
      }
    }
  }

  /// True when a slot written anywhere in [B, E] is read outside it. The
  /// parallel runtime drops a partitioned loop's register exit state
  /// (bar the induction slots), so an escaping write forces a demotion.
  /// Reads *before* B count too: inside an enclosing loop they re-run
  /// after the region.
  bool writesEscape(const LIRProgram &P, size_t B, size_t E) const {
    int32_t Buf[2];
    for (size_t I = B; I <= E; ++I) {
      int N = writtenSlots(P.Code[I], Buf);
      for (int K = 0; K != N; ++K)
        if (First[Buf[K]] < B || Last[Buf[K]] > E)
          return true;
    }
    return false;
  }
};

/// Validates the wavefront pair rooted at the sealed WaveOuter loop at
/// \p OB: a prelude, then the flagged inner loop, then nothing but the
/// outer loop's carried increments until the outer end; inner body
/// restrictions match DOALL. Every cell re-seeds the outer carried slots,
/// re-runs the prelude, then advances the inner carried slots from their
/// prelude values. The prelude is value code; under evaluator rules it
/// may also hold checks and counters hoisted out of the inner loop (C
/// cannot render those per cell). On success stores the inner LoopBegin
/// index in \p InnerBegin.
bool validateWavePair(const LIRProgram &P, size_t OB, bool ForC,
                      const ReadSpans &Reads, SlotSet &Unsafe, SlotSet &Seen,
                      size_t &InnerBegin) {
  const LInst &Outer = P.Code[OB];
  size_t OE = static_cast<size_t>(Outer.Jump);
  if (Outer.backward())
    return false;
  size_t IB = OB + 1;
  for (; IB < OE && !isOpenOp(P.Code[IB].Op); ++IB) {
    const LOp Op = P.Code[IB].Op;
    if (!isPureValueOp(Op) &&
        (ForC || !(counterKind(Op) >= 0 || Op == LOp::CheckIdx ||
                   Op == LOp::CheckNonZeroI)))
      return false;
  }
  // An empty inner loop leaves the cells nothing to do.
  if (IB >= OE || P.Code[IB].Op != LOp::LoopBegin ||
      !P.Code[IB].parWaveInner() || P.Code[IB].backward() ||
      P.Code[IB].Imm2 < 1)
    return false;
  size_t IE = static_cast<size_t>(P.Code[IB].Jump);
  const auto OuterCarried = carriedSlots(P, OB);
  auto IsOuterCarried = [&](int32_t S) {
    return std::any_of(OuterCarried.begin(), OuterCarried.end(),
                       [S](const auto &C) { return C.first == S; });
  };
  for (size_t I = IE + 1; I < OE; ++I) {
    const LInst &X = P.Code[I];
    if (X.Op != LOp::AddImmI || X.A != X.B || !IsOuterCarried(X.A))
      return false;
  }
  if (regionHasForbidden(P, IB, IE, ForC))
    return false;
  // Prelude re-run safety: a prelude read may only see slots the outer
  // region never writes, the outer induction and carried slots (all
  // re-seeded per cell), or results of earlier prelude instructions.
  Unsafe.clear(P.NumSlots); // written by the inner region or the prelude
  Seen.clear(P.NumSlots);   // earlier prelude results are fine again
  int32_t Buf[3];
  for (size_t I = OB + 1; I <= IE; ++I) {
    int N = writtenSlots(P.Code[I], Buf);
    for (int K = 0; K != N; ++K)
      Unsafe.insert(Buf[K]);
  }
  for (size_t I = OB + 1; I < IB; ++I) {
    int N = readSlots(P.Code[I], Buf);
    for (int K = 0; K != N; ++K) {
      int32_t S = Buf[K];
      if (S == Outer.A || S == Outer.B || Seen.contains(S) ||
          IsOuterCarried(S))
        continue;
      if (Unsafe.contains(S))
        return false;
    }
    int NW = writtenSlots(P.Code[I], Buf);
    for (int K = 0; K != NW; ++K)
      Seen.insert(Buf[K]);
  }
  // Each cell starts the inner carried slots from their prelude values.
  for (const auto &C : carriedSlots(P, IB))
    if (!Seen.contains(C.first))
      return false;
  if (Reads.writesEscape(P, OB, OE))
    return false;
  InnerBegin = IB;
  return true;
}

} // namespace

std::vector<std::pair<int32_t, int64_t>>
lir::carriedSlots(const LIRProgram &P, size_t Begin, size_t End) {
  std::vector<std::pair<int32_t, int64_t>> Out;
  int Depth = 0;
  for (size_t I = Begin + 1; I < End; ++I) {
    const LInst &In = P.Code[I];
    if (isOpenOp(In.Op))
      ++Depth;
    else if (isCloseOp(In.Op))
      --Depth;
    else if (Depth == 0 && In.Op == LOp::AddImmI && In.A == In.B &&
             In.Imm0 != 0)
      Out.emplace_back(In.A, In.Imm0);
  }
  // Keep the slots written once in the whole region, markers included.
  std::erase_if(Out, [&](const std::pair<int32_t, int64_t> &C) {
    unsigned Writes = 0;
    int32_t Buf[2];
    for (size_t I = Begin; I <= End; ++I)
      for (int K = 0, N = writtenSlots(P.Code[I], Buf); K != N; ++K)
        Writes += Buf[K] == C.first;
    return Writes != 1;
  });
  return Out;
}

void lir::legalizePar(LIRProgram &P, bool ForC) {
  // Pass 1: the outermost parallel level wins. Any par-flagged loop
  // nested inside another parallel region is cleared — except the
  // WaveInner directly paired with its still-flagged WaveOuter.
  bool AnyPar = false;
  {
    struct Ent {
      bool Par;       // region still carries a par flag
      bool WaveOuter; // region is a still-flagged wave outer
      bool TookInner; // its paired inner has been claimed
    };
    std::vector<Ent> Stack;
    for (size_t I = 0; I != P.Code.size(); ++I) {
      const LOp Op = P.Code[I].Op;
      if (Op == LOp::LoopBegin) {
        uint8_t F = P.Code[I].Flags & ParFlagMask;
        bool InsidePar = false;
        for (const Ent &E : Stack)
          InsidePar |= E.Par;
        bool Keep = F != 0;
        if (F && InsidePar) {
          Keep = F == FlagParWaveInner && !Stack.empty() &&
                 Stack.back().WaveOuter && !Stack.back().TookInner;
          if (Keep)
            Stack.back().TookInner = true;
          else
            demoteLoop(P, I);
        }
        AnyPar |= Keep;
        Stack.push_back({Keep, Keep && F == FlagParWaveOuter, false});
      } else if (Op == LOp::LoopDynBegin || Op == LOp::IfBegin) {
        Stack.push_back({false, false, false});
      } else if (isCloseOp(Op)) {
        Stack.pop_back();
      }
    }
  }
  if (!AnyPar)
    return;
  // Pass 2: per-loop body legality.
  const ReadSpans Reads(P);
  SlotSet Unsafe, Seen;
  size_t ClaimedInner = SIZE_MAX; // the inner of the last legal pair
  for (size_t I = 0; I != P.Code.size(); ++I) {
    LInst &In = P.Code[I];
    if (In.Op != LOp::LoopBegin)
      continue;
    size_t E = static_cast<size_t>(In.Jump);
    if (In.parDoall()) {
      if (regionHasForbidden(P, I, E, ForC) || Reads.writesEscape(P, I, E))
        demoteLoop(P, I);
    } else if (In.parWaveOuter()) {
      size_t IB = 0;
      if (validateWavePair(P, I, ForC, Reads, Unsafe, Seen, IB)) {
        ClaimedInner = IB;
      } else {
        for (size_t J = I + 1; J < E; ++J)
          if (P.Code[J].Op == LOp::LoopBegin &&
              (P.Code[J].Flags & ParFlagMask))
            demoteLoop(P, J);
        demoteLoop(P, I);
      }
    } else if (In.parWaveInner() && I != ClaimedInner) {
      // An inner that lost its outer cannot run on its own.
      demoteLoop(P, I);
    }
  }
}

bool lir::buildProgram(const ExecPlan &Plan, const ArrayDims &TargetDims,
                       const ParamEnv &Params,
                       const std::map<std::string, ArrayDims> &InputDims,
                       const PipelineOptions &Opts, LIRProgram &P,
                       std::string &Err) {
  P = lowerPlan(Plan, TargetDims, Params, InputDims, Opts.AssumeTargetShape,
                Opts.ValidateReads);
  if (Opts.Optimize) {
    optimize(P);
    // Residual checks whose ranges only become provable after LICM and
    // strength reduction are deleted here; counter totals are kept, so
    // ExecStats is bit-identical whether or not this runs.
    if (Opts.SecondChance)
      secondChance(P);
  }
  std::string SealErr;
  if (!seal(P, SealErr)) {
    Err = "internal error: LIR seal failed: " + SealErr;
    return false;
  }
  // Demote any par-flagged loop whose lowered body turned out not to be
  // safe for concurrent execution (needs a sealed program). Without a
  // pool the evaluator ignores the surviving flags.
  legalizePar(P, /*ForC=*/false);
  return true;
}

unsigned lir::legalizeKernel(LIRProgram &P, unsigned Threads) {
  if (Threads <= 1) {
    // A serial kernel runs no DOALL loop, but the printer sweeps each
    // wave pair in strips of rows, so the pairs stay under the C rules.
    for (LInst &I : P.Code)
      I.Flags &= static_cast<uint8_t>(~FlagParDoall);
  }
  legalizePar(P, /*ForC=*/true);
  return Threads <= 1 ? 0 : Threads;
}
