//===- lir/LIRAbsint.cpp - Abstract interpretation over the LIR -----------===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lir/LIRAbsint.h"

#include "lir/LIRPasses.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <sstream>

using namespace hac;
using namespace hac::lir;

namespace {

constexpr int64_t kMin = INT64_MIN;
constexpr int64_t kMax = INT64_MAX;

// kMin / kMax double as the infinite markers, so any finite arithmetic
// result must stay strictly inside them; a result that would land on or
// past a marker widens the whole interval to top instead of silently
// becoming an infinity of the wrong sign.
bool fits(__int128 V) {
  return V > static_cast<__int128>(kMin) && V < static_cast<__int128>(kMax);
}

Interval topIv() { return Interval{}; }
Interval emptyIv() { return Interval{1, 0, false}; }
Interval constIv(int64_t V) { return Interval{V, V, V != 0}; }

Interval normNZ(Interval A) {
  if (A.empty())
    return A;
  if (A.NZ) {
    if (A.Lo == 0)
      A.Lo = 1;
    if (A.Hi == 0)
      A.Hi = -1;
    if (A.empty())
      return emptyIv();
  }
  A.NZ = A.NZ || A.Lo > 0 || A.Hi < 0;
  return A;
}

Interval joinIv(const Interval &A, const Interval &B) {
  if (A.empty())
    return B;
  if (B.empty())
    return A;
  return Interval{std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi), A.NZ && B.NZ};
}

Interval meetIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return emptyIv();
  return normNZ(
      Interval{std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi), A.NZ || B.NZ});
}

// One bound of A + B; infinities absorb, finite overflow reports failure
// so the caller can widen to top.
int64_t addBound(int64_t A, int64_t B, bool &Ok) {
  if (A == kMin || B == kMin)
    return kMin;
  if (A == kMax || B == kMax)
    return kMax;
  __int128 R = static_cast<__int128>(A) + B;
  if (!fits(R)) {
    Ok = false;
    return 0;
  }
  return static_cast<int64_t>(R);
}

Interval addIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return emptyIv();
  bool Ok = true;
  Interval R{addBound(A.Lo, B.Lo, Ok), addBound(A.Hi, B.Hi, Ok), false};
  if (!Ok)
    return topIv();
  return normNZ(R);
}

Interval negIv(const Interval &A) {
  if (A.empty())
    return A;
  auto Neg = [](int64_t V) {
    if (V == kMin)
      return kMax;
    if (V == kMax)
      return kMin;
    return -V;
  };
  return Interval{Neg(A.Hi), Neg(A.Lo), A.NZ};
}

Interval subIv(const Interval &A, const Interval &B) {
  return addIv(A, negIv(B));
}

Interval mulImmIv(const Interval &A, int64_t K) {
  if (A.empty())
    return A;
  if (K == 0)
    return constIv(0);
  if (A.Lo == kMin || A.Hi == kMax)
    return topIv();
  __int128 P0 = static_cast<__int128>(A.Lo) * K;
  __int128 P1 = static_cast<__int128>(A.Hi) * K;
  if (!fits(P0) || !fits(P1))
    return topIv();
  Interval R{static_cast<int64_t>(std::min(P0, P1)),
             static_cast<int64_t>(std::max(P0, P1)), A.NZ};
  return normNZ(R);
}

Interval mulIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return emptyIv();
  if (A.Lo == A.Hi)
    return mulImmIv(B, A.Lo);
  if (B.Lo == B.Hi)
    return mulImmIv(A, B.Lo);
  if (A.Lo == kMin || A.Hi == kMax || B.Lo == kMin || B.Hi == kMax)
    return topIv();
  __int128 P[4] = {static_cast<__int128>(A.Lo) * B.Lo,
                   static_cast<__int128>(A.Lo) * B.Hi,
                   static_cast<__int128>(A.Hi) * B.Lo,
                   static_cast<__int128>(A.Hi) * B.Hi};
  __int128 Lo = P[0], Hi = P[0];
  for (int I = 1; I != 4; ++I) {
    Lo = std::min(Lo, P[I]);
    Hi = std::max(Hi, P[I]);
  }
  if (!fits(Lo) || !fits(Hi))
    return topIv();
  return normNZ(Interval{static_cast<int64_t>(Lo), static_cast<int64_t>(Hi),
                         A.excludesZero() && B.excludesZero()});
}

Interval absIv(const Interval &A) {
  if (A.empty())
    return A;
  if (A.Lo >= 0)
    return A;
  if (A.Hi <= 0)
    return negIv(A);
  int64_t M = std::max(negIv(A).Hi, A.Hi);
  return Interval{A.NZ ? 1 : 0, M, A.NZ};
}

Interval minIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return emptyIv();
  // The markers are INT64_MIN/INT64_MAX, so numeric min/max orders them
  // correctly against every finite bound.
  return Interval{std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi), false};
}

Interval maxIv(const Interval &A, const Interval &B) {
  if (A.empty() || B.empty())
    return emptyIv();
  return Interval{std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi), false};
}

// B % M with C's truncated-division semantics and |M| = MaxMod known.
Interval remIv(const Interval &A, int64_t MaxMod) {
  if (A.empty())
    return A;
  if (MaxMod <= 0 || MaxMod == kMax)
    return topIv();
  int64_t M = MaxMod - 1;
  Interval R{-M, M, false};
  if (A.Lo >= 0)
    R.Lo = 0;
  if (A.Hi <= 0)
    R.Hi = 0;
  return R;
}

Interval widenIv(const Interval &New, const Interval &Old) {
  if (Old.empty())
    return New;
  if (New.empty())
    return Old;
  Interval R = New;
  if (New.Lo < Old.Lo)
    R.Lo = kMin;
  if (New.Hi > Old.Hi)
    R.Hi = kMax;
  R.NZ = New.NZ && Old.NZ;
  return R;
}

/// Affine congruence form: Known => value = C + sum(coeff * slot) over
/// pinned induction-variable symbols. Terms are sorted by slot with
/// nonzero coefficients.
struct Lin {
  bool Known = false;
  int64_t C = 0;
  std::vector<std::pair<int32_t, int64_t>> T;

  bool operator==(const Lin &O) const {
    return Known == O.Known && (!Known || (C == O.C && T == O.T));
  }
  int64_t coeffOf(int32_t Sym) const {
    for (const auto &P : T)
      if (P.first == Sym)
        return P.second;
    return 0;
  }
  bool references(int32_t Sym) const { return coeffOf(Sym) != 0; }
};

Lin linUnknown() { return Lin{}; }
Lin linConst(int64_t C) {
  Lin L;
  L.Known = true;
  L.C = C;
  return L;
}
Lin linSym(int32_t Slot) {
  Lin L;
  L.Known = true;
  L.T.push_back({Slot, 1});
  return L;
}

Lin linAdd(const Lin &A, const Lin &B) {
  if (!A.Known || !B.Known)
    return linUnknown();
  Lin R;
  R.Known = true;
  __int128 C = static_cast<__int128>(A.C) + B.C;
  if (!fits(C))
    return linUnknown();
  R.C = static_cast<int64_t>(C);
  size_t I = 0, J = 0;
  while (I != A.T.size() || J != B.T.size()) {
    if (J == B.T.size() || (I != A.T.size() && A.T[I].first < B.T[J].first)) {
      R.T.push_back(A.T[I++]);
    } else if (I == A.T.size() || B.T[J].first < A.T[I].first) {
      R.T.push_back(B.T[J++]);
    } else {
      __int128 Co = static_cast<__int128>(A.T[I].second) + B.T[J].second;
      if (!fits(Co))
        return linUnknown();
      if (Co != 0)
        R.T.push_back({A.T[I].first, static_cast<int64_t>(Co)});
      ++I;
      ++J;
    }
  }
  return R;
}

Lin linScale(const Lin &A, int64_t K) {
  if (!A.Known)
    return linUnknown();
  if (K == 0)
    return linConst(0);
  Lin R;
  R.Known = true;
  __int128 C = static_cast<__int128>(A.C) * K;
  if (!fits(C))
    return linUnknown();
  R.C = static_cast<int64_t>(C);
  for (const auto &P : A.T) {
    __int128 Co = static_cast<__int128>(P.second) * K;
    if (!fits(Co))
      return linUnknown();
    R.T.push_back({P.first, static_cast<int64_t>(Co)});
  }
  return R;
}

Lin linSub(const Lin &A, const Lin &B) { return linAdd(A, linScale(B, -1)); }

Lin linAddConst(const Lin &A, int64_t K) { return linAdd(A, linConst(K)); }

/// Relational fact attached to a comparison's destination slot, consumed
/// by IfBegin to refine both operands. Validity is generation-gated: any
/// write to the destination or either operand invalidates the record.
struct CmpRec {
  bool Valid = false;
  LOp Op = LOp::CmpEqI;
  int32_t B = -1, C = -1;
  uint32_t GB = 0, GC = 0, GSelf = 0;
  bool Neg = false;
};

/// One abstract machine state: per-slot interval, congruence form,
/// write generation, and comparison record. Dead marks the program point
/// provably unreachable (a Fail executed or a check cannot pass).
struct AState {
  std::vector<Interval> V;
  std::vector<Lin> L;
  std::vector<uint32_t> G;
  std::vector<CmpRec> Cmp;
  bool Dead = false;
};

/// Per-check record filled in on the recorded pass (indexed by
/// instruction): proof status plus the incoming range and enclosing-loop
/// attribution, so the second-chance pass and the HAC009 reporter can
/// explain themselves.
struct CheckInfo {
  uint8_t Status = 0; ///< 0 = never reached, 1 = proven, 2 = unproven
  int64_t Lo = 0, Hi = 0;
  int32_t Meta = -1;
};

struct Engine {
  const LIRProgram &P;
  AnalyzeOptions Opts;
  AbsintResult Res;
  std::vector<CheckInfo> Checks;

  AState S;
  uint32_t GlobalGen = 0;
  bool Recording = false;
  unsigned IfDepth = 0;

  struct Derived {
    int32_t Slot = -1;
    int64_t Delta = 0;
    Interval Hull;
    Lin Form;
    Interval EntryVal;
    Lin EntryLin;
  };
  struct Frame {
    size_t BeginIdx = 0;
    int32_t Iv = -1, Ord = -1;
    int64_t IvInit = 0, IvDelta = 0, Trip = -1; ///< Trip -1 = dynamic
    bool Backward = false;
    uint8_t Flags = 0;
    int32_t Meta = -1;
    unsigned IfDepthAtEntry = 0;
    Interval IvHull, OrdHull;
    Lin OrdLin;
    std::vector<Derived> Der;
    /// Address forms of in-body LoadT instructions (recorded pass): a
    /// store matching one is a read-modify-write, exempt from the
    /// write-disjointness re-derivation.
    std::vector<Lin> BodyLoads;

    bool owns(int32_t Sym, int64_t &IterDelta) const {
      if (Sym == Iv) {
        IterDelta = IvDelta;
        return true;
      }
      if (Sym == Ord) {
        IterDelta = Backward ? -1 : 1;
        return true;
      }
      for (const auto &D : Der)
        if (D.Slot == Sym) {
          IterDelta = D.Delta;
          return true;
        }
      return false;
    }
  };
  std::vector<Frame> Frames;

  explicit Engine(const LIRProgram &Prog, const AnalyzeOptions &O)
      : P(Prog), Opts(O) {
    S.V.assign(P.NumSlots, topIv());
    S.L.assign(P.NumSlots, linUnknown());
    S.G.assign(P.NumSlots, 0);
    S.Cmp.assign(P.NumSlots, CmpRec{});
    Res.SlotRanges.assign(P.NumSlots, emptyIv());
    Checks.assign(P.Code.size(), CheckInfo{});
  }

  static bool isBegin(LOp Op) {
    return Op == LOp::LoopBegin || Op == LOp::LoopDynBegin ||
           Op == LOp::IfBegin;
  }
  static bool isEnd(LOp Op) {
    return Op == LOp::LoopEnd || Op == LOp::LoopDynEnd || Op == LOp::IfEnd;
  }

  size_t findEnd(size_t B) const {
    int D = 0;
    for (size_t I = B; I != P.Code.size(); ++I) {
      if (isBegin(P.Code[I].Op))
        ++D;
      else if (isEnd(P.Code[I].Op) && --D == 0)
        return I;
    }
    return P.Code.size();
  }

  size_t findElse(size_t B, size_t E) const {
    int D = 0;
    for (size_t I = B + 1; I < E; ++I) {
      if (isBegin(P.Code[I].Op))
        ++D;
      else if (isEnd(P.Code[I].Op))
        --D;
      else if (P.Code[I].Op == LOp::Else && D == 0)
        return I;
    }
    return E;
  }

  bool intSlot(int32_t Slot) const {
    return Slot >= 0 && static_cast<size_t>(Slot) < P.SlotIsF.size() &&
           !P.SlotIsF[Slot];
  }

  /// Strong update: assign interval + congruence form, bump the global
  /// generation (never reused, so stale CmpRecs can't validate), and
  /// fold into the reported ranges on the recorded pass.
  void set(int32_t Slot, const Interval &Iv, Lin Ln) {
    if (!intSlot(Slot))
      return;
    // Writing a pinned symbol invalidates every form expressed in it
    // (the bump of a strength-reduced carried slot is the one in-body
    // writer of an owned symbol).
    bool IsSym = false;
    for (const auto &F : Frames) {
      int64_t D;
      if (F.owns(Slot, D)) {
        IsSym = true;
        break;
      }
    }
    if (IsSym) {
      for (auto &L : S.L)
        if (L.Known && L.references(Slot))
          L = linUnknown();
      if (Ln.references(Slot))
        Ln = linUnknown();
    }
    S.V[Slot] = Iv;
    S.L[Slot] = std::move(Ln);
    S.G[Slot] = ++GlobalGen;
    S.Cmp[Slot].Valid = false;
    if (Recording)
      Res.SlotRanges[Slot] = joinIv(Res.SlotRanges[Slot], Iv);
  }

  /// Evaluates a congruence form against the current symbol intervals —
  /// the channel through which guard refinements on an induction
  /// variable reach slots whose computation was hoisted above the guard.
  Interval evalLin(const Lin &Ln) const {
    if (!Ln.Known)
      return topIv();
    Interval R = constIv(Ln.C);
    for (const auto &T : Ln.T)
      R = addIv(R, mulImmIv(S.V[T.first], T.second));
    return R;
  }

  Interval bestIv(int32_t Slot) const {
    if (!intSlot(Slot))
      return topIv();
    return meetIv(S.V[Slot], evalLin(S.L[Slot]));
  }

  /// Narrowing without a generation bump (refinements are not writes;
  /// comparison records over the slot stay valid). One-term congruence
  /// forms propagate the refinement to their base symbol with exact
  /// floor/ceil division.
  void refineTo(int32_t Slot, const Interval &Bound, int Depth = 0) {
    if (!intSlot(Slot))
      return;
    Interval NV = meetIv(S.V[Slot], Bound);
    if (NV.empty()) {
      S.Dead = true;
      return;
    }
    S.V[Slot] = NV;
    if (Depth >= 4)
      return;
    const Lin &Ln = S.L[Slot];
    if (!Ln.Known || Ln.T.size() != 1)
      return;
    int32_t Base = Ln.T[0].first;
    int64_t Co = Ln.T[0].second;
    // value = C + Co*base  =>  base in [ceil((lo-C)/Co), floor((hi-C)/Co)]
    // (swapped for negative Co). Infinite bounds stay infinite.
    auto DivFloor = [](int64_t A, int64_t B) {
      int64_t Q = A / B, R = A % B;
      return (R != 0 && ((R < 0) != (B < 0))) ? Q - 1 : Q;
    };
    auto DivCeil = [&](int64_t A, int64_t B) {
      int64_t Q = A / B, R = A % B;
      return (R != 0 && ((R < 0) == (B < 0))) ? Q + 1 : Q;
    };
    bool Ok = true;
    int64_t Lo = addBound(NV.Lo, -Ln.C, Ok), Hi = addBound(NV.Hi, -Ln.C, Ok);
    if (!Ok || Ln.C == kMin || Ln.C == kMax)
      return;
    Interval BaseIv = topIv();
    if (Co > 0) {
      BaseIv.Lo = Lo == kMin ? kMin : DivCeil(Lo, Co);
      BaseIv.Hi = Hi == kMax ? kMax : DivFloor(Hi, Co);
    } else {
      BaseIv.Lo = Hi == kMax ? kMin : DivCeil(Hi, Co);
      BaseIv.Hi = Lo == kMin ? kMax : DivFloor(Lo, Co);
    }
    refineTo(Base, BaseIv, Depth + 1);
  }

  AState joinStates(AState &&A, AState &&B) {
    if (A.Dead)
      return std::move(B);
    if (B.Dead)
      return std::move(A);
    AState R = std::move(A);
    for (size_t I = 0; I != R.V.size(); ++I) {
      R.V[I] = joinIv(R.V[I], B.V[I]);
      if (!(R.L[I] == B.L[I]))
        R.L[I] = linUnknown();
      if (R.G[I] != B.G[I]) {
        R.G[I] = ++GlobalGen;
        R.Cmp[I].Valid = false;
      }
    }
    return R;
  }

  static bool equalExceptOwned(const AState &A, const AState &B,
                               const Frame &F) {
    if (A.Dead != B.Dead)
      return false;
    for (size_t I = 0; I != A.V.size(); ++I) {
      int64_t D;
      if (F.owns(static_cast<int32_t>(I), D))
        continue;
      if (!(A.V[I] == B.V[I]) || !(A.L[I] == B.L[I]))
        return false;
    }
    return true;
  }

  void widenAgainst(AState &Next, const AState &Prev, const Frame &F) {
    for (size_t I = 0; I != Next.V.size(); ++I) {
      int64_t D;
      if (F.owns(static_cast<int32_t>(I), D))
        continue;
      Next.V[I] = widenIv(Next.V[I], Prev.V[I]);
    }
  }

  void sweepOwned(const Frame &F) {
    for (auto &L : S.L) {
      if (!L.Known)
        continue;
      for (const auto &T : L.T) {
        int64_t D;
        if (F.owns(T.first, D)) {
          L = linUnknown();
          break;
        }
      }
    }
  }

  int32_t curMeta() const {
    for (auto It = Frames.rbegin(); It != Frames.rend(); ++It)
      if (It->Meta >= 0)
        return It->Meta;
    return -1;
  }

  void locate(int32_t Meta, uint32_t &Line, uint32_t &Col,
              std::string &Var) const {
    Line = 0;
    Col = 0;
    Var.clear();
    if (Meta >= 0 && static_cast<size_t>(Meta) < P.Loops.size()) {
      Line = P.Loops[Meta].Line;
      Col = P.Loops[Meta].Col;
      Var = P.Loops[Meta].Var;
    }
  }

  void finding(LirFindingKind K, std::string Msg) {
    uint32_t Line, Col;
    std::string Var;
    locate(curMeta(), Line, Col, Var);
    Res.Findings.push_back(LirFinding{K, std::move(Msg), Line, Col});
  }

  /// Re-establishes the canonical header values of a loop's pinned slots
  /// (iv hull + self symbol, ordinal, derived carried slots). set()
  /// treats each pin as a write and so wipes self-referencing forms
  /// (the sweep that correctly kills forms left from the previous
  /// abstract iteration); the pinned slot's own identity form is the
  /// header fact being established, so restore it afterwards.
  void pinFrame(const Frame &F) {
    set(F.Iv, F.IvHull, linSym(F.Iv));
    S.L[F.Iv] = linSym(F.Iv);
    if (F.Ord >= 0) {
      set(F.Ord, F.OrdHull, F.OrdLin);
      S.L[F.Ord] = F.OrdLin;
    }
    for (const auto &D : F.Der) {
      set(D.Slot, D.Hull, D.Form);
      S.L[D.Slot] = D.Form;
    }
  }

  /// Recognizes the loop's carried slots (lir::carriedSlots) as derived
  /// induction variables: a slot whose only definition in the region is
  /// a top-level self-increment `AddImmI X = X + d` advances by d per
  /// iteration, with hull and affine form derived from its preheader
  /// value.
  void collectDerived(Frame &F, size_t B, size_t E) {
    for (const auto &[Slot, Delta] : carriedSlots(P, B, E)) {
      if (!intSlot(Slot))
        continue;
      Derived Dv;
      Dv.Slot = Slot;
      Dv.Delta = Delta;
      Dv.EntryVal = S.V[Slot];
      Dv.EntryLin = S.L[Slot];
      __int128 Span = static_cast<__int128>(F.Trip - 1) * Dv.Delta;
      if (fits(Span)) {
        int64_t Sp = static_cast<int64_t>(Span);
        Dv.Hull = addIv(Dv.EntryVal,
                        Interval{std::min<int64_t>(0, Sp),
                                 std::max<int64_t>(0, Sp), false});
      } else {
        Dv.Hull = topIv();
      }
      // X_n = X_0 + n*d and n = (iv - init)*IvDelta when |IvDelta| == 1,
      // so X = X_0 + d*IvDelta*iv - d*IvDelta*init.
      Dv.Form = linUnknown();
      if (Dv.EntryLin.Known && (F.IvDelta == 1 || F.IvDelta == -1)) {
        __int128 K = static_cast<__int128>(Dv.Delta) * F.IvDelta;
        __int128 C0 = -K * F.IvInit;
        if (fits(K) && fits(C0)) {
          Lin Term;
          Term.Known = true;
          Term.C = static_cast<int64_t>(C0);
          Term.T.push_back({F.Iv, static_cast<int64_t>(K)});
          Dv.Form = linAdd(Dv.EntryLin, Term);
        }
      }
      if (!Dv.Form.Known)
        Dv.Form = linSym(Dv.Slot);
      F.Der.push_back(std::move(Dv));
    }
  }

  /// Shared loop-body fixpoint: iterate to a post-widening invariant,
  /// then replay the body once on the recorded pass.
  void fixpoint(Frame &F, size_t Body, size_t E) {
    Frames.push_back(std::move(F));
    AState Inv = std::move(S);
    bool SavedRec = Recording;
    for (int Iter = 0; Iter != 12; ++Iter) {
      S = Inv;
      pinFrame(Frames.back());
      AState Head = S;
      Recording = false;
      execSeq(Body, E);
      Recording = SavedRec;
      AState Next = joinStates(std::move(Head), std::move(S));
      if (Iter >= 1)
        widenAgainst(Next, Inv, Frames.back());
      bool Same = equalExceptOwned(Next, Inv, Frames.back());
      Inv = std::move(Next);
      if (Same)
        break;
    }
    S = std::move(Inv);
    pinFrame(Frames.back());
    execSeq(Body, E);
  }

  /// Static loop: exact iteration hulls, exact exit values
  /// (iv = init + Trip*delta, ord = Backward ? 0 : Trip+1 — mirrors
  /// LIREval's LoopEnd fallthrough).
  size_t doStaticLoop(size_t B) {
    const LInst &I = P.Code[B];
    size_t E = findEnd(B);
    if (S.Dead)
      return E;
    if (I.Imm2 <= 0)
      return E; // body skipped; iv/ord slots untouched (LIREval parity)
    Frame F;
    F.BeginIdx = B;
    F.Iv = I.A;
    F.Ord = I.B;
    F.IvInit = I.Imm0;
    F.IvDelta = I.Imm1;
    F.Trip = I.Imm2;
    F.Backward = I.backward();
    F.Flags = I.Flags;
    F.Meta = I.Meta;
    F.IfDepthAtEntry = IfDepth;
    __int128 Last =
        static_cast<__int128>(I.Imm0) + static_cast<__int128>(I.Imm2 - 1) * I.Imm1;
    if (fits(Last)) {
      int64_t L = static_cast<int64_t>(Last);
      F.IvHull = Interval{std::min(I.Imm0, L), std::max(I.Imm0, L), false};
      F.IvHull = normNZ(F.IvHull);
    } else {
      F.IvHull = topIv();
    }
    F.OrdHull = normNZ(Interval{1, I.Imm2, true});
    // ord = 1 - delta*init + delta*iv (forward) or
    //       Trip + delta*init - delta*iv (backward) when |delta| == 1.
    F.OrdLin = linUnknown();
    if (F.IvDelta == 1 || F.IvDelta == -1) {
      __int128 C0 = F.Backward
                        ? static_cast<__int128>(F.Trip) +
                              static_cast<__int128>(F.IvDelta) * F.IvInit
                        : static_cast<__int128>(1) -
                              static_cast<__int128>(F.IvDelta) * F.IvInit;
      if (fits(C0)) {
        F.OrdLin.Known = true;
        F.OrdLin.C = static_cast<int64_t>(C0);
        F.OrdLin.T.push_back({F.Iv, F.Backward ? -F.IvDelta : F.IvDelta});
      }
    }
    if (!F.OrdLin.Known)
      F.OrdLin = linSym(F.Ord);
    collectDerived(F, B, E);
    fixpoint(F, B + 1, E);
    Frame Done = std::move(Frames.back());
    Frames.pop_back();
    sweepOwned(Done);
    __int128 Exit = static_cast<__int128>(I.Imm0) +
                    static_cast<__int128>(I.Imm2) * I.Imm1;
    set(Done.Iv, fits(Exit) ? constIv(static_cast<int64_t>(Exit)) : topIv(),
        fits(Exit) ? linConst(static_cast<int64_t>(Exit)) : linUnknown());
    if (Done.Ord >= 0) {
      int64_t OrdExit = Done.Backward ? 0 : Done.Trip + 1;
      set(Done.Ord, constIv(OrdExit), linConst(OrdExit));
    }
    for (const auto &D : Done.Der) {
      __int128 DExit = static_cast<__int128>(D.Delta) * Done.Trip;
      Interval EIv = fits(DExit)
                         ? addIv(D.EntryVal,
                                 constIv(static_cast<int64_t>(DExit)))
                         : topIv();
      set(D.Slot, EIv, linUnknown());
    }
    return E;
  }

  /// Dynamic-bound loop: the body may run zero times, so the post state
  /// joins the entry state with the converged body state and the
  /// induction variable is forgotten.
  size_t doDynLoop(size_t B) {
    const LInst &I = P.Code[B];
    size_t E = findEnd(B);
    if (S.Dead)
      return E;
    Frame F;
    F.BeginIdx = B;
    F.Iv = I.A;
    F.Trip = -1;
    F.Flags = I.Flags;
    F.Meta = I.Meta;
    F.IfDepthAtEntry = IfDepth;
    Interval IvIn = intSlot(I.A) ? S.V[I.A] : topIv();
    Interval Hi = intSlot(I.B) ? bestIv(I.B) : topIv();
    Interval Step = intSlot(I.C) ? bestIv(I.C) : topIv();
    if (!Step.empty() && Step.Lo >= 1)
      F.IvHull = Interval{IvIn.Lo, std::max(IvIn.Hi, Hi.Hi), false};
    else if (!Step.empty() && Step.Hi <= -1)
      F.IvHull = Interval{std::min(IvIn.Lo, Hi.Lo), IvIn.Hi, false};
    else
      F.IvHull = topIv();
    F.IvHull = normNZ(F.IvHull);
    AState Entry = S;
    // The dyn-loop tail `iv += step` executes inside the region walk via
    // LoopDynEnd's transfer; the header re-pin makes it moot.
    fixpoint(F, B + 1, E);
    Frame Done = std::move(Frames.back());
    Frames.pop_back();
    AState After = std::move(S);
    S = joinStates(std::move(Entry), std::move(After));
    sweepOwned(Done);
    set(Done.Iv, topIv(), linUnknown());
    return E;
  }

  size_t doIf(size_t B) {
    const LInst &I = P.Code[B];
    size_t E = findEnd(B);
    if (S.Dead)
      return E;
    size_t Else = findElse(B, E);
    AState S0 = S;
    bool ThenOk = applyCond(I.A, true) && !S.Dead;
    AState SThen;
    if (ThenOk) {
      ++IfDepth;
      execSeq(B + 1, Else);
      --IfDepth;
      SThen = std::move(S);
    } else {
      SThen.Dead = true;
      SThen.V = S0.V; // keep shapes for joinStates
      SThen.L = S0.L;
      SThen.G = S0.G;
      SThen.Cmp = S0.Cmp;
    }
    S = std::move(S0);
    bool ElseOk = applyCond(I.A, false) && !S.Dead;
    if (ElseOk && Else != E) {
      ++IfDepth;
      execSeq(Else + 1, E);
      --IfDepth;
    }
    if (!ElseOk)
      S.Dead = true;
    S = joinStates(std::move(SThen), std::move(S));
    return E;
  }

  /// Assumes the condition slot is truthy (Sense) or falsy (!Sense),
  /// refining the slot itself and — via its generation-gated comparison
  /// record — both comparison operands. Returns false when the branch is
  /// infeasible.
  bool applyCond(int32_t Cond, bool Sense) {
    if (!intSlot(Cond))
      return true;
    Interval CV = S.V[Cond];
    if (Sense) {
      Interval NV = normNZ(Interval{CV.Lo, CV.Hi, true});
      if (NV.empty())
        return false;
      S.V[Cond] = NV;
    } else {
      if (CV.excludesZero())
        return false;
      Interval NV = meetIv(CV, Interval{0, 0, false});
      if (NV.empty())
        return false;
      NV.NZ = false;
      S.V[Cond] = NV;
    }
    const CmpRec R = S.Cmp[Cond];
    if (R.Valid && S.G[Cond] == R.GSelf && intSlot(R.B) && intSlot(R.C) &&
        S.G[R.B] == R.GB && S.G[R.C] == R.GC)
      refineCmp(R.Op, Sense != R.Neg, R.B, R.C);
    return !S.Dead;
  }

  void refineCmp(LOp Op, bool Eff, int32_t B, int32_t C) {
    // Canonicalize to one of <, <=, >, >=, ==, != between B and C.
    enum Rel { LT, LE, GT, GE, EQ, NE } R;
    switch (Op) {
    case LOp::CmpLtI:
      R = Eff ? LT : GE;
      break;
    case LOp::CmpLeI:
      R = Eff ? LE : GT;
      break;
    case LOp::CmpGtI:
      R = Eff ? GT : LE;
      break;
    case LOp::CmpGeI:
      R = Eff ? GE : LT;
      break;
    case LOp::CmpEqI:
      R = Eff ? EQ : NE;
      break;
    case LOp::CmpNeI:
      R = Eff ? NE : EQ;
      break;
    default:
      return;
    }
    Interval VB = bestIv(B), VC = bestIv(C);
    auto Dec = [](int64_t V) { return (V == kMin || V == kMax) ? V : V - 1; };
    auto Inc = [](int64_t V) { return (V == kMin || V == kMax) ? V : V + 1; };
    switch (R) {
    case LT:
      refineTo(B, Interval{kMin, Dec(VC.Hi), false});
      refineTo(C, Interval{Inc(VB.Lo), kMax, false});
      break;
    case LE:
      refineTo(B, Interval{kMin, VC.Hi, false});
      refineTo(C, Interval{VB.Lo, kMax, false});
      break;
    case GT:
      refineTo(B, Interval{Inc(VC.Lo), kMax, false});
      refineTo(C, Interval{kMin, Dec(VB.Hi), false});
      break;
    case GE:
      refineTo(B, Interval{VC.Lo, kMax, false});
      refineTo(C, Interval{kMin, VB.Hi, false});
      break;
    case EQ:
      refineTo(B, VC);
      refineTo(C, VB);
      break;
    case NE:
      if (VC.Lo == VC.Hi && !VC.empty())
        excludeConst(B, VC.Lo);
      if (VB.Lo == VB.Hi && !VB.empty())
        excludeConst(C, VB.Lo);
      break;
    }
  }

  void excludeConst(int32_t Slot, int64_t K) {
    if (!intSlot(Slot))
      return;
    Interval V = S.V[Slot];
    if (K == 0)
      V.NZ = true;
    if (V.Lo == K && V.Lo != kMin)
      V.Lo = K + 1;
    if (V.Hi == K && V.Hi != kMax)
      V.Hi = K - 1;
    V = normNZ(V);
    if (V.empty()) {
      S.Dead = true;
      return;
    }
    S.V[Slot] = V;
  }

  void doCheck(size_t Idx) {
    const LInst &I = P.Code[Idx];
    if (S.Dead)
      return;
    if (I.Op == LOp::CheckIdx) {
      Interval In = bestIv(I.B);
      bool Proven = In.within(I.Imm0, I.Imm1);
      if (Recording) {
        Checks[Idx] = CheckInfo{static_cast<uint8_t>(Proven ? 1 : 2), In.Lo,
                                In.Hi, curMeta()};
        if (I.provenClaim()) {
          if (Proven) {
            ++Res.Stats.ClaimsProven;
          } else {
            ++Res.Stats.ClaimsUnproven;
            if (Opts.CheckClaims) {
              std::ostringstream M;
              M << "unsound check elimination: dropped check \""
                << P.str(I.Str) << "\" is not re-provable on the optimized "
                << "LIR (derived range " << In.str() << ", required ["
                << I.Imm0 << ", " << I.Imm1 << "])";
              finding(LirFindingKind::UnsoundElimination, M.str());
            }
          }
        } else {
          Proven ? ++Res.Stats.ChecksProven : ++Res.Stats.ChecksRemaining;
        }
      }
      // Assume the check passed for downstream facts; a check that
      // cannot pass kills the path.
      refineTo(I.B, Interval{I.Imm0, I.Imm1, false});
      return;
    }
    if (I.Op == LOp::CheckNonZeroI) {
      Interval In = bestIv(I.B);
      bool Proven = In.empty() || In.excludesZero();
      if (Recording) {
        Checks[Idx] = CheckInfo{static_cast<uint8_t>(Proven ? 1 : 2), In.Lo,
                                In.Hi, curMeta()};
        Proven ? ++Res.Stats.ChecksProven : ++Res.Stats.ChecksRemaining;
      }
      if (intSlot(I.B)) {
        Interval NV = normNZ(Interval{S.V[I.B].Lo, S.V[I.B].Hi, true});
        if (NV.empty())
          S.Dead = true;
        else
          S.V[I.B] = NV;
      }
      return;
    }
    // CheckCollision / CheckDefined: outcome depends on the runtime
    // defined bitmap — no abstract effect either way.
  }

  /// Per-iteration address change of \p Ln across one iteration of
  /// frame \p F, summed over the symbols F owns. Symbols of deeper
  /// frames contribute nothing: a static loop's bounds are compile-time
  /// constants, so every iteration of F sweeps the deeper ranges
  /// identically and the written *set* shifts only by F's own symbols.
  /// (Dynamic deeper frames never reach the race checks — uncondIn
  /// rejects their Trip = -1.) Sets Unknown when a symbol belongs to no
  /// live frame or the arithmetic overflows.
  int64_t effDelta(const Lin &Ln, size_t FrameIdx, bool &Unknown) const {
    __int128 Eff = 0;
    for (const auto &T : Ln.T) {
      int64_t D;
      bool Placed = false;
      for (size_t K = 0; K != Frames.size(); ++K) {
        if (Frames[K].owns(T.first, D)) {
          Placed = true;
          if (K == FrameIdx)
            Eff += static_cast<__int128>(T.second) * D;
          // K != FrameIdx: shallower symbols are fixed while F runs;
          // deeper symbols enumerate the same constant range each
          // iteration — neither shifts the footprint of F.
          break;
        }
      }
      if (!Placed)
        Unknown = true; // symbol of an already-exited loop
    }
    if (!fits(Eff))
      Unknown = true;
    return Unknown ? 0 : static_cast<int64_t>(Eff);
  }

  bool uncondIn(size_t FrameIdx) const {
    if (IfDepth != Frames[FrameIdx].IfDepthAtEntry)
      return false;
    for (size_t K = FrameIdx + 1; K != Frames.size(); ++K)
      if (Frames[K].Trip < 1)
        return false;
    return true;
  }

  void doStore(size_t Idx) {
    const LInst &I = P.Code[Idx];
    if (S.Dead || !Recording)
      return;
    Lin Al = intSlot(I.B) ? linAddConst(S.L[I.B], I.Imm1) : linUnknown();
    bool AnyPar = false;
    for (size_t K = 0; K != Frames.size(); ++K) {
      const Frame &F = Frames[K];
      if (Opts.CheckRaces && (F.Flags & FlagParDoall)) {
        AnyPar = true;
        if (F.Trip >= 2 && uncondIn(K)) {
          if (!Al.Known) {
            ++Res.Stats.ParUnproven;
          } else {
            bool Unk = false;
            int64_t Eff = effDelta(Al, K, Unk);
            if (Unk)
              ++Res.Stats.ParUnproven;
            else if (Eff == 0) {
              std::ostringstream M;
              M << "DOALL race: every iteration of parallel loop";
              if (F.Meta >= 0)
                M << " `" << P.Loops[F.Meta].Var << "`";
              M << " (trip " << F.Trip
                << ") writes the same target element (per-iteration "
                   "address delta 0)";
              finding(LirFindingKind::DoallOverlap, M.str());
            }
          }
        }
      }
      if (Opts.CheckRaces && (F.Flags & FlagParWaveOuter) &&
          K + 1 < Frames.size() &&
          (Frames[K + 1].Flags & FlagParWaveInner)) {
        AnyPar = true;
        const Frame &In = Frames[K + 1];
        if (F.Trip >= 2 && In.Trip >= 2 && uncondIn(K)) {
          if (!Al.Known) {
            ++Res.Stats.ParUnproven;
          } else {
            bool UnkO = false, UnkI = false;
            int64_t EffO = effDelta(Al, K, UnkO);
            int64_t EffI = effDelta(Al, K + 1, UnkI);
            if (UnkO || UnkI)
              ++Res.Stats.ParUnproven;
            else if (EffO == EffI) {
              // Along one anti-diagonal front the inner index drops by
              // one per outer step, so equal deltas collapse every cell
              // of the front onto the same element.
              std::ostringstream M;
              M << "wavefront race: cells of one front write the same "
                   "target element (per-iteration address deltas outer="
                << EffO << ", inner=" << EffI << ")";
              finding(LirFindingKind::WaveCrossFront, M.str());
            }
          }
        }
      }
    }
    if (AnyPar)
      ++Res.Stats.ParStores;
    if (Opts.CheckWriteDisjoint && Al.Known) {
      for (size_t K = 0; K != Frames.size(); ++K) {
        const Frame &F = Frames[K];
        if (F.Trip < 2 || !uncondIn(K))
          continue;
        bool Unk = false;
        int64_t Eff = effDelta(Al, K, Unk);
        if (Unk || Eff != 0)
          continue;
        bool Rmw = false;
        for (const Lin &Ld : F.BodyLoads)
          if (Ld == Al) {
            Rmw = true; // accumulation read-modify-write
            break;
          }
        if (Rmw)
          continue;
        std::ostringstream M;
        M << "unsound collision-check elimination: store repeats the "
             "same target element on every iteration of loop";
        if (F.Meta >= 0)
          M << " `" << P.Loops[F.Meta].Var << "`";
        M << " (trip " << F.Trip << ") with the collision check dropped";
        finding(LirFindingKind::UnsoundElimination, M.str());
        break;
      }
    }
  }

  void doLoadT(size_t Idx) {
    const LInst &I = P.Code[Idx];
    if (S.Dead)
      return;
    if (Recording) {
      Lin Al = intSlot(I.B) ? linAddConst(S.L[I.B], I.Imm1) : linUnknown();
      if (Al.Known)
        for (auto &F : Frames)
          F.BodyLoads.push_back(Al);
      Interval In = addIv(bestIv(I.B), constIv(I.Imm1));
      if (P.TargetSize > 0 &&
          In.within(0, static_cast<int64_t>(P.TargetSize) - 1))
        ++Res.Stats.LoadsProven;
      else
        ++Res.Stats.LoadsUnproven;
    }
  }

  void transfer(size_t Idx) {
    const LInst &I = P.Code[Idx];
    if (S.Dead)
      return;
    auto VB = [&] { return intSlot(I.B) ? S.V[I.B] : topIv(); };
    auto VC = [&] { return intSlot(I.C) ? S.V[I.C] : topIv(); };
    auto LB = [&] { return intSlot(I.B) ? S.L[I.B] : linUnknown(); };
    auto LC = [&] { return intSlot(I.C) ? S.L[I.C] : linUnknown(); };
    switch (I.Op) {
    case LOp::ConstI:
      set(I.A, constIv(I.Imm0), linConst(I.Imm0));
      break;
    case LOp::MovI:
      set(I.A, VB(), LB());
      break;
    case LOp::AddI:
      set(I.A, addIv(VB(), VC()), linAdd(LB(), LC()));
      break;
    case LOp::SubI:
      set(I.A, subIv(VB(), VC()), linSub(LB(), LC()));
      break;
    case LOp::NegI:
      set(I.A, negIv(VB()), linScale(LB(), -1));
      break;
    case LOp::AbsI: {
      Interval B = VB();
      set(I.A, absIv(B),
          B.Lo >= 0 ? LB() : (B.Hi <= 0 ? linScale(LB(), -1) : linUnknown()));
      break;
    }
    case LOp::MinI: {
      Lin L = LB() == LC() ? LB() : linUnknown();
      set(I.A, minIv(VB(), VC()), L);
      break;
    }
    case LOp::MaxI: {
      Lin L = LB() == LC() ? LB() : linUnknown();
      set(I.A, maxIv(VB(), VC()), L);
      break;
    }
    case LOp::AddImmI:
      set(I.A, addIv(VB(), constIv(I.Imm0)), linAddConst(LB(), I.Imm0));
      break;
    case LOp::MulImmI:
      set(I.A, mulImmIv(VB(), I.Imm0), linScale(LB(), I.Imm0));
      break;
    case LOp::MulI: {
      Interval B = VB(), C = VC();
      Lin L = linUnknown();
      if (C.Lo == C.Hi && !C.empty())
        L = linScale(LB(), C.Lo);
      else if (B.Lo == B.Hi && !B.empty())
        L = linScale(LC(), B.Lo);
      set(I.A, mulIv(B, C), L);
      break;
    }
    case LOp::DivI: {
      Interval B = VB(), C = VC();
      if (B.Lo == B.Hi && C.Lo == C.Hi && !B.empty() && !C.empty() &&
          C.Lo != 0 && !(B.Lo == kMin && C.Lo == -1))
        set(I.A, constIv(B.Lo / C.Lo), linConst(B.Lo / C.Lo));
      else
        set(I.A, topIv(), linUnknown());
      break;
    }
    case LOp::ModI: {
      Interval C = VC();
      int64_t M = kMax;
      if (C.excludesZero() && C.Lo != kMin && C.Hi != kMax)
        M = std::max(absIv(C).Hi, int64_t(1));
      set(I.A, remIv(VB(), M == kMax ? 0 : M + 1), linUnknown());
      break;
    }
    case LOp::ModImmI: {
      Interval B = VB();
      int64_t M = I.Imm0 < 0 ? (I.Imm0 == kMin ? kMax : -I.Imm0) : I.Imm0;
      if (I.Imm0 > 0 && B.within(0, I.Imm0 - 1) && !B.empty())
        set(I.A, B, LB()); // identity: already reduced
      else
        set(I.A, remIv(B, M), linUnknown());
      break;
    }
    case LOp::CmpEqI:
    case LOp::CmpNeI:
    case LOp::CmpLtI:
    case LOp::CmpLeI:
    case LOp::CmpGtI:
    case LOp::CmpGeI: {
      int32_t B = I.B, C = I.C;
      set(I.A, Interval{0, 1, false}, linUnknown());
      if (intSlot(I.A) && intSlot(B) && intSlot(C))
        S.Cmp[I.A] = CmpRec{true, I.Op, B, C, S.G[B], S.G[C], S.G[I.A], false};
      break;
    }
    case LOp::CmpEqF:
    case LOp::CmpNeF:
    case LOp::CmpLtF:
    case LOp::CmpLeF:
    case LOp::CmpGtF:
    case LOp::CmpGeF:
      set(I.A, Interval{0, 1, false}, linUnknown());
      break;
    case LOp::NotB: {
      CmpRec R = intSlot(I.B) ? S.Cmp[I.B] : CmpRec{};
      bool Carry = R.Valid && S.G[I.B] == R.GSelf;
      set(I.A, Interval{0, 1, false}, linUnknown());
      if (Carry && intSlot(I.A)) {
        R.Neg = !R.Neg;
        R.GSelf = S.G[I.A];
        S.Cmp[I.A] = R;
      }
      break;
    }
    case LOp::IToF:
    case LOp::ConstF:
    case LOp::MovF:
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
    case LOp::LoadIn:
    case LOp::LoadRing:
    case LOp::LoadSnap:
      // Float results are untracked; the destination stays top.
      break;
    default:
      // Anything unexpected: havoc the written slots.
      int32_t W[2];
      int N = writtenSlots(I, W);
      for (int K = 0; K != N; ++K)
        set(W[K], topIv(), linUnknown());
      break;
    }
  }

  void execSeq(size_t B, size_t E) {
    for (size_t I = B; I < E; ++I) {
      switch (P.Code[I].Op) {
      case LOp::LoopBegin:
        I = doStaticLoop(I);
        break;
      case LOp::LoopDynBegin:
        I = doDynLoop(I);
        break;
      case LOp::IfBegin:
        I = doIf(I);
        break;
      case LOp::LoopEnd:
      case LOp::LoopDynEnd:
      case LOp::IfEnd:
      case LOp::Else:
        break; // handled by the region dispatchers
      case LOp::Fail:
        S.Dead = true;
        break;
      case LOp::CheckIdx:
      case LOp::CheckNonZeroI:
      case LOp::CheckCollision:
      case LOp::CheckDefined:
        doCheck(I);
        break;
      case LOp::StoreT:
        doStore(I);
        break;
      case LOp::LoadT:
        doLoadT(I);
        break;
      case LOp::SaveRing:
      case LOp::SnapSaveT:
      case LOp::CountBounds:
      case LOp::CountGuard:
      case LOp::CountFused:
        break;
      default:
        transfer(I);
        break;
      }
    }
  }

  void run() {
    Recording = true;
    execSeq(0, P.Code.size());
  }
};

} // namespace

std::string Interval::str() const {
  if (empty())
    return "empty";
  std::ostringstream OS;
  OS << "[";
  if (Lo == INT64_MIN)
    OS << "-inf";
  else
    OS << Lo;
  OS << ", ";
  if (Hi == INT64_MAX)
    OS << "+inf";
  else
    OS << Hi;
  OS << "]";
  if (NZ && Lo <= 0 && Hi >= 0)
    OS << " !=0";
  return OS.str();
}

AbsintResult lir::analyze(const LIRProgram &P, const AnalyzeOptions &Opts) {
  Engine E(P, Opts);
  E.run();
  return std::move(E.Res);
}

unsigned lir::secondChance(LIRProgram &P,
                           std::vector<SecondChanceNote> *Notes) {
  AnalyzeOptions AO;
  AO.CheckClaims = false;
  AO.CheckRaces = false;
  AO.CheckWriteDisjoint = false;
  Engine E(P, AO);
  E.run();
  std::vector<LInst> NewCode;
  NewCode.reserve(P.Code.size());
  unsigned N = 0;
  for (size_t I = 0; I != P.Code.size(); ++I) {
    const LInst &In = P.Code[I];
    bool Proven = (In.Op == LOp::CheckIdx || In.Op == LOp::CheckNonZeroI) &&
                  E.Checks[I].Status == 1;
    if (!Proven) {
      NewCode.push_back(In);
      continue;
    }
    ++N;
    if (Notes) {
      SecondChanceNote Note;
      Note.CheckMsg = In.Str >= 0 ? P.str(In.Str) : std::string();
      uint32_t Line, Col;
      std::string Var;
      E.locate(E.Checks[I].Meta, Line, Col, Var);
      Note.LoopVar = Var;
      Note.Line = Line;
      Note.Col = Col;
      Note.Lo = E.Checks[I].Lo;
      Note.Hi = E.Checks[I].Hi;
      if (In.Op == LOp::CheckIdx) {
        Note.CheckLo = In.Imm0;
        Note.CheckHi = In.Imm1;
      } else {
        Note.NonZero = true;
      }
      Note.WasClaim = In.provenClaim();
      Notes->push_back(std::move(Note));
    }
  }
  P.Code = std::move(NewCode);
  P.NumAbsintElim += N;
  // The deleted checks may have been the last readers of their operand
  // chains, and the only thing keeping counters apart.
  if (N)
    cleanup(P);
  return N;
}

PlanVerifyResult lir::verifyPlanLIR(const ExecPlan &Plan,
                                    const ArrayDims &TargetDims,
                                    const ParamEnv &Params,
                                    const PlanVerifyOptions &Opts) {
  PlanVerifyResult R;
  ExecPlan Local = Plan;
  switch (Opts.InjectKind) {
  case PlanVerifyOptions::Inject::ReadClaims:
    Local.CheckReadBounds = false;
    break;
  case PlanVerifyOptions::Inject::StoreClaims:
    Local.CheckStoreBounds = false;
    break;
  case PlanVerifyOptions::Inject::Collisions:
    Local.CheckCollisions = false;
    break;
  default:
    break;
  }
  // Unknown input shapes are assumed to match the target's, so claims
  // validate against a concrete shape instead of dissolving into lazy
  // Fail sites.
  LIRProgram P = lowerPlan(Local, TargetDims, Params, {},
                           /*AssumeTargetShape=*/true, /*ValidateReads=*/true);
  bool InjectPar = Opts.InjectKind == PlanVerifyOptions::Inject::Doall ||
                   Opts.InjectKind == PlanVerifyOptions::Inject::Wave;
  optimize(P);
  if (Opts.SecondChance)
    secondChance(P, &R.Eliminated);
  std::string Err;
  if (!seal(P, Err)) {
    R.LoweringFailed = true;
    R.Error = Err;
    return R;
  }
  legalizePar(P, false);
  if (InjectPar) {
    // Force the planner-bypassing flags the golden corpus asks for
    // (after legalization, so the legality pass cannot demote them).
    auto FindEnd = [&](size_t B) {
      int D = 0;
      for (size_t I = B; I != P.Code.size(); ++I) {
        LOp Op = P.Code[I].Op;
        if (Op == LOp::LoopBegin || Op == LOp::LoopDynBegin ||
            Op == LOp::IfBegin)
          ++D;
        else if (Op == LOp::LoopEnd || Op == LOp::LoopDynEnd ||
                 Op == LOp::IfEnd)
          if (--D == 0)
            return I;
      }
      return P.Code.size();
    };
    for (size_t I = 0; I != P.Code.size(); ++I) {
      if (P.Code[I].Op != LOp::LoopBegin || P.Code[I].Imm2 < 2)
        continue;
      size_t E = FindEnd(I);
      if (E == P.Code.size())
        break;
      if (Opts.InjectKind == PlanVerifyOptions::Inject::Doall) {
        P.Code[I].Flags |= FlagParDoall;
        P.Code[E].Flags |= FlagParDoall;
        break;
      }
      // Wave: need a directly usable static inner loop.
      size_t Inner = P.Code.size();
      for (size_t J = I + 1; J < E; ++J)
        if (P.Code[J].Op == LOp::LoopBegin && P.Code[J].Imm2 >= 2) {
          Inner = J;
          break;
        }
      if (Inner == P.Code.size())
        continue;
      size_t InnerEnd = FindEnd(Inner);
      P.Code[I].Flags |= FlagParWaveOuter;
      P.Code[E].Flags |= FlagParWaveOuter;
      P.Code[Inner].Flags |= FlagParWaveInner;
      P.Code[InnerEnd].Flags |= FlagParWaveInner;
      break;
    }
  }
  AnalyzeOptions AO;
  AO.CheckClaims = true;
  AO.CheckRaces = true;
  AO.CheckWriteDisjoint = !Local.InPlace && !Local.CheckCollisions;
  R.Absint = analyze(P, AO);
  // Claims the second-chance pass already deleted were proven there.
  for (const SecondChanceNote &N : R.Eliminated)
    if (N.WasClaim)
      ++R.Absint.Stats.ClaimsProven;
  return R;
}

unsigned lir::reportLIRFindings(const PlanVerifyResult &R,
                                DiagnosticEngine &Diags, unsigned *PerRule) {
  unsigned Recorded = 0;
  auto Bump = [&](RuleID Rule) {
    ++Recorded;
    if (PerRule)
      ++PerRule[static_cast<unsigned>(Rule) - 1];
  };
  if (R.LoweringFailed) {
    Diags.error("LIR verification could not run: " + R.Error);
    ++Recorded;
    return Recorded;
  }
  for (const LirFinding &F : R.Absint.Findings) {
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    switch (F.Kind) {
    case LirFindingKind::UnsoundElimination:
      D.Rule = RuleID::HAC009;
      break;
    case LirFindingKind::DoallOverlap:
      D.Rule = RuleID::HAC010;
      break;
    case LirFindingKind::WaveCrossFront:
      D.Rule = RuleID::HAC011;
      break;
    }
    D.Loc = SourceLoc(F.Line, F.Col);
    D.Message = F.Message;
    RuleID Rule = D.Rule;
    if (Diags.report(std::move(D)))
      Bump(Rule);
  }
  for (const SecondChanceNote &N : R.Eliminated) {
    if (N.WasClaim)
      continue; // the front end already took credit for these
    Diagnostic D;
    D.Severity = DiagSeverity::Note;
    D.Rule = RuleID::HAC012;
    D.Loc = SourceLoc(N.Line, N.Col);
    std::ostringstream M;
    M << "second-chance elimination: residual check";
    if (!N.CheckMsg.empty())
      M << " \"" << N.CheckMsg << "\"";
    M << " proven redundant after loop optimization (";
    if (N.NonZero)
      M << "operand range " << Interval{N.Lo, N.Hi, true}.str()
        << " excludes zero";
    else
      M << "operand range " << Interval{N.Lo, N.Hi, false}.str()
        << " within [" << N.CheckLo << ", " << N.CheckHi << "]";
    M << ")";
    if (!N.LoopVar.empty())
      M << " in loop `" << N.LoopVar << "`";
    D.Message = M.str();
    if (Diags.report(std::move(D)))
      Bump(RuleID::HAC012);
  }
  return Recorded;
}
