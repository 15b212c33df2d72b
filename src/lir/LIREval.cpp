//===- lir/LIREval.cpp - LIR evaluator ------------------------------------===//
//
// Serial execution is a single runSpan over the whole stream. Parallel
// execution dispatches par-flagged loops to the thread pool:
//
//   DOALL      — the iteration space is split into contiguous chunks
//                (at most threads*4 for load-balancing slack); every
//                task copies the register file at loop entry, re-seeds
//                the carried slots (lir::carriedSlots) for its first
//                iteration, sets the induction slots per iteration, and
//                runs the body span.
//   wavefront  — anti-diagonal fronts f = o + i are executed in order
//                with a barrier between fronts (ThreadPool::parallelFor
//                is the barrier); cells within a front are independent
//                by construction of the ParPlanner's distance test. A
//                cell re-seeds the outer carried slots, re-runs the
//                prelude between the loops and advances the inner
//                carried slots, which legalizePar proved safe.
//
// Error reporting stays deterministic across thread counts: each task
// records the iteration coordinates of its first failure and the merge
// keeps the lexicographically smallest one — exactly the iteration the
// serial run would have failed on (cells ordered before it observe the
// same stores in both schedules, so they behave identically). Stores
// issued by iterations ordered after the failing one may differ from a
// serial run, matching the usual "results are undefined after an
// error" contract.
//
//===----------------------------------------------------------------------===//

#include "lir/LIREval.h"

#include "lir/LIRPasses.h"
#include "support/ChromeTrace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

using namespace hac;
using namespace hac::lir;

namespace {

union Reg {
  int64_t i;
  double d;
};

uint64_t profNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-run profiling state, threaded through the profiled interpreter
/// instantiation only. Instrs/Checks are whole-run tallies; Stack holds
/// one frame per currently open attributed loop, recording the tallies
/// and clock at entry so the exit can charge the inclusive deltas.
struct ProfCtx {
  LoopProfile *Tab = nullptr; ///< parallel to LIRProgram::Loops
  uint64_t Instrs = 0;
  uint64_t Checks = 0;
  struct Frame {
    int32_t Meta;
    uint64_t I0, C0, T0;
  };
  std::vector<Frame> Stack;
};

/// Per-task ExecStats deltas; merged under no lock after the pool
/// barrier, so parallel totals equal serial totals exactly.
struct LocalCounters {
  uint64_t Stores = 0, Loads = 0, RingSaves = 0, SnapshotCopies = 0;
  uint64_t BoundsChecks = 0, CollisionChecks = 0, GuardEvals = 0,
           FusedIters = 0;
  void mergeInto(LocalCounters &O) const {
    O.Stores += Stores;
    O.Loads += Loads;
    O.RingSaves += RingSaves;
    O.SnapshotCopies += SnapshotCopies;
    O.BoundsChecks += BoundsChecks;
    O.CollisionChecks += CollisionChecks;
    O.GuardEvals += GuardEvals;
    O.FusedIters += FusedIters;
  }
};

struct Machine {
  const LIRProgram &P;
  DoubleArray &Target;
  const std::vector<const double *> &Inputs;
  std::vector<std::vector<double>> &Rings;
  std::vector<std::vector<double>> &Snaps;
  par::ThreadPool *Pool;

  /// Dispatches to the plain or profiled interpreter instantiation.
  /// The disabled path carries no profiling code at all — not even the
  /// dead branches — so `-profile` off costs nothing in the hot loop.
  bool runSpan(size_t Lo, size_t Hi, Reg *R, LocalCounters &C,
               std::string &Err, bool AllowPar, ProfCtx *PF) {
    return PF ? runSpanImpl<true>(Lo, Hi, R, C, Err, AllowPar, PF)
              : runSpanImpl<false>(Lo, Hi, R, C, Err, AllowPar, nullptr);
  }
  /// The interpreter loop. Its start is pinned to a cache line so its
  /// speed does not depend on the size of unrelated code linked ahead
  /// of it: a 48-mod-64 start cost ~30% on n=512 stencil sweeps
  /// (4-vCPU Xeon, gcc 12).
  template <bool ProfOn>
  [[gnu::aligned(64)]] bool runSpanImpl(size_t Lo, size_t Hi, Reg *R,
                                        LocalCounters &C, std::string &Err,
                                        bool AllowPar, ProfCtx *PF);
  bool runDoall(size_t Begin, Reg *R, LocalCounters &C, std::string &Err,
                ProfCtx *PF);
  bool runWave(size_t Begin, Reg *R, LocalCounters &C, std::string &Err,
               ProfCtx *PF);

  /// Span name for the timeline: the generator variable when the loop
  /// is attributed, else the opcode position.
  std::string loopName(const LInst &I, size_t At) const {
    if (I.Meta >= 0)
      return P.Loops[static_cast<size_t>(I.Meta)].Var;
    return "loop@" + std::to_string(At);
  }
};

template <bool ProfOn>
bool Machine::runSpanImpl(size_t Lo, size_t Hi, Reg *R, LocalCounters &C,
                          std::string &Err, bool AllowPar, ProfCtx *PF) {
  const LInst *Code = P.Code.data();
  auto Fail = [&](std::string Msg) {
    Err = std::move(Msg);
    return false;
  };

  size_t PC = Lo;
  while (PC < Hi) {
    const LInst &I = Code[PC];
    if constexpr (ProfOn)
      ++PF->Instrs;
    switch (I.Op) {
    case LOp::ConstI:
      R[I.A].i = I.Imm0;
      break;
    case LOp::ConstF:
      R[I.A].d = I.FImm;
      break;
    case LOp::MovI:
      R[I.A].i = R[I.B].i;
      break;
    case LOp::MovF:
      R[I.A].d = R[I.B].d;
      break;
    case LOp::IToF:
      R[I.A].d = static_cast<double>(R[I.B].i);
      break;

    case LOp::AddI:
      R[I.A].i = R[I.B].i + R[I.C].i;
      break;
    case LOp::SubI:
      R[I.A].i = R[I.B].i - R[I.C].i;
      break;
    case LOp::MulI:
      R[I.A].i = R[I.B].i * R[I.C].i;
      break;
    case LOp::DivI: // a preceding CheckNonZeroI guards the divisor
      R[I.A].i = R[I.B].i / R[I.C].i;
      break;
    case LOp::ModI:
      R[I.A].i = R[I.B].i % R[I.C].i;
      break;
    case LOp::NegI:
      R[I.A].i = -R[I.B].i;
      break;
    case LOp::AbsI:
      R[I.A].i = R[I.B].i < 0 ? -R[I.B].i : R[I.B].i;
      break;
    case LOp::MinI:
      R[I.A].i = R[I.B].i < R[I.C].i ? R[I.B].i : R[I.C].i;
      break;
    case LOp::MaxI:
      R[I.A].i = R[I.B].i > R[I.C].i ? R[I.B].i : R[I.C].i;
      break;
    case LOp::AddImmI:
      R[I.A].i = R[I.B].i + I.Imm0;
      break;
    case LOp::MulImmI:
      R[I.A].i = R[I.B].i * I.Imm0;
      break;
    case LOp::ModImmI:
      R[I.A].i = R[I.B].i % I.Imm0;
      break;

    case LOp::AddF:
      R[I.A].d = R[I.B].d + R[I.C].d;
      break;
    case LOp::SubF:
      R[I.A].d = R[I.B].d - R[I.C].d;
      break;
    case LOp::MulF:
      R[I.A].d = R[I.B].d * R[I.C].d;
      break;
    case LOp::DivF:
      R[I.A].d = R[I.B].d / R[I.C].d;
      break;
    case LOp::ModF:
      R[I.A].d = std::fmod(R[I.B].d, R[I.C].d);
      break;
    case LOp::NegF:
      R[I.A].d = -R[I.B].d;
      break;
    case LOp::AbsF:
      R[I.A].d = std::fabs(R[I.B].d);
      break;
    case LOp::MinF:
      R[I.A].d = R[I.B].d < R[I.C].d ? R[I.B].d : R[I.C].d;
      break;
    case LOp::MaxF:
      R[I.A].d = R[I.B].d > R[I.C].d ? R[I.B].d : R[I.C].d;
      break;
    case LOp::SqrtF:
      R[I.A].d = std::sqrt(R[I.B].d);
      break;

    case LOp::CmpEqI:
      R[I.A].i = R[I.B].i == R[I.C].i;
      break;
    case LOp::CmpNeI:
      R[I.A].i = R[I.B].i != R[I.C].i;
      break;
    case LOp::CmpLtI:
      R[I.A].i = R[I.B].i < R[I.C].i;
      break;
    case LOp::CmpLeI:
      R[I.A].i = R[I.B].i <= R[I.C].i;
      break;
    case LOp::CmpGtI:
      R[I.A].i = R[I.B].i > R[I.C].i;
      break;
    case LOp::CmpGeI:
      R[I.A].i = R[I.B].i >= R[I.C].i;
      break;
    case LOp::CmpEqF:
      R[I.A].i = R[I.B].d == R[I.C].d;
      break;
    case LOp::CmpNeF:
      R[I.A].i = R[I.B].d != R[I.C].d;
      break;
    case LOp::CmpLtF:
      R[I.A].i = R[I.B].d < R[I.C].d;
      break;
    case LOp::CmpLeF:
      R[I.A].i = R[I.B].d <= R[I.C].d;
      break;
    case LOp::CmpGtF:
      R[I.A].i = R[I.B].d > R[I.C].d;
      break;
    case LOp::CmpGeF:
      R[I.A].i = R[I.B].d >= R[I.C].d;
      break;
    case LOp::NotB:
      R[I.A].i = R[I.B].i ? 0 : 1;
      break;

    case LOp::LoopBegin:
      if (AllowPar && Pool && (I.Flags & ParFlagMask)) {
        // Nested par-flagged loops were cleared by legalizePar; a task
        // never re-enters the pool (AllowPar is false inside tasks).
        if (I.parDoall()) {
          if (!runDoall(PC, R, C, Err, PF))
            return false;
          PC = static_cast<size_t>(I.Jump) + 1;
          continue;
        }
        if (I.parWaveOuter()) {
          if (!runWave(PC, R, C, Err, PF))
            return false;
          PC = static_cast<size_t>(I.Jump) + 1;
          continue;
        }
        // A stray WaveInner runs serially.
      }
      if (I.Imm2 <= 0) {
        PC = static_cast<size_t>(I.Jump) + 1;
        continue;
      }
      if constexpr (ProfOn) {
        // Static loops dispatch their Begin once per entry (the back
        // edge targets Begin+1), so this is the open-frame point. The
        // -1 charges the Begin dispatch itself to the loop.
        if (I.Meta >= 0) {
          LoopProfile &L = PF->Tab[I.Meta];
          L.Entries += 1;
          L.Trips += static_cast<uint64_t>(I.Imm2);
          PF->Stack.push_back(
              {I.Meta, PF->Instrs - 1, PF->Checks, profNowNs()});
        }
      }
      R[I.A].i = I.Imm0;
      R[I.B].i = I.backward() ? I.Imm2 : 1;
      break;
    case LOp::LoopEnd: {
      R[I.A].i += I.Imm1;
      int64_t Ord = R[I.B].i + (I.backward() ? -1 : 1);
      R[I.B].i = Ord;
      if (I.backward() ? Ord >= 1 : Ord <= I.Imm2) {
        PC = static_cast<size_t>(I.Jump) + 1;
        continue;
      }
      if constexpr (ProfOn) {
        // Falling through is the loop exit; the matching Begin (this
        // End's Jump target) carries the attribution.
        int32_t Meta = Code[I.Jump].Meta;
        if (Meta >= 0 && !PF->Stack.empty() &&
            PF->Stack.back().Meta == Meta) {
          ProfCtx::Frame F = PF->Stack.back();
          PF->Stack.pop_back();
          LoopProfile &L = PF->Tab[Meta];
          L.Instrs += PF->Instrs - F.I0;
          L.Checks += PF->Checks - F.C0;
          L.Nanos += profNowNs() - F.T0;
        }
      }
      break;
    }
    case LOp::LoopDynBegin: {
      int64_t Step = R[I.C].i;
      bool In = Step > 0 ? R[I.A].i <= R[I.B].i : R[I.A].i >= R[I.B].i;
      if constexpr (ProfOn) {
        // Dynamic loops re-dispatch their Begin for every iteration
        // test, so the frame opens on the first passing test and
        // closes on the failing one.
        if (I.Meta >= 0) {
          bool Open =
              !PF->Stack.empty() && PF->Stack.back().Meta == I.Meta;
          if (In) {
            if (!Open) {
              PF->Tab[I.Meta].Entries += 1;
              PF->Stack.push_back(
                  {I.Meta, PF->Instrs - 1, PF->Checks, profNowNs()});
            }
            PF->Tab[I.Meta].Trips += 1;
          } else if (Open) {
            ProfCtx::Frame F = PF->Stack.back();
            PF->Stack.pop_back();
            LoopProfile &L = PF->Tab[I.Meta];
            L.Instrs += PF->Instrs - F.I0;
            L.Checks += PF->Checks - F.C0;
            L.Nanos += profNowNs() - F.T0;
          }
        }
      }
      if (!In) {
        PC = static_cast<size_t>(I.Jump) + 1;
        continue;
      }
      break;
    }
    case LOp::LoopDynEnd:
      R[I.A].i += R[I.C].i;
      PC = static_cast<size_t>(I.Jump); // re-test at the Begin
      continue;
    case LOp::IfBegin:
      if (!R[I.A].i) {
        PC = static_cast<size_t>(I.Jump) + 1;
        continue;
      }
      break;
    case LOp::Else: // end of the then-branch: skip past the IfEnd
      PC = static_cast<size_t>(I.Jump) + 1;
      continue;
    case LOp::IfEnd:
      break;

    case LOp::LoadT:
      R[I.A].d = Target[static_cast<size_t>(R[I.B].i + I.Imm1)];
      ++C.Loads;
      break;
    case LOp::LoadIn:
      R[I.A].d = Inputs[static_cast<size_t>(I.Imm0)][R[I.B].i + I.Imm1];
      ++C.Loads;
      break;
    case LOp::LoadRing:
      R[I.A].d = Rings[static_cast<size_t>(I.Imm0)][R[I.B].i];
      ++C.Loads;
      break;
    case LOp::LoadSnap:
      R[I.A].d = Snaps[static_cast<size_t>(I.Imm0)][R[I.B].i];
      ++C.Loads;
      break;
    case LOp::StoreT: {
      size_t Lin = static_cast<size_t>(R[I.B].i + I.Imm1);
      Target[Lin] = R[I.C].d;
      Target.setDefined(Lin);
      ++C.Stores;
      break;
    }
    case LOp::SaveRing:
      Rings[static_cast<size_t>(I.Imm0)][R[I.B].i] =
          Target[static_cast<size_t>(R[I.C].i)];
      ++C.RingSaves;
      break;
    case LOp::SnapSaveT:
      Snaps[static_cast<size_t>(I.Imm0)][R[I.B].i] =
          Target[static_cast<size_t>(R[I.C].i)];
      ++C.SnapshotCopies;
      break;

    case LOp::CheckIdx: {
      if constexpr (ProfOn)
        ++PF->Checks;
      int64_t V = R[I.B].i;
      if (V < I.Imm0 || V > I.Imm1)
        return Fail(P.str(I.Str));
      break;
    }
    case LOp::CheckNonZeroI:
      if constexpr (ProfOn)
        ++PF->Checks;
      if (R[I.B].i == 0)
        return Fail(P.str(I.Str));
      break;
    case LOp::CheckCollision: {
      if constexpr (ProfOn)
        ++PF->Checks;
      ++C.CollisionChecks;
      size_t Lin = static_cast<size_t>(R[I.B].i);
      if (Target.hasDefinedBits() && Target.isDefined(Lin))
        return Fail(
            "multiple definitions for one array element (write collision)"
            " at linear index " +
            std::to_string(Lin));
      break;
    }
    case LOp::CheckDefined: {
      if constexpr (ProfOn)
        ++PF->Checks;
      size_t Lin = static_cast<size_t>(R[I.B].i);
      if (!Target.isDefined(Lin))
        return Fail("schedule violation: read of element not yet computed "
                    "(linear index " +
                    std::to_string(Lin) + ")");
      break;
    }

    case LOp::CountBounds:
      C.BoundsChecks += static_cast<uint64_t>(I.Imm0);
      break;
    case LOp::CountGuard:
      C.GuardEvals += static_cast<uint64_t>(I.Imm0);
      break;
    case LOp::CountFused:
      C.FusedIters += static_cast<uint64_t>(I.Imm0);
      break;

    case LOp::Fail:
      return Fail(P.str(I.Str));
    }
    ++PC;
  }
  return true;
}

bool Machine::runDoall(size_t Begin, Reg *R, LocalCounters &C,
                       std::string &Err, ProfCtx *PF) {
  const LInst &I = P.Code[Begin];
  const size_t End = static_cast<size_t>(I.Jump);
  const int64_t Trip = I.Imm2;
  if (Trip <= 0)
    return true; // caller skips past the end marker
  const int64_t NumChunks = std::min<int64_t>(
      Trip, static_cast<int64_t>(Pool->threads()) * 4);

  const bool TL = timelineEnabled();
  ChromeTraceSink &TS = ChromeTraceSink::get();
  const uint64_t LoopT0 = (TL || PF) ? TS.nowNs() : 0;
  const uint64_t WallT0 = PF ? profNowNs() : 0;

  struct TaskOut {
    LocalCounters C;
    std::string Msg;
    int64_t ErrIter = -1;
    std::vector<LoopProfile> Prof; ///< nested-loop tallies, task-local
    uint64_t Instrs = 0, Checks = 0;
  };
  std::vector<TaskOut> Outs(static_cast<size_t>(NumChunks));
  const Reg *Entry = R;
  const auto Carried = carriedSlots(P, Begin);
  Pool->parallelFor(static_cast<size_t>(NumChunks), [&](size_t T) {
    TaskOut &TO = Outs[T];
    std::vector<Reg> LR(Entry, Entry + P.NumSlots);
    const int64_t Lo = Trip * static_cast<int64_t>(T) / NumChunks;
    const int64_t Hi = Trip * static_cast<int64_t>(T + 1) / NumChunks;
    for (const auto &[S, Step] : Carried)
      LR[S].i = Entry[S].i + Step * Lo;
    ProfCtx TCtx;
    ProfCtx *TPF = nullptr;
    if (PF) {
      TO.Prof.assign(P.Loops.size(), LoopProfile{});
      TCtx.Tab = TO.Prof.data();
      TPF = &TCtx;
    }
    const uint64_t ChunkT0 = TL ? TS.nowNs() : 0;
    for (int64_t K = Lo; K < Hi; ++K) {
      LR[I.A].i = I.Imm0 + K * I.Imm1;
      LR[I.B].i = I.backward() ? Trip - K : K + 1;
      std::string E2;
      if (!runSpan(Begin + 1, End, LR.data(), TO.C, E2,
                   /*AllowPar=*/false, TPF)) {
        TO.Msg = std::move(E2);
        TO.ErrIter = K;
        break;
      }
    }
    if (TPF) {
      TO.Instrs = TCtx.Instrs;
      TO.Checks = TCtx.Checks;
    }
    if (TL)
      TS.completeSpan("chunk", "doall", ChunkT0, TS.nowNs(),
                      par::ThreadPool::currentWorker(),
                      "\"lo\": " + std::to_string(Lo) +
                          ", \"hi\": " + std::to_string(Hi));
  });

  int64_t MinIter = -1;
  size_t MinT = 0;
  uint64_t BodyInstrs = 0, BodyChecks = 0;
  for (size_t T = 0; T != Outs.size(); ++T) {
    Outs[T].C.mergeInto(C);
    if (PF) {
      BodyInstrs += Outs[T].Instrs;
      BodyChecks += Outs[T].Checks;
      for (size_t L = 0; L != Outs[T].Prof.size(); ++L) {
        LoopProfile &Dst = PF->Tab[L];
        const LoopProfile &Src = Outs[T].Prof[L];
        Dst.Entries += Src.Entries;
        Dst.Trips += Src.Trips;
        Dst.Instrs += Src.Instrs;
        Dst.Checks += Src.Checks;
        Dst.Nanos += Src.Nanos;
      }
    }
    if (Outs[T].ErrIter >= 0 && (MinIter < 0 || Outs[T].ErrIter < MinIter)) {
      MinIter = Outs[T].ErrIter;
      MinT = T;
    }
  }
  if (TL)
    TS.completeSpan(loopName(I, Begin), "doall", LoopT0, TS.nowNs(),
                    par::ThreadPool::currentWorker(),
                    "\"trip\": " + std::to_string(Trip) +
                        ", \"chunks\": " + std::to_string(NumChunks));
  if (PF) {
    // Tasks counted body dispatches only; add what the serial schedule
    // would also have dispatched: one LoopEnd per iteration (the Begin
    // was already tallied by the caller's dispatch).
    PF->Instrs += BodyInstrs;
    PF->Checks += BodyChecks;
    if (MinIter < 0) {
      PF->Instrs += static_cast<uint64_t>(Trip);
      if (I.Meta >= 0) {
        LoopProfile &L = PF->Tab[I.Meta];
        L.Entries += 1;
        L.Trips += static_cast<uint64_t>(Trip);
        L.Instrs += BodyInstrs + static_cast<uint64_t>(Trip) + 1;
        L.Checks += BodyChecks;
        L.Nanos += profNowNs() - WallT0;
      }
    }
  }
  if (MinIter >= 0) {
    Err = std::move(Outs[MinT].Msg);
    return false;
  }
  // Serial exit state of the induction slots (chunk files are private).
  R[I.A].i = I.Imm0 + Trip * I.Imm1;
  R[I.B].i = I.backward() ? 0 : Trip + 1;
  return true;
}

bool Machine::runWave(size_t Begin, Reg *R, LocalCounters &C,
                      std::string &Err, ProfCtx *PF) {
  const LInst &O = P.Code[Begin];
  size_t IB = Begin + 1;
  while (P.Code[IB].Op != LOp::LoopBegin) // legalizePar proved it exists
    ++IB;
  const LInst &In = P.Code[IB];
  const size_t IE = static_cast<size_t>(In.Jump);
  const int64_t T1 = O.Imm2, T2 = In.Imm2; // legalizePar proved T2 >= 1
  if (T1 <= 0)
    return true;
  // The serial schedule runs the prelude between the loop headers and
  // the outer tail increments once per outer iteration; a cell re-runs
  // the prelude and re-seeds the increments' slots instead.
  const uint64_t PreLen = static_cast<uint64_t>(IB - (Begin + 1));
  const uint64_t TailLen = static_cast<uint64_t>(O.Jump) - (IE + 1);
  uint64_t PreChecks = 0;
  for (size_t I = Begin + 1; I != IB; ++I)
    PreChecks += P.Code[I].Op == LOp::CheckIdx ||
                 P.Code[I].Op == LOp::CheckNonZeroI;
  const auto OuterCarried = carriedSlots(P, Begin);
  const auto InnerCarried = carriedSlots(P, IB);
  const bool TL = timelineEnabled();
  ChromeTraceSink &TS = ChromeTraceSink::get();
  const uint64_t LoopT0 = TL ? TS.nowNs() : 0;
  const uint64_t WallT0 = PF ? profNowNs() : 0;

  struct TaskOut {
    LocalCounters C;
    std::string Msg;
    int64_t EO = -1, EI = -1; // first failing cell, task-local
    std::vector<LoopProfile> Prof;
    uint64_t Instrs = 0, Checks = 0, Nanos = 0;
  };
  int64_t MinO = -1, MinI = -1;
  std::string MinMsg;
  const Reg *Entry = R;
  const int64_t TaskCap = static_cast<int64_t>(Pool->threads()) * 4;
  uint64_t CellBodySum = 0, CellCheckSum = 0, CellNanoSum = 0;

  for (int64_t F = 0; F <= T1 + T2 - 2; ++F) {
    // Keep sweeping until every cell ordered lex-before the recorded
    // error has run, so the reported failure matches the serial one.
    if (MinO >= 0 && F > MinO + T2 - 1)
      break;
    const int64_t OLo = std::max<int64_t>(0, F - (T2 - 1));
    const int64_t OHi = std::min<int64_t>(F, T1 - 1); // inclusive
    const int64_t Cells = OHi - OLo + 1;
    const int64_t NumTasks = std::min<int64_t>(Cells, TaskCap);
    const uint64_t FrontT0 = TL ? TS.nowNs() : 0;
    std::vector<TaskOut> Outs(static_cast<size_t>(NumTasks));
    Pool->parallelFor(static_cast<size_t>(NumTasks), [&](size_t T) {
      TaskOut &TO = Outs[T];
      std::vector<Reg> LR(Entry, Entry + P.NumSlots);
      const int64_t CLo = OLo + Cells * static_cast<int64_t>(T) / NumTasks;
      const int64_t CHi =
          OLo + Cells * static_cast<int64_t>(T + 1) / NumTasks;
      ProfCtx TCtx;
      ProfCtx *TPF = nullptr;
      uint64_t TaskT0 = 0;
      if (PF) {
        TO.Prof.assign(P.Loops.size(), LoopProfile{});
        TCtx.Tab = TO.Prof.data();
        TPF = &TCtx;
        TaskT0 = profNowNs();
      }
      const uint64_t SpanT0 = TL ? TS.nowNs() : 0;
      for (int64_t Co = CLo; Co < CHi; ++Co) {
        const int64_t Ci = F - Co;
        LR[O.A].i = O.Imm0 + Co * O.Imm1;
        LR[O.B].i = Co + 1;
        for (const auto &[S, Step] : OuterCarried)
          LR[S].i = Entry[S].i + Step * Co;
        std::string E2;
        // The prelude is re-evaluated per cell (legalizePar proved that
        // safe). The serial schedule runs it once per outer iteration,
        // so its counters count on the cell that starts the row, and it
        // runs unprofiled: the caller compensates with T1 * PreLen below.
        LocalCounters Discard;
        if (!runSpan(Begin + 1, IB, LR.data(), Ci == 0 ? TO.C : Discard, E2,
                     false, nullptr)) {
          TO.Msg = std::move(E2);
          TO.EO = Co;
          TO.EI = -1; // before any inner iteration of this cell
          break;
        }
        LR[In.A].i = In.Imm0 + Ci * In.Imm1;
        LR[In.B].i = Ci + 1;
        for (const auto &[S, Step] : InnerCarried)
          LR[S].i += Step * Ci;
        if (!runSpan(IB + 1, IE, LR.data(), TO.C, E2, false, TPF)) {
          TO.Msg = std::move(E2);
          TO.EO = Co;
          TO.EI = Ci;
          break;
        }
      }
      if (TPF) {
        TO.Instrs = TCtx.Instrs;
        TO.Checks = TCtx.Checks;
        TO.Nanos = profNowNs() - TaskT0;
      }
      if (TL)
        TS.completeSpan("cells", "wave", SpanT0, TS.nowNs(),
                        par::ThreadPool::currentWorker(),
                        "\"front\": " + std::to_string(F) +
                            ", \"lo\": " + std::to_string(CLo) +
                            ", \"hi\": " + std::to_string(CHi));
    });
    for (TaskOut &TO : Outs) {
      TO.C.mergeInto(C);
      if (PF) {
        CellBodySum += TO.Instrs;
        CellCheckSum += TO.Checks;
        CellNanoSum += TO.Nanos;
        for (size_t L = 0; L != TO.Prof.size(); ++L) {
          LoopProfile &Dst = PF->Tab[L];
          const LoopProfile &Src = TO.Prof[L];
          Dst.Entries += Src.Entries;
          Dst.Trips += Src.Trips;
          Dst.Instrs += Src.Instrs;
          Dst.Checks += Src.Checks;
          Dst.Nanos += Src.Nanos;
        }
      }
      if (TO.EO >= 0 && (MinO < 0 || TO.EO < MinO ||
                         (TO.EO == MinO && TO.EI < MinI))) {
        MinO = TO.EO;
        MinI = TO.EI;
        MinMsg = std::move(TO.Msg);
      }
    }
    if (TL)
      TS.completeSpan("front", "wave", FrontT0, TS.nowNs(),
                      par::ThreadPool::currentWorker(),
                      "\"front\": " + std::to_string(F) +
                          ", \"cells\": " + std::to_string(Cells));
  }
  if (TL)
    TS.completeSpan(loopName(O, Begin) + "/" + loopName(In, IB), "wave",
                    LoopT0, TS.nowNs(), par::ThreadPool::currentWorker(),
                    "\"t1\": " + std::to_string(T1) +
                        ", \"t2\": " + std::to_string(T2));
  if (PF) {
    PF->Checks += CellCheckSum;
    if (MinO < 0) {
      const uint64_t UT1 = static_cast<uint64_t>(T1);
      const uint64_t UT2 = static_cast<uint64_t>(T2);
      // Serial-equivalent dispatch compensation (the outer Begin was
      // tallied by the caller): per outer iteration the serial run
      // executes the prelude (PreLen, PreChecks of them checks), the
      // inner Begin, T2 inner Ends, the tail and the outer End, plus
      // every cell's inner-body instructions.
      PF->Instrs +=
          UT1 * (PreLen + TailLen) + 2 * UT1 + UT1 * UT2 + CellBodySum;
      PF->Checks += UT1 * PreChecks;
      const uint64_t InnerIncl = CellBodySum + UT1 + UT1 * UT2;
      if (In.Meta >= 0) {
        LoopProfile &L = PF->Tab[In.Meta];
        L.Entries += UT1;
        L.Trips += UT1 * UT2;
        L.Instrs += InnerIncl;
        L.Checks += CellCheckSum;
        L.Nanos += CellNanoSum;
      }
      if (O.Meta >= 0) {
        LoopProfile &L = PF->Tab[O.Meta];
        L.Entries += 1;
        L.Trips += UT1;
        L.Instrs += 1 + UT1 * (PreLen + TailLen) + UT1 + InnerIncl;
        L.Checks += CellCheckSum + UT1 * PreChecks;
        L.Nanos += profNowNs() - WallT0;
      }
    } else {
      PF->Instrs += CellBodySum;
    }
  }
  if (MinO >= 0) {
    Err = std::move(MinMsg);
    return false;
  }
  // Serial exit state of the induction slots (cell files are private).
  R[O.A].i = O.Imm0 + T1 * O.Imm1;
  R[O.B].i = T1 + 1; // the planner only pairs forward loops
  R[In.A].i = In.Imm0 + T2 * In.Imm1;
  R[In.B].i = T2 + 1;
  return true;
}

} // namespace

bool lir::evalLIR(const LIRProgram &P, DoubleArray &Target,
                  const std::vector<const double *> &Inputs,
                  std::vector<std::vector<double>> &Rings,
                  std::vector<std::vector<double>> &Snaps, ExecStats &Stats,
                  std::string &Err, par::ThreadPool *Pool,
                  EvalProfile *Prof) {
  std::vector<Reg> R(P.NumSlots, Reg{0});
  LocalCounters C;
  Machine M{P, Target, Inputs, Rings, Snaps,
            Pool && Pool->threads() > 1 ? Pool : nullptr};
  ProfCtx Ctx;
  ProfCtx *PF = nullptr;
  uint64_t T0 = 0;
  if (Prof) {
    Prof->Loops.assign(P.Loops.size(), LoopProfile{});
    Ctx.Tab = Prof->Loops.data();
    PF = &Ctx;
    T0 = profNowNs();
  }
  bool OK = M.runSpan(0, P.Code.size(), R.data(), C, Err,
                      /*AllowPar=*/M.Pool != nullptr, PF);
  if (Prof) {
    Prof->RootInstrs = Ctx.Instrs;
    Prof->RootChecks = Ctx.Checks;
    Prof->RootNanos = profNowNs() - T0;
  }
  // Flush counters on success and on failure alike (the seed executor
  // counted events up to the point of the error).
  Stats.Stores += C.Stores;
  Stats.Loads += C.Loads;
  Stats.RingSaves += C.RingSaves;
  Stats.SnapshotCopies += C.SnapshotCopies;
  Stats.BoundsChecks += C.BoundsChecks;
  Stats.CollisionChecks += C.CollisionChecks;
  Stats.GuardEvals += C.GuardEvals;
  Stats.FusedIters += C.FusedIters;
  return OK;
}
