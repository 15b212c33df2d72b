//===- lir/LIR.cpp - Sealing, verification, and printing ------------------===//

#include "lir/LIR.h"

#include <sstream>
#include <vector>

using namespace hac;
using namespace hac::lir;

const char *lir::opName(LOp Op) {
  switch (Op) {
  case LOp::ConstI: return "const.i";
  case LOp::ConstF: return "const.f";
  case LOp::MovI: return "mov.i";
  case LOp::MovF: return "mov.f";
  case LOp::IToF: return "itof";
  case LOp::AddI: return "add.i";
  case LOp::SubI: return "sub.i";
  case LOp::MulI: return "mul.i";
  case LOp::DivI: return "div.i";
  case LOp::ModI: return "mod.i";
  case LOp::NegI: return "neg.i";
  case LOp::AbsI: return "abs.i";
  case LOp::MinI: return "min.i";
  case LOp::MaxI: return "max.i";
  case LOp::AddImmI: return "addimm.i";
  case LOp::MulImmI: return "mulimm.i";
  case LOp::ModImmI: return "modimm.i";
  case LOp::AddF: return "add.f";
  case LOp::SubF: return "sub.f";
  case LOp::MulF: return "mul.f";
  case LOp::DivF: return "div.f";
  case LOp::ModF: return "mod.f";
  case LOp::NegF: return "neg.f";
  case LOp::AbsF: return "abs.f";
  case LOp::MinF: return "min.f";
  case LOp::MaxF: return "max.f";
  case LOp::SqrtF: return "sqrt.f";
  case LOp::CmpEqI: return "cmpeq.i";
  case LOp::CmpNeI: return "cmpne.i";
  case LOp::CmpLtI: return "cmplt.i";
  case LOp::CmpLeI: return "cmple.i";
  case LOp::CmpGtI: return "cmpgt.i";
  case LOp::CmpGeI: return "cmpge.i";
  case LOp::CmpEqF: return "cmpeq.f";
  case LOp::CmpNeF: return "cmpne.f";
  case LOp::CmpLtF: return "cmplt.f";
  case LOp::CmpLeF: return "cmple.f";
  case LOp::CmpGtF: return "cmpgt.f";
  case LOp::CmpGeF: return "cmpge.f";
  case LOp::NotB: return "not.b";
  case LOp::LoopBegin: return "loop";
  case LOp::LoopEnd: return "endloop";
  case LOp::LoopDynBegin: return "loopdyn";
  case LOp::LoopDynEnd: return "endloopdyn";
  case LOp::IfBegin: return "if";
  case LOp::Else: return "else";
  case LOp::IfEnd: return "endif";
  case LOp::LoadT: return "load.t";
  case LOp::LoadIn: return "load.in";
  case LOp::LoadRing: return "load.ring";
  case LOp::LoadSnap: return "load.snap";
  case LOp::StoreT: return "store.t";
  case LOp::SaveRing: return "save.ring";
  case LOp::SnapSaveT: return "snapsave.t";
  case LOp::CheckIdx: return "check.idx";
  case LOp::CheckCollision: return "check.collision";
  case LOp::CheckDefined: return "check.defined";
  case LOp::CheckNonZeroI: return "check.nonzero";
  case LOp::CountBounds: return "count.bounds";
  case LOp::CountGuard: return "count.guard";
  case LOp::CountFused: return "count.fused";
  case LOp::Fail: return "fail";
  }
  return "?";
}

namespace {

struct Region {
  LOp Opener;       // LoopBegin, LoopDynBegin, or IfBegin
  int32_t BeginIdx; // index of the opener
  int32_t ElseIdx = -1;
};

} // namespace

bool lir::canFail(const LIRProgram &P) {
  for (const LInst &I : P.Code)
    switch (I.Op) {
    case LOp::CheckIdx:
    case LOp::CheckNonZeroI:
    case LOp::CheckCollision:
    case LOp::CheckDefined:
    case LOp::Fail:
      return true;
    default:
      break;
    }
  return false;
}

bool lir::seal(LIRProgram &P, std::string &Err) {
  std::vector<Region> Stack;
  for (size_t I = 0; I != P.Code.size(); ++I) {
    LInst &Inst = P.Code[I];
    int32_t Idx = static_cast<int32_t>(I);
    switch (Inst.Op) {
    case LOp::LoopBegin:
    case LOp::LoopDynBegin:
    case LOp::IfBegin:
      Stack.push_back(Region{Inst.Op, Idx});
      break;
    case LOp::Else: {
      if (Stack.empty() || Stack.back().Opener != LOp::IfBegin ||
          Stack.back().ElseIdx >= 0) {
        Err = "else without matching if at instruction " +
              std::to_string(I);
        return false;
      }
      Stack.back().ElseIdx = Idx;
      P.Code[Stack.back().BeginIdx].Jump = Idx;
      break;
    }
    case LOp::IfEnd: {
      if (Stack.empty() || Stack.back().Opener != LOp::IfBegin) {
        Err = "endif without matching if at instruction " +
              std::to_string(I);
        return false;
      }
      Region R = Stack.back();
      Stack.pop_back();
      if (R.ElseIdx >= 0)
        P.Code[R.ElseIdx].Jump = Idx;
      else
        P.Code[R.BeginIdx].Jump = Idx;
      Inst.Jump = R.BeginIdx;
      break;
    }
    case LOp::LoopEnd: {
      if (Stack.empty() || Stack.back().Opener != LOp::LoopBegin) {
        Err = "endloop without matching loop at instruction " +
              std::to_string(I);
        return false;
      }
      Region R = Stack.back();
      Stack.pop_back();
      P.Code[R.BeginIdx].Jump = Idx;
      Inst.Jump = R.BeginIdx;
      // Mirror the loop parameters onto the End so the evaluator's
      // back-edge needs no second fetch.
      const LInst &Begin = P.Code[R.BeginIdx];
      Inst.A = Begin.A;
      Inst.B = Begin.B;
      Inst.Imm1 = Begin.Imm1;
      Inst.Imm2 = Begin.Imm2;
      Inst.Flags = Begin.Flags;
      break;
    }
    case LOp::LoopDynEnd: {
      if (Stack.empty() || Stack.back().Opener != LOp::LoopDynBegin) {
        Err = "endloopdyn without matching loopdyn at instruction " +
              std::to_string(I);
        return false;
      }
      Region R = Stack.back();
      Stack.pop_back();
      P.Code[R.BeginIdx].Jump = Idx;
      Inst.Jump = R.BeginIdx;
      const LInst &Begin = P.Code[R.BeginIdx];
      Inst.A = Begin.A;
      Inst.C = Begin.C;
      break;
    }
    default:
      break;
    }
  }
  if (!Stack.empty()) {
    Err = "unclosed region opened at instruction " +
          std::to_string(Stack.back().BeginIdx);
    return false;
  }
  return true;
}

std::string lir::verify(const LIRProgram &P) {
  auto Bad = [](size_t I, const std::string &Msg) {
    return "LIR verify: instruction " + std::to_string(I) + ": " + Msg;
  };
  std::vector<LOp> Stack;
  for (size_t I = 0; I != P.Code.size(); ++I) {
    const LInst &Inst = P.Code[I];
    // Region structure.
    switch (Inst.Op) {
    case LOp::LoopBegin:
    case LOp::LoopDynBegin:
    case LOp::IfBegin:
      Stack.push_back(Inst.Op);
      break;
    case LOp::Else:
      if (Stack.empty() || Stack.back() != LOp::IfBegin)
        return Bad(I, "else outside if");
      break;
    case LOp::IfEnd:
      if (Stack.empty() || Stack.back() != LOp::IfBegin)
        return Bad(I, "unbalanced endif");
      Stack.pop_back();
      break;
    case LOp::LoopEnd:
      if (Stack.empty() || Stack.back() != LOp::LoopBegin)
        return Bad(I, "unbalanced endloop");
      Stack.pop_back();
      break;
    case LOp::LoopDynEnd:
      if (Stack.empty() || Stack.back() != LOp::LoopDynBegin)
        return Bad(I, "unbalanced endloopdyn");
      Stack.pop_back();
      break;
    default:
      break;
    }

    // Slot ranges and static types.
    auto CheckSlot = [&](int32_t S) -> bool {
      return S >= 0 && static_cast<uint32_t>(S) < P.NumSlots;
    };
    int32_t R[3];
    int NR = readSlots(Inst, R);
    for (int K = 0; K != NR; ++K)
      if (!CheckSlot(R[K]))
        return Bad(I, std::string(opName(Inst.Op)) + " reads bad slot " +
                          std::to_string(R[K]));
    int32_t W[2];
    int NW = writtenSlots(Inst, W);
    for (int K = 0; K != NW; ++K)
      if (!CheckSlot(W[K]))
        return Bad(I, std::string(opName(Inst.Op)) + " writes bad slot " +
                          std::to_string(W[K]));

    auto IsF = [&](int32_t S) { return P.SlotIsF[S] != 0; };
    switch (Inst.Op) {
    case LOp::ConstF:
    case LOp::MovF:
    case LOp::IToF:
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
    case LOp::LoadT:
    case LOp::LoadIn:
    case LOp::LoadRing:
    case LOp::LoadSnap:
      if (!IsF(Inst.A))
        return Bad(I, std::string(opName(Inst.Op)) + " into int slot");
      break;
    case LOp::ConstI:
    case LOp::MovI:
    case LOp::AddI:
    case LOp::SubI:
    case LOp::MulI:
    case LOp::DivI:
    case LOp::ModI:
    case LOp::NegI:
    case LOp::AbsI:
    case LOp::MinI:
    case LOp::MaxI:
    case LOp::AddImmI:
    case LOp::MulImmI:
    case LOp::ModImmI:
    case LOp::NotB:
      if (IsF(Inst.A))
        return Bad(I, std::string(opName(Inst.Op)) + " into float slot");
      break;
    case LOp::StoreT:
      if (IsF(Inst.B) || !IsF(Inst.C))
        return Bad(I, "store.t operand types");
      break;
    case LOp::IfBegin:
      if (IsF(Inst.A))
        return Bad(I, "if condition is a float slot");
      break;
    case LOp::CheckIdx:
    case LOp::CheckCollision:
    case LOp::CheckDefined:
    case LOp::CheckNonZeroI:
      if (IsF(Inst.B))
        return Bad(I, "check operand is a float slot");
      break;
    default:
      break;
    }
    if (Inst.Op == LOp::ModImmI && Inst.Imm0 == 0)
      return Bad(I, "modimm.i by zero");
    // Only load.t, load.in and store.t take an address displacement.
    if ((Inst.Op == LOp::LoadRing || Inst.Op == LOp::LoadSnap ||
         Inst.Op == LOp::SaveRing || Inst.Op == LOp::SnapSaveT) &&
        Inst.Imm1 != 0)
      return Bad(I, std::string(opName(Inst.Op)) +
                        " with an address displacement");

    // String table references.
    if ((Inst.Op == LOp::Fail || Inst.Op == LOp::CheckIdx ||
         Inst.Op == LOp::CheckNonZeroI) &&
        (Inst.Str < 0 ||
         static_cast<size_t>(Inst.Str) >= P.Strs.size()))
      return Bad(I, "bad string index");

    // Jump sanity (only meaningful after seal()).
    if (Inst.Jump >= 0 &&
        static_cast<size_t>(Inst.Jump) >= P.Code.size())
      return Bad(I, "jump out of range");

    // Loop attribution references.
    if (Inst.Meta >= 0 &&
        (static_cast<size_t>(Inst.Meta) >= P.Loops.size() ||
         (Inst.Op != LOp::LoopBegin && Inst.Op != LOp::LoopDynBegin)))
      return Bad(I, "bad loop meta index");
  }
  if (!Stack.empty())
    return "LIR verify: unclosed region at end of program";
  return std::string();
}

std::string lir::printLIR(const LIRProgram &P) {
  std::ostringstream OS;
  OS << "lir {\n";
  OS << "  target dims:";
  for (const auto &[Lo, Hi] : P.TargetDims)
    OS << " [" << Lo << ".." << Hi << "]";
  OS << " (" << P.TargetSize << " elems)\n";
  if (!P.InputNames.empty()) {
    OS << "  inputs:";
    for (size_t I = 0; I != P.InputNames.size(); ++I)
      OS << " in" << I << "=" << P.InputNames[I];
    OS << "\n";
  }
  for (size_t I = 0; I != P.RingSizes.size(); ++I)
    OS << "  ring" << I << ": " << P.RingSizes[I] << " elems\n";
  for (size_t I = 0; I != P.SnapSizes.size(); ++I)
    OS << "  snap" << I << ": " << P.SnapSizes[I] << " elems\n";
  OS << "  slots: " << P.NumSlots
     << (P.HasDefined ? ", defined-bitmap" : "")
     << (P.CheckEmpties ? ", empties-sweep" : "") << "\n";

  unsigned Indent = 1;
  auto Slot = [&](int32_t S) {
    std::string R = (S >= 0 && static_cast<uint32_t>(S) < P.NumSlots &&
                     P.SlotIsF[S])
                        ? "%f"
                        : "%i";
    return R + std::to_string(S);
  };
  // A memory address: the slot, then any displacement as +k / -k.
  auto Addr = [&](const LInst &Inst) {
    std::string A = Slot(Inst.B);
    if (Inst.Imm1 > 0)
      A += '+';
    if (Inst.Imm1 != 0)
      A += std::to_string(Inst.Imm1);
    return A;
  };
  for (size_t I = 0; I != P.Code.size(); ++I) {
    const LInst &Inst = P.Code[I];
    bool Closer = Inst.Op == LOp::LoopEnd || Inst.Op == LOp::LoopDynEnd ||
                  Inst.Op == LOp::IfEnd || Inst.Op == LOp::Else;
    if (Closer && Indent > 0)
      --Indent;
    for (unsigned K = 0; K != Indent; ++K)
      OS << "  ";
    switch (Inst.Op) {
    case LOp::ConstI:
      OS << Slot(Inst.A) << " = const.i " << Inst.Imm0;
      break;
    case LOp::ConstF:
      OS << Slot(Inst.A) << " = const.f " << Inst.FImm;
      break;
    case LOp::AddImmI:
    case LOp::MulImmI:
    case LOp::ModImmI:
      OS << Slot(Inst.A) << " = " << opName(Inst.Op) << " " << Slot(Inst.B)
         << ", " << Inst.Imm0;
      break;
    case LOp::MovI:
    case LOp::MovF:
    case LOp::IToF:
    case LOp::NegI:
    case LOp::AbsI:
    case LOp::NegF:
    case LOp::AbsF:
    case LOp::SqrtF:
    case LOp::NotB:
      OS << Slot(Inst.A) << " = " << opName(Inst.Op) << " " << Slot(Inst.B);
      break;
    case LOp::LoopBegin:
      OS << "loop iv=" << Slot(Inst.A) << " ord=" << Slot(Inst.B)
         << " init=" << Inst.Imm0 << " delta=" << Inst.Imm1
         << " trip=" << Inst.Imm2 << (Inst.backward() ? " backward" : "");
      if (Inst.parDoall())
        OS << " par=doall";
      else if (Inst.parWaveOuter())
        OS << " par=wave-outer";
      else if (Inst.parWaveInner())
        OS << " par=wave-inner";
      OS << " {";
      break;
    case LOp::LoopEnd:
      OS << "}";
      break;
    case LOp::LoopDynBegin:
      OS << "loopdyn iv=" << Slot(Inst.A) << " hi=" << Slot(Inst.B)
         << " step=" << Slot(Inst.C) << " {";
      break;
    case LOp::LoopDynEnd:
      OS << "}";
      break;
    case LOp::IfBegin:
      OS << "if " << Slot(Inst.A) << " {";
      break;
    case LOp::Else:
      OS << "} else {";
      break;
    case LOp::IfEnd:
      OS << "}";
      break;
    case LOp::LoadT:
      OS << Slot(Inst.A) << " = load.t [" << Addr(Inst) << "]";
      break;
    case LOp::LoadIn:
      OS << Slot(Inst.A) << " = load.in in" << Inst.Imm0 << "["
         << Addr(Inst) << "]";
      break;
    case LOp::LoadRing:
      OS << Slot(Inst.A) << " = load.ring ring" << Inst.Imm0 << "["
         << Slot(Inst.B) << "]";
      break;
    case LOp::LoadSnap:
      OS << Slot(Inst.A) << " = load.snap snap" << Inst.Imm0 << "["
         << Slot(Inst.B) << "]";
      break;
    case LOp::StoreT:
      OS << "store.t [" << Addr(Inst) << "] = " << Slot(Inst.C);
      break;
    case LOp::SaveRing:
      OS << "save.ring ring" << Inst.Imm0 << "[" << Slot(Inst.B)
         << "] = target[" << Slot(Inst.C) << "]";
      break;
    case LOp::SnapSaveT:
      OS << "snapsave.t snap" << Inst.Imm0 << "[" << Slot(Inst.B)
         << "] = target[" << Slot(Inst.C) << "]";
      break;
    case LOp::CheckIdx:
      OS << "check.idx " << Slot(Inst.B) << " in [" << Inst.Imm0 << ".."
         << Inst.Imm1 << "] rc=" << Inst.Imm2 << " \"" << P.str(Inst.Str)
         << "\"";
      break;
    case LOp::CheckCollision:
      OS << "check.collision [" << Slot(Inst.B) << "]";
      break;
    case LOp::CheckDefined:
      OS << "check.defined [" << Slot(Inst.B) << "]";
      break;
    case LOp::CheckNonZeroI:
      OS << "check.nonzero " << Slot(Inst.B) << " rc=" << Inst.Imm2
         << " \"" << P.str(Inst.Str) << "\"";
      break;
    case LOp::CountBounds:
    case LOp::CountGuard:
    case LOp::CountFused:
      OS << opName(Inst.Op) << " +" << Inst.Imm0;
      break;
    case LOp::Fail:
      OS << "fail \"" << P.str(Inst.Str) << "\"";
      break;
    default:
      OS << Slot(Inst.A) << " = " << opName(Inst.Op) << " " << Slot(Inst.B)
         << ", " << Slot(Inst.C);
      break;
    }
    OS << "\n";
    bool Opener = Inst.Op == LOp::LoopBegin || Inst.Op == LOp::LoopDynBegin ||
                  Inst.Op == LOp::IfBegin || Inst.Op == LOp::Else;
    if (Opener)
      ++Indent;
  }
  OS << "}\n";
  return OS.str();
}
