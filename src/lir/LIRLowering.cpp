//===- lir/LIRLowering.cpp - ExecPlan -> LIR lowering ---------------------===//
//
// Mirrors the seed tree-walking executor's evaluation order and error
// messages instruction for instruction: a Fail lowered at position p
// executes exactly when the seed would have reported the same message at
// the same point of the run (region structure keeps conditionally-dead
// errors conditionally dead). Static scalar types replace the seed's
// dynamic Scalar tags; the source language's literals make the two agree.
//
//===----------------------------------------------------------------------===//

#include "lir/LIRLowering.h"

#include "ast/ASTPrinter.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace hac;
using namespace hac::lir;

namespace {

enum class VType : uint8_t { Int, Float, Bool };

struct LVal {
  int32_t Slot = -1;
  VType T = VType::Int;
};

class Lowering {
public:
  Lowering(const ExecPlan &Plan, const ArrayDims &TargetDims,
           const ParamEnv &Params,
           const std::map<std::string, ArrayDims> &InputDims,
           bool AssumeTargetShape, bool ValidateReads)
      : Plan(Plan), TargetDims(TargetDims), Params(Params),
        InputDims(InputDims), AssumeTargetShape(AssumeTargetShape),
        ValidateReads(ValidateReads) {}

  LIRProgram run() {
    P.TargetDims = TargetDims;
    P.TargetSize = 1;
    for (const auto &[Lo, Hi] : TargetDims)
      P.TargetSize *= Hi >= Lo ? static_cast<size_t>(Hi - Lo + 1) : 0;
    P.RingSizes.resize(Plan.Rings.size(), 0);
    for (const RingSpec &R : Plan.Rings)
      P.RingSizes[R.Id] = R.size();
    P.SnapSizes.resize(Plan.Snapshots.size(), 0);
    for (const SnapshotSpec &S : Plan.Snapshots)
      P.SnapSizes[S.Id] = S.size();
    P.HasDefined = Plan.CheckCollisions || Plan.CheckEmpties;
    P.CheckEmpties = Plan.CheckEmpties;

    collectInputs();

    // Compile-time parameters become constants (DCE removes unused ones).
    for (const auto &[Name, V] : Params)
      ParamSlots[Name] = emitConstI(V);

    // Snapshot pre-pass copies run before the loop nest, as in the seed.
    for (const SnapshotSpec &S : Plan.Snapshots)
      lowerSnapshotCopy(S);

    lowerStmts(Plan.Stmts);
    return std::move(P);
  }

private:
  const ExecPlan &Plan;
  const ArrayDims &TargetDims;
  const ParamEnv &Params;
  const std::map<std::string, ArrayDims> &InputDims;
  bool AssumeTargetShape;
  bool ValidateReads;

  LIRProgram P;
  std::vector<std::pair<std::string, LVal>> Scope;
  std::map<std::string, int32_t> ParamSlots;
  struct LoopSlots {
    int32_t Iv = -1;
    int32_t Ord = -1;
  };
  std::map<const LoopNode *, LoopSlots> ActiveLoops;
  /// Slots holding a known integer constant (single ConstI definition).
  std::map<int32_t, int64_t> ConstVals;
  /// Set when a fold discovered a float element while lowering with an
  /// integer accumulator: unwind to the fold root and re-lower.
  bool Retry = false;
  /// Open loop metas, innermost last (Parent/Depth for LoopMeta).
  std::vector<int32_t> MetaStack;
  /// Source location of the clause currently being lowered; attributes
  /// the loops a fold synthesizes inside a clause value or guard.
  SourceLoc CurLoc;

  //===------------------------------------------------------------------===//
  // Loop attribution
  //===------------------------------------------------------------------===//

  /// Appends one LoopMeta and opens it on the meta stack. The caller
  /// stores the returned index in the LoopBegin's Meta field and calls
  /// popLoopMeta() once the loop body is lowered.
  int32_t pushLoopMeta(std::string Var, SourceLoc Loc, uint8_t ParClass,
                       std::string Witness, int64_t StaticTrip) {
    LoopMeta M;
    M.Var = std::move(Var);
    M.Line = Loc.Line;
    M.Col = Loc.Col;
    M.Depth = static_cast<uint32_t>(MetaStack.size());
    M.Parent = MetaStack.empty() ? -1 : MetaStack.back();
    M.ParClass = ParClass;
    M.Witness = std::move(Witness);
    M.StaticTrip = StaticTrip;
    P.Loops.push_back(std::move(M));
    int32_t Id = static_cast<int32_t>(P.Loops.size() - 1);
    MetaStack.push_back(Id);
    return Id;
  }

  void popLoopMeta() { MetaStack.pop_back(); }

  /// Source location of the lexically first store clause under \p Stmts
  /// (the anchor a `for` statement's loop is attributed to — LoopNode
  /// itself carries no location).
  static SourceLoc firstClauseLoc(const std::vector<PlanStmt> &Stmts) {
    for (const PlanStmt &S : Stmts) {
      if (S.K == PlanStmt::Kind::For) {
        SourceLoc L = firstClauseLoc(S.Body);
        if (L.isValid())
          return L;
      } else if (S.Clause) {
        return S.Clause->loc();
      }
    }
    return SourceLoc();
  }

  //===------------------------------------------------------------------===//
  // Instruction builders
  //===------------------------------------------------------------------===//

  void push(const LInst &I) { P.Code.push_back(I); }

  int32_t newSlot(bool IsF) { return static_cast<int32_t>(P.newSlot(IsF)); }

  int32_t emitConstI(int64_t V) {
    int32_t S = newSlot(false);
    LInst I;
    I.Op = LOp::ConstI;
    I.A = S;
    I.Imm0 = V;
    push(I);
    ConstVals[S] = V;
    return S;
  }

  int32_t emitConstF(double V) {
    int32_t S = newSlot(true);
    LInst I;
    I.Op = LOp::ConstF;
    I.A = S;
    I.FImm = V;
    push(I);
    return S;
  }

  int32_t emit1(LOp Op, bool IsF, int32_t B) {
    int32_t S = newSlot(IsF);
    LInst I;
    I.Op = Op;
    I.A = S;
    I.B = B;
    push(I);
    return S;
  }

  int32_t emit2(LOp Op, bool IsF, int32_t B, int32_t C) {
    int32_t S = newSlot(IsF);
    LInst I;
    I.Op = Op;
    I.A = S;
    I.B = B;
    I.C = C;
    push(I);
    return S;
  }

  int32_t emitImm(LOp Op, int32_t B, int64_t Imm) {
    int32_t S = newSlot(false);
    LInst I;
    I.Op = Op;
    I.A = S;
    I.B = B;
    I.Imm0 = Imm;
    push(I);
    return S;
  }

  /// Second definition of an existing slot (if/and/or merges, fold
  /// accumulators, dynamic loop seeds). Invalidates constness.
  void emitTo(LOp Op, int32_t A, int32_t B, int32_t C = -1) {
    LInst I;
    I.Op = Op;
    I.A = A;
    I.B = B;
    I.C = C;
    push(I);
    ConstVals.erase(A);
  }

  void emitConstITo(int32_t A, int64_t V) {
    LInst I;
    I.Op = LOp::ConstI;
    I.A = A;
    I.Imm0 = V;
    push(I);
    ConstVals.erase(A);
  }

  void emitConstFTo(int32_t A, double V) {
    LInst I;
    I.Op = LOp::ConstF;
    I.A = A;
    I.FImm = V;
    push(I);
  }

  void beginIf(int32_t Cond) {
    LInst I;
    I.Op = LOp::IfBegin;
    I.A = Cond;
    push(I);
  }
  void elseMark() {
    LInst I;
    I.Op = LOp::Else;
    push(I);
  }
  void endIf() {
    LInst I;
    I.Op = LOp::IfEnd;
    push(I);
  }

  void emitFail(const std::string &Msg) {
    LInst I;
    I.Op = LOp::Fail;
    I.Str = P.intern(Msg);
    push(I);
  }

  LVal failVal(const std::string &Msg, VType T = VType::Int) {
    emitFail(Msg);
    if (T == VType::Float)
      return {emitConstF(0.0), VType::Float};
    return {emitConstI(0), T};
  }

  void emitCount(LOp Op, int64_t Inc) {
    LInst I;
    I.Op = Op;
    I.Imm0 = Inc;
    push(I);
  }

  void emitCheckIdx(int32_t Slot, int64_t Lo, int64_t Hi, int64_t Rc,
                    const std::string &Msg, uint8_t Flags) {
    LInst I;
    I.Op = LOp::CheckIdx;
    I.Flags = Flags;
    I.B = Slot;
    I.Imm0 = Lo;
    I.Imm1 = Hi;
    I.Imm2 = Rc;
    I.Str = P.intern(Msg);
    push(I);
  }

  void emitCheckNonZero(int32_t Slot, int64_t Rc, const std::string &Msg) {
    LInst I;
    I.Op = LOp::CheckNonZeroI;
    I.B = Slot;
    I.Imm2 = Rc;
    I.Str = P.intern(Msg);
    push(I);
  }

  bool isConst(int32_t Slot, int64_t &V) const {
    auto It = ConstVals.find(Slot);
    if (It == ConstVals.end())
      return false;
    V = It->second;
    return true;
  }

  int32_t toF(const LVal &V) {
    return V.T == VType::Float ? V.Slot : emit1(LOp::IToF, true, V.Slot);
  }

  //===------------------------------------------------------------------===//
  // Input discovery (seed CEmitter order: per store, subscripts then
  // value then guards, first occurrence wins)
  //===------------------------------------------------------------------===//

  bool isTargetName(const std::string &Name) const {
    return Name == Plan.TargetName ||
           (!Plan.AliasName.empty() && Name == Plan.AliasName);
  }

  void addInputsFrom(const Expr *E) {
    if (!E)
      return;
    if (const auto *S = dyn_cast<ArraySubExpr>(E)) {
      if (const auto *Base = dyn_cast<VarExpr>(S->base())) {
        const std::string &Name = Base->name();
        if (!isTargetName(Name) &&
            (AssumeTargetShape || InputDims.count(Name)) &&
            std::find(P.InputNames.begin(), P.InputNames.end(), Name) ==
                P.InputNames.end())
          P.InputNames.push_back(Name);
      }
      addInputsFrom(S->index());
      return;
    }
    switch (E->kind()) {
    case ExprKind::Unary:
      addInputsFrom(cast<UnaryExpr>(E)->operand());
      return;
    case ExprKind::Binary:
      addInputsFrom(cast<BinaryExpr>(E)->lhs());
      addInputsFrom(cast<BinaryExpr>(E)->rhs());
      return;
    case ExprKind::If:
      addInputsFrom(cast<IfExpr>(E)->cond());
      addInputsFrom(cast<IfExpr>(E)->thenExpr());
      addInputsFrom(cast<IfExpr>(E)->elseExpr());
      return;
    case ExprKind::Let:
      for (const LetBind &B : cast<LetExpr>(E)->binds())
        addInputsFrom(B.Value.get());
      addInputsFrom(cast<LetExpr>(E)->body());
      return;
    case ExprKind::Apply:
      for (const ExprPtr &Arg : cast<ApplyExpr>(E)->args())
        addInputsFrom(Arg.get());
      return;
    case ExprKind::Range:
      addInputsFrom(cast<RangeExpr>(E)->lo());
      addInputsFrom(cast<RangeExpr>(E)->second());
      addInputsFrom(cast<RangeExpr>(E)->hi());
      return;
    case ExprKind::Comp: {
      const auto *C = cast<CompExpr>(E);
      for (const CompQual &Q : C->quals()) {
        switch (Q.kind()) {
        case CompQual::Kind::Generator:
          addInputsFrom(Q.source());
          break;
        case CompQual::Kind::Guard:
          addInputsFrom(Q.cond());
          break;
        case CompQual::Kind::LetQual:
          for (const LetBind &B : Q.binds())
            addInputsFrom(B.Value.get());
          break;
        }
      }
      addInputsFrom(C->head());
      return;
    }
    case ExprKind::List:
      for (const ExprPtr &Elem : cast<ListExpr>(E)->elems())
        addInputsFrom(Elem.get());
      return;
    default:
      return;
    }
  }

  void collectStmtInputs(const std::vector<PlanStmt> &Stmts) {
    for (const PlanStmt &S : Stmts) {
      if (S.K == PlanStmt::Kind::For) {
        collectStmtInputs(S.Body);
        continue;
      }
      for (const ExprPtr &Dim : S.Clause->subscripts())
        addInputsFrom(Dim.get());
      addInputsFrom(S.Clause->value());
      for (const GuardNode *G : S.Clause->guards())
        addInputsFrom(G->cond());
    }
  }

  void collectInputs() { collectStmtInputs(Plan.Stmts); }

  //===------------------------------------------------------------------===//
  // Addressing
  //===------------------------------------------------------------------===//

  const ArrayDims &dimsForName(const std::string &Name, bool IsTarget) const {
    if (!IsTarget) {
      auto It = InputDims.find(Name);
      if (It != InputDims.end())
        return It->second;
      // An absent input gets here only under AssumeTargetShape, and
      // takes the target's shape (seed dimsFor).
    }
    return TargetDims;
  }

  /// Row-major linear index chain from per-dimension index slots. Built
  /// from AddImmI / MulImmI / AddI so strength reduction can rewrite it.
  int32_t linChain(const std::vector<int32_t> &Index, const ArrayDims &Dims) {
    assert(Index.size() == Dims.size() && !Index.empty());
    int32_t Lin = emitImm(LOp::AddImmI, Index[0], -Dims[0].first);
    for (size_t D = 1; D != Index.size(); ++D) {
      auto [Lo, Hi] = Dims[D];
      int64_t Extent = Hi >= Lo ? Hi - Lo + 1 : 0;
      int32_t Term = emitImm(LOp::AddImmI, Index[D], -Lo);
      Lin = emit2(LOp::AddI, false, emitImm(LOp::MulImmI, Lin, Extent), Term);
    }
    return Lin;
  }

  /// Lowers an array subscript into per-dimension int slots. Returns
  /// false after emitting a Fail.
  bool lowerIndex(const Expr *IndexExpr, std::vector<int32_t> &Out) {
    auto AddDim = [&](const Expr *Dim) {
      LVal V = lowerExpr(Dim);
      if (V.T != VType::Int) {
        emitFail("array subscript is not an integer");
        return false;
      }
      Out.push_back(V.Slot);
      return true;
    };
    if (const auto *T = dyn_cast<TupleExpr>(IndexExpr)) {
      for (const ExprPtr &Dim : T->elems())
        if (!AddDim(Dim.get()))
          return false;
      return true;
    }
    return AddDim(IndexExpr);
  }

  /// Ring slot chain for the instance shifted by \p Delta on clause loop
  /// level \p ShiftLevel (~size_t(0) for the saving instance).
  int32_t ringSlotChain(const RingSpec &R, size_t ShiftLevel, int64_t Delta) {
    const ClauseNode *C = R.Clause;
    auto OrdZeroBased = [&](size_t M) {
      int64_t D = M == ShiftLevel ? Delta : 0;
      return emitImm(LOp::AddImmI, ActiveLoops.at(C->loops()[M]).Ord, -D - 1);
    };
    int32_t Slot = emitImm(LOp::ModImmI, OrdZeroBased(R.Level), R.Depth);
    for (size_t M = R.Level + 1; M < C->loops().size(); ++M) {
      int64_t Extent = R.DeeperTrips[M - R.Level - 1];
      Slot = emit2(LOp::AddI, false, emitImm(LOp::MulImmI, Slot, Extent),
                   OrdZeroBased(M));
    }
    return Slot;
  }

  //===------------------------------------------------------------------===//
  // Expression lowering
  //===------------------------------------------------------------------===//

  LVal lowerExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return {emitConstI(cast<IntLitExpr>(E)->value()), VType::Int};
    case ExprKind::FloatLit:
      return {emitConstF(cast<FloatLitExpr>(E)->value()), VType::Float};
    case ExprKind::BoolLit:
      return {emitConstI(cast<BoolLitExpr>(E)->value() ? 1 : 0), VType::Bool};
    case ExprKind::Var: {
      const std::string &Name = cast<VarExpr>(E)->name();
      for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
        if (It->first == Name)
          return It->second;
      auto PIt = ParamSlots.find(Name);
      if (PIt != ParamSlots.end())
        return {PIt->second, VType::Int};
      return failVal("unbound variable '" + Name + "' in compiled code");
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      LVal V = lowerExpr(U->operand());
      if (U->op() == UnaryOpKind::Neg) {
        if (V.T == VType::Int)
          return {emit1(LOp::NegI, false, V.Slot), VType::Int};
        if (V.T == VType::Float)
          return {emit1(LOp::NegF, true, V.Slot), VType::Float};
        return failVal("negation of a non-numeric value");
      }
      if (V.T != VType::Bool)
        return failVal("'not' of a non-boolean value", VType::Bool);
      return {emit1(LOp::NotB, false, V.Slot), VType::Bool};
    }
    case ExprKind::Binary:
      return lowerBinary(cast<BinaryExpr>(E));
    case ExprKind::If:
      return lowerIf(cast<IfExpr>(E));
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      size_t Mark = Scope.size();
      for (const LetBind &B : L->binds())
        Scope.emplace_back(B.Name, lowerExpr(B.Value.get()));
      LVal R = lowerExpr(L->body());
      Scope.resize(Mark);
      return R;
    }
    case ExprKind::ArraySub:
      return lowerRead(cast<ArraySubExpr>(E));
    case ExprKind::Apply:
      return lowerApply(cast<ApplyExpr>(E));
    default:
      return failVal(std::string("expression kind ") +
                     exprKindName(E->kind()) +
                     " is not supported in compiled code: " + exprToString(E));
    }
  }

  LVal lowerBinary(const BinaryExpr *B) {
    BinaryOpKind Op = B->op();

    if (Op == BinaryOpKind::And || Op == BinaryOpKind::Or) {
      LVal L = lowerExpr(B->lhs());
      if (L.T != VType::Bool)
        return failVal("boolean operator on a non-boolean value", VType::Bool);
      int32_t Dst = newSlot(false);
      beginIf(L.Slot);
      if (Op == BinaryOpKind::And) {
        LVal R = lowerExpr(B->rhs());
        if (R.T != VType::Bool)
          R = failVal("boolean operator on a non-boolean value", VType::Bool);
        emitTo(LOp::MovI, Dst, R.Slot);
        elseMark();
        emitConstITo(Dst, 0);
      } else {
        emitConstITo(Dst, 1);
        elseMark();
        LVal R = lowerExpr(B->rhs());
        if (R.T != VType::Bool)
          R = failVal("boolean operator on a non-boolean value", VType::Bool);
        emitTo(LOp::MovI, Dst, R.Slot);
      }
      endIf();
      return {Dst, VType::Bool};
    }

    LVal L = lowerExpr(B->lhs());
    LVal R = lowerExpr(B->rhs());

    switch (Op) {
    case BinaryOpKind::Add:
    case BinaryOpKind::Sub:
    case BinaryOpKind::Mul:
    case BinaryOpKind::Div:
    case BinaryOpKind::Mod: {
      if (L.T == VType::Bool || R.T == VType::Bool)
        return failVal("arithmetic on a non-numeric value");
      if (L.T == VType::Int && R.T == VType::Int) {
        switch (Op) {
        case BinaryOpKind::Add:
          return {emit2(LOp::AddI, false, L.Slot, R.Slot), VType::Int};
        case BinaryOpKind::Sub:
          return {emit2(LOp::SubI, false, L.Slot, R.Slot), VType::Int};
        case BinaryOpKind::Mul:
          return {emit2(LOp::MulI, false, L.Slot, R.Slot), VType::Int};
        case BinaryOpKind::Div:
          emitCheckNonZero(R.Slot, RcDivZero, "integer division by zero");
          return {emit2(LOp::DivI, false, L.Slot, R.Slot), VType::Int};
        case BinaryOpKind::Mod:
          emitCheckNonZero(R.Slot, RcDivZero, "integer modulo by zero");
          return {emit2(LOp::ModI, false, L.Slot, R.Slot), VType::Int};
        default:
          break;
        }
      }
      int32_t A = toF(L), C = toF(R);
      switch (Op) {
      case BinaryOpKind::Add:
        return {emit2(LOp::AddF, true, A, C), VType::Float};
      case BinaryOpKind::Sub:
        return {emit2(LOp::SubF, true, A, C), VType::Float};
      case BinaryOpKind::Mul:
        return {emit2(LOp::MulF, true, A, C), VType::Float};
      case BinaryOpKind::Div:
        return {emit2(LOp::DivF, true, A, C), VType::Float};
      case BinaryOpKind::Mod:
        return {emit2(LOp::ModF, true, A, C), VType::Float};
      default:
        break;
      }
      break;
    }
    case BinaryOpKind::Eq:
    case BinaryOpKind::Ne:
    case BinaryOpKind::Lt:
    case BinaryOpKind::Le:
    case BinaryOpKind::Gt:
    case BinaryOpKind::Ge: {
      if (L.T == VType::Bool && R.T == VType::Bool) {
        if (Op == BinaryOpKind::Eq)
          return {emit2(LOp::CmpEqI, false, L.Slot, R.Slot), VType::Bool};
        if (Op == BinaryOpKind::Ne)
          return {emit2(LOp::CmpNeI, false, L.Slot, R.Slot), VType::Bool};
        return failVal("ordering comparison on booleans", VType::Bool);
      }
      if (L.T == VType::Bool || R.T == VType::Bool)
        return failVal("comparison on a non-numeric value", VType::Bool);
      // Numeric comparisons always go through double, matching the
      // seed's asDouble semantics (exact for in-range integers).
      int32_t A = toF(L), C = toF(R);
      LOp CmpOp;
      switch (Op) {
      case BinaryOpKind::Eq:
        CmpOp = LOp::CmpEqF;
        break;
      case BinaryOpKind::Ne:
        CmpOp = LOp::CmpNeF;
        break;
      case BinaryOpKind::Lt:
        CmpOp = LOp::CmpLtF;
        break;
      case BinaryOpKind::Le:
        CmpOp = LOp::CmpLeF;
        break;
      case BinaryOpKind::Gt:
        CmpOp = LOp::CmpGtF;
        break;
      default:
        CmpOp = LOp::CmpGeF;
        break;
      }
      return {emit2(CmpOp, false, A, C), VType::Bool};
    }
    case BinaryOpKind::Append:
      return failVal("'++' is not a scalar operation in compiled code");
    default:
      break;
    }
    return failVal("unhandled binary operator");
  }

  LVal lowerIf(const IfExpr *E) {
    LVal C = lowerExpr(E->cond());
    if (C.T != VType::Bool)
      return failVal("'if' condition is not a boolean");
    beginIf(C.Slot);
    LVal T = lowerExpr(E->thenExpr());
    int32_t Dst = newSlot(T.T == VType::Float);
    size_t MovIdx = P.Code.size();
    emitTo(T.T == VType::Float ? LOp::MovF : LOp::MovI, Dst, T.Slot);
    elseMark();
    LVal F = lowerExpr(E->elseExpr());
    VType RT = T.T;
    if (F.T == T.T) {
      emitTo(F.T == VType::Float ? LOp::MovF : LOp::MovI, Dst, F.Slot);
    } else if (T.T == VType::Int && F.T == VType::Float) {
      // Promote the whole merge to float: retype the slot and patch the
      // then-branch move into a conversion.
      P.SlotIsF[Dst] = 1;
      P.Code[MovIdx].Op = LOp::IToF;
      emitTo(LOp::MovF, Dst, F.Slot);
      RT = VType::Float;
    } else if (T.T == VType::Float && F.T == VType::Int) {
      emitTo(LOp::IToF, Dst, F.Slot);
      RT = VType::Float;
    } else {
      emitFail("'if' branches have incompatible types in compiled code");
      if (P.SlotIsF[Dst])
        emitConstFTo(Dst, 0.0);
      else
        emitConstITo(Dst, 0);
    }
    endIf();
    return {Dst, RT};
  }

  //===------------------------------------------------------------------===//
  // Array reads
  //===------------------------------------------------------------------===//

  LVal lowerRead(const ArraySubExpr *S) {
    auto RIt = Plan.RingRedirects.find(S);
    if (RIt != Plan.RingRedirects.end())
      return lowerRingRead(S, RIt->second);
    auto SIt = Plan.SnapRedirects.find(S);
    if (SIt != Plan.SnapRedirects.end())
      return lowerSnapRead(S, SIt->second);
    int32_t Dst = newSlot(true);
    lowerPlainReadInto(S, Dst, /*PrimaryContext=*/true);
    return {Dst, VType::Float};
  }

  /// The non-redirected read path, writing into \p Dst. PrimaryContext
  /// selects the "... in compiled code" unbound-array message; the
  /// ring-fallback path uses the shorter message and never validates
  /// reads, both matching the seed.
  void lowerPlainReadInto(const ArraySubExpr *S, int32_t Dst,
                          bool PrimaryContext) {
    auto FailF = [&](const std::string &Msg) {
      emitFail(Msg);
      emitConstFTo(Dst, 0.0);
    };
    const auto *Base = dyn_cast<VarExpr>(S->base());
    if (!Base) {
      FailF("array expression too complex for compiled code");
      return;
    }
    const std::string &Name = Base->name();
    bool IsTarget = isTargetName(Name);
    int32_t InputIdx = -1;
    if (!IsTarget) {
      auto It = std::find(P.InputNames.begin(), P.InputNames.end(), Name);
      if (It == P.InputNames.end()) {
        // Unknown array: the seed fails before evaluating the index.
        FailF(PrimaryContext
                  ? "unbound array '" + Name + "' in compiled code"
                  : "unbound array '" + Name + "'");
        return;
      }
      InputIdx = static_cast<int32_t>(It - P.InputNames.begin());
    }
    const ArrayDims &Dims = dimsForName(Name, IsTarget);

    std::vector<int32_t> Index;
    if (!lowerIndex(S->index(), Index)) {
      emitConstFTo(Dst, 0.0);
      return;
    }
    if (Index.size() != Dims.size()) {
      FailF("array read out of bounds on '" + Name + "'");
      return;
    }
    const std::string BoundsMsg = "array read out of bounds on '" + Name + "'";
    if (Plan.CheckReadBounds) {
      emitCount(LOp::CountBounds, 1);
      for (size_t D = 0; D != Index.size(); ++D)
        emitCheckIdx(Index[D], Dims[D].first, Dims[D].second, RcBounds,
                     BoundsMsg, 0);
    } else if (ValidateReads) {
      // Plan.CheckReadBounds == false means the range analysis proved
      // every read in bounds; the validation checks that stand in for
      // the dropped ones carry the proven claim for the LIR validator.
      for (size_t D = 0; D != Index.size(); ++D)
        emitCheckIdx(Index[D], Dims[D].first, Dims[D].second, RcBounds,
                     BoundsMsg, FlagProvenClaim);
    }
    int32_t Lin = linChain(Index, Dims);
    if (ValidateReads && IsTarget && PrimaryContext) {
      LInst I;
      I.Op = LOp::CheckDefined;
      I.B = Lin;
      push(I);
    }
    LInst L;
    L.Op = IsTarget ? LOp::LoadT : LOp::LoadIn;
    L.A = Dst;
    L.B = Lin;
    L.Imm0 = InputIdx;
    push(L);
  }

  LVal lowerRingRead(const ArraySubExpr *S, const RingRedirect &RR) {
    const RingSpec &R = Plan.Rings[RR.RingId];
    const ClauseNode *C = R.Clause;
    const LoopNode *Carried = C->loops()[RR.Level];
    auto It = ActiveLoops.find(Carried);
    if (It == ActiveLoops.end())
      return failVal("redirected read outside its loop", VType::Float);
    // Saving instance exists iff ordinal > Distance.
    int32_t Cond = emit2(LOp::CmpGtI, false, It->second.Ord,
                         emitConstI(RR.Distance));
    int32_t Dst = newSlot(true);
    beginIf(Cond);
    int32_t Slot = ringSlotChain(R, RR.Level, RR.Distance);
    LInst L;
    L.Op = LOp::LoadRing;
    L.A = Dst;
    L.B = Slot;
    L.Imm0 = R.Id;
    push(L);
    elseMark();
    lowerPlainReadInto(S, Dst, /*PrimaryContext=*/false);
    endIf();
    return {Dst, VType::Float};
  }

  LVal lowerSnapRead(const ArraySubExpr *S, const SnapshotRedirect &SR) {
    const SnapshotSpec &Spec = Plan.Snapshots[SR.SnapId];
    std::vector<int32_t> Index;
    if (!lowerIndex(S->index(), Index))
      return {emitConstF(0.0), VType::Float};
    if (Index.size() != Spec.Region.size())
      return failVal("snapshot read rank mismatch", VType::Float);
    for (size_t D = 0; D != Index.size(); ++D)
      emitCheckIdx(Index[D], Spec.Region[D].first, Spec.Region[D].second,
                   RcBounds, "snapshot read outside the captured region", 0);
    int32_t Lin = linChain(Index, Spec.Region);
    int32_t Dst = newSlot(true);
    LInst L;
    L.Op = LOp::LoadSnap;
    L.A = Dst;
    L.B = Lin;
    L.Imm0 = SR.SnapId;
    push(L);
    return {Dst, VType::Float};
  }

  //===------------------------------------------------------------------===//
  // Builtins and fused folds
  //===------------------------------------------------------------------===//

  LVal lowerApply(const ApplyExpr *A) {
    const auto *Fn = dyn_cast<VarExpr>(A->fn());
    if (!Fn)
      return failVal(
          "higher-order application is not supported in compiled code");
    const std::string &Name = Fn->name();

    if ((Name == "sum" || Name == "product") && A->numArgs() == 1)
      return lowerFold(Name, A->arg(0));

    auto Numeric = [&](unsigned I, LVal &Out) {
      Out = lowerExpr(A->arg(I));
      if (Out.T == VType::Bool) {
        emitFail(Name + " of a non-numeric value");
        return false;
      }
      return true;
    };
    if (Name == "abs" && A->numArgs() == 1) {
      LVal V;
      if (!Numeric(0, V))
        return {emitConstI(0), VType::Int};
      if (V.T == VType::Int)
        return {emit1(LOp::AbsI, false, V.Slot), VType::Int};
      return {emit1(LOp::AbsF, true, V.Slot), VType::Float};
    }
    if (Name == "sqrt" && A->numArgs() == 1) {
      LVal V;
      if (!Numeric(0, V))
        return {emitConstF(0.0), VType::Float};
      return {emit1(LOp::SqrtF, true, toF(V)), VType::Float};
    }
    if (Name == "intToFloat" && A->numArgs() == 1) {
      LVal V;
      if (!Numeric(0, V))
        return {emitConstF(0.0), VType::Float};
      return {toF(V), VType::Float};
    }
    if ((Name == "min" || Name == "max") && A->numArgs() == 2) {
      LVal L, R;
      if (!Numeric(0, L) || !Numeric(1, R))
        return {emitConstI(0), VType::Int};
      if (L.T == VType::Int && R.T == VType::Int)
        return {emit2(Name == "min" ? LOp::MinI : LOp::MaxI, false, L.Slot,
                      R.Slot),
                VType::Int};
      // Mixed int/float: the result is float. (The seed executor returned
      // the winning operand unconverted; the seed C backend already
      // promoted to double — the unified lowering follows the C backend.)
      return {emit2(Name == "min" ? LOp::MinF : LOp::MaxF, true, toF(L),
                    toF(R)),
              VType::Float};
    }
    return failVal("function '" + Name + "' is not supported in compiled code");
  }

  using ElemFn = std::function<void(LVal)>;

  LVal lowerFold(const std::string &Name, const Expr *Source) {
    bool Mul = Name == "product";
    // Static accumulator typing: try an integer accumulator; if any
    // element turns out to be float, unwind (truncate) and re-lower with
    // a float accumulator. The seed promoted dynamically at the first
    // float element — values agree because int elements convert exactly.
    for (int Attempt = 0;; ++Attempt) {
      size_t CodeMark = P.Code.size();
      size_t ScopeMark = Scope.size();
      size_t LoopMark = P.Loops.size();
      uint32_t SlotMark = P.NumSlots;
      bool AccIsF = Attempt > 0;
      Retry = false;
      int32_t Acc = AccIsF ? emitConstF(Mul ? 1.0 : 0.0)
                           : emitConstI(Mul ? 1 : 0);
      ElemFn Accum = [&, Acc, AccIsF, Mul](LVal V) {
        if (V.T == VType::Bool) {
          emitFail(Name + " of a non-numeric element");
          return;
        }
        if (V.T == VType::Float && !AccIsF) {
          Retry = true;
          return;
        }
        if (AccIsF)
          emitTo(Mul ? LOp::MulF : LOp::AddF, Acc, Acc, toF(V));
        else
          emitTo(Mul ? LOp::MulI : LOp::AddI, Acc, Acc, V.Slot);
        emitCount(LOp::CountFused, 1);
      };
      foldOver(Source, Accum);
      if (!Retry)
        return {Acc, AccIsF ? VType::Float : VType::Int};
      // Truncate the attempt: code, scope, loop metas, and the slots it
      // created.
      P.Code.resize(CodeMark);
      Scope.resize(ScopeMark);
      P.Loops.resize(LoopMark);
      P.SlotIsF.resize(SlotMark);
      P.NumSlots = SlotMark;
      for (auto It = ConstVals.begin(); It != ConstVals.end();)
        It = It->first >= static_cast<int32_t>(SlotMark) ? ConstVals.erase(It)
                                                         : std::next(It);
      Retry = false;
      assert(Attempt == 0 && "float accumulator cannot retry");
    }
  }

  void foldOver(const Expr *Source, const ElemFn &Fn) {
    switch (Source->kind()) {
    case ExprKind::Range: {
      const auto *R = cast<RangeExpr>(Source);
      LVal Lo = lowerExpr(R->lo());
      LVal Hi = lowerExpr(R->hi());
      if (Lo.T != VType::Int || Hi.T != VType::Int) {
        emitFail("range bounds must be integers");
        return;
      }
      int32_t StepSlot = -1;
      int64_t StepC = 1;
      bool StepConst = true;
      if (R->hasSecond()) {
        LVal Sec = lowerExpr(R->second());
        if (Sec.T != VType::Int) {
          emitFail("range step anchor must be an integer");
          return;
        }
        StepSlot = emit2(LOp::SubI, false, Sec.Slot, Lo.Slot);
        int64_t SecC, LoC;
        if (isConst(Sec.Slot, SecC) && isConst(Lo.Slot, LoC)) {
          StepC = SecC - LoC;
          ConstVals[StepSlot] = StepC;
        } else {
          StepConst = false;
        }
      }
      if (StepConst && StepC == 0) {
        emitFail("range step of zero");
        return;
      }
      int64_t LoC, HiC;
      if (StepConst && isConst(Lo.Slot, LoC) && isConst(Hi.Slot, HiC)) {
        // Fully static: a counted loop.
        int64_t Trip = StepC > 0 ? (HiC >= LoC ? (HiC - LoC) / StepC + 1 : 0)
                                 : (LoC >= HiC ? (LoC - HiC) / -StepC + 1 : 0);
        int32_t Iv = newSlot(false), Ord = newSlot(false);
        LInst B;
        B.Op = LOp::LoopBegin;
        B.A = Iv;
        B.B = Ord;
        B.Imm0 = LoC;
        B.Imm1 = StepC;
        B.Imm2 = Trip;
        B.Meta = pushLoopMeta("<fold>", CurLoc, 0, "", Trip);
        push(B);
        Fn({Iv, VType::Int});
        popLoopMeta(); // balanced even on a fold retry unwind
        if (Retry)
          return;
        LInst E;
        E.Op = LOp::LoopEnd;
        push(E);
        return;
      }
      // Dynamic bounds. A runtime zero step would loop forever; the seed
      // executor errored and the seed C backend looped — the unified
      // lowering checks in both backends (HAC_ERR_RANGE_STEP).
      if (!StepConst)
        emitCheckNonZero(StepSlot, RcRangeStep, "range step of zero");
      if (StepSlot < 0)
        StepSlot = emitConstI(1);
      int32_t Iv = newSlot(false);
      emitTo(LOp::MovI, Iv, Lo.Slot);
      LInst B;
      B.Op = LOp::LoopDynBegin;
      B.A = Iv;
      B.B = Hi.Slot;
      B.C = StepSlot;
      B.Meta = pushLoopMeta("<fold>", CurLoc, 0, "", -1);
      push(B);
      Fn({Iv, VType::Int});
      popLoopMeta();
      if (Retry)
        return;
      LInst E;
      E.Op = LOp::LoopDynEnd;
      push(E);
      return;
    }
    case ExprKind::List: {
      for (const ExprPtr &Elem : cast<ListExpr>(Source)->elems()) {
        Fn(lowerExpr(Elem.get()));
        if (Retry)
          return;
      }
      return;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(Source);
      if (B->op() != BinaryOpKind::Append)
        break;
      foldOver(B->lhs(), Fn);
      if (Retry)
        return;
      foldOver(B->rhs(), Fn);
      return;
    }
    case ExprKind::Comp:
      foldComp(cast<CompExpr>(Source), 0, Fn);
      return;
    default:
      break;
    }
    emitFail("fold source is not a comprehension, range, or list");
  }

  void foldComp(const CompExpr *C, size_t QualIndex, const ElemFn &Fn) {
    if (QualIndex == C->quals().size()) {
      if (C->isNested()) {
        foldOver(C->head(), Fn);
        return;
      }
      Fn(lowerExpr(C->head()));
      return;
    }
    const CompQual &Q = C->quals()[QualIndex];
    switch (Q.kind()) {
    case CompQual::Kind::Generator: {
      size_t Mark = Scope.size();
      Scope.emplace_back(Q.var(), LVal{});
      foldOver(Q.source(), [&, Mark](LVal V) {
        Scope[Mark].second = V;
        foldComp(C, QualIndex + 1, Fn);
      });
      if (Retry)
        return;
      Scope.resize(Mark);
      return;
    }
    case CompQual::Kind::Guard: {
      LVal V = lowerExpr(Q.cond());
      if (V.T != VType::Bool) {
        emitFail("guard is not a boolean");
        return;
      }
      // Fold guards do not count GuardEvals (seed foldComp).
      beginIf(V.Slot);
      foldComp(C, QualIndex + 1, Fn);
      if (Retry)
        return;
      endIf();
      return;
    }
    case CompQual::Kind::LetQual: {
      size_t Mark = Scope.size();
      for (const LetBind &B : Q.binds())
        Scope.emplace_back(B.Name, lowerExpr(B.Value.get()));
      foldComp(C, QualIndex + 1, Fn);
      if (Retry)
        return;
      Scope.resize(Mark);
      return;
    }
    }
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void lowerStmts(const std::vector<PlanStmt> &Stmts) {
    for (const PlanStmt &S : Stmts) {
      if (S.K == PlanStmt::Kind::For)
        lowerFor(S);
      else
        lowerStore(S);
    }
  }

  void lowerFor(const PlanStmt &S) {
    const LoopBounds &B = S.Loop->bounds();
    int64_t Trip = B.tripCount();
    int64_t IvInit = S.Backward ? B.Lo + (Trip - 1) * B.Step : B.Lo;
    int64_t IvDelta = S.Backward ? -B.Step : B.Step;
    int32_t Iv = newSlot(false), Ord = newSlot(false);
    LInst I;
    I.Op = LOp::LoopBegin;
    I.Flags = S.Backward ? FlagBackward : 0;
    // Mirror the ParPlanner's decision; legalizePar audits it after the
    // passes, and serial kernels strip it (stripParFlags).
    switch (S.Par) {
    case par::ParClass::Serial:
      break;
    case par::ParClass::Doall:
      I.Flags |= FlagParDoall;
      break;
    case par::ParClass::WaveOuter:
      I.Flags |= FlagParWaveOuter;
      break;
    case par::ParClass::WaveInner:
      I.Flags |= FlagParWaveInner;
      break;
    }
    I.A = Iv;
    I.B = Ord;
    I.Imm0 = IvInit;
    I.Imm1 = IvDelta;
    I.Imm2 = Trip;
    I.Meta = pushLoopMeta(S.Loop->var(), firstClauseLoc(S.Body),
                          static_cast<uint8_t>(S.Par), S.ParWitness, Trip);
    push(I);
    size_t Mark = Scope.size();
    Scope.emplace_back(S.Loop->var(), LVal{Iv, VType::Int});
    ActiveLoops[S.Loop] = {Iv, Ord};
    lowerStmts(S.Body);
    ActiveLoops.erase(S.Loop);
    Scope.resize(Mark);
    popLoopMeta();
    LInst E;
    E.Op = LOp::LoopEnd;
    push(E);
  }

  void lowerStore(const PlanStmt &S) {
    const ClauseNode *C = S.Clause;
    CurLoc = C->loc(); // attributes fold loops inside guards/values
    // Guards, outermost first. Both backends follow the seed executor's
    // instance order: guards, subscripts, value, checks, save, store.
    unsigned OpenIfs = 0;
    for (const GuardNode *G : C->guards()) {
      emitCount(LOp::CountGuard, 1);
      LVal V = lowerExpr(G->cond());
      int32_t Cond = V.Slot;
      if (V.T != VType::Bool) {
        emitFail("guard is not a boolean");
        Cond = emitConstI(0);
      }
      beginIf(Cond);
      ++OpenIfs;
    }

    std::vector<int32_t> Index;
    bool IndexOK = true;
    for (unsigned D = 0; D != C->rank(); ++D) {
      LVal V = lowerExpr(C->subscript(D));
      if (V.T != VType::Int) {
        emitFail("array subscript is not an integer");
        IndexOK = false;
        break;
      }
      Index.push_back(V.Slot);
    }

    if (IndexOK) {
      LVal V = lowerExpr(C->value());
      if (V.T == VType::Bool) {
        emitFail("array element value is not numeric");
        V = {emitConstF(0.0), VType::Float};
      }
      int32_t Val = toF(V);

      if (Plan.CheckStoreBounds)
        emitCount(LOp::CountBounds, 1);
      if (Index.size() != TargetDims.size() || Index.empty()) {
        emitFail("array definition out of bounds");
      } else {
        // Store bounds are always verified (the seed's linearize was
        // checked unconditionally). When the analysis dropped the check,
        // the kept one records the front end's "proven in bounds" claim
        // for the LIR translation validator to re-derive (HAC009).
        uint8_t Flags = Plan.CheckStoreBounds ? 0 : FlagProvenClaim;
        for (size_t D = 0; D != Index.size(); ++D)
          emitCheckIdx(Index[D], TargetDims[D].first, TargetDims[D].second,
                       RcBounds, "array definition out of bounds", Flags);
        int32_t Lin = linChain(Index, TargetDims);
        if (Plan.CheckCollisions) {
          LInst Chk;
          Chk.Op = LOp::CheckCollision;
          Chk.B = Lin;
          push(Chk);
        }
        if (S.SaveRingId >= 0) {
          const RingSpec &R = Plan.Rings[S.SaveRingId];
          int32_t Slot = ringSlotChain(R, ~size_t(0), 0);
          LInst Save;
          Save.Op = LOp::SaveRing;
          Save.B = Slot;
          Save.C = Lin;
          Save.Imm0 = R.Id;
          push(Save);
        }
        LInst St;
        St.Op = LOp::StoreT;
        St.B = Lin;
        St.C = Val;
        push(St);
      }
    }

    while (OpenIfs--)
      endIf();
  }

  void lowerSnapshotCopy(const SnapshotSpec &Sn) {
    if (Sn.Region.size() != TargetDims.size()) {
      emitFail("snapshot rank mismatch");
      return;
    }
    std::vector<std::pair<int64_t, int64_t>> Clipped = Sn.Region;
    for (size_t D = 0; D != Clipped.size(); ++D) {
      Clipped[D].first = std::max(Clipped[D].first, TargetDims[D].first);
      Clipped[D].second = std::min(Clipped[D].second, TargetDims[D].second);
      if (Clipped[D].second < Clipped[D].first)
        return; // empty region: nothing to copy
    }
    std::vector<int32_t> Ivs;
    for (size_t D = 0; D != Clipped.size(); ++D) {
      int32_t Iv = newSlot(false), Ord = newSlot(false);
      LInst B;
      B.Op = LOp::LoopBegin;
      B.A = Iv;
      B.B = Ord;
      B.Imm0 = Clipped[D].first;
      B.Imm1 = 1;
      B.Imm2 = Clipped[D].second - Clipped[D].first + 1;
      B.Meta = pushLoopMeta("<snapshot>", SourceLoc(), 0, "", B.Imm2);
      push(B);
      Ivs.push_back(Iv);
    }
    int32_t Src = linChain(Ivs, TargetDims);
    // Destination linearizes over the *unclipped* region extents.
    int32_t Dst = linChain(Ivs, Sn.Region);
    LInst Cp;
    Cp.Op = LOp::SnapSaveT;
    Cp.B = Dst;
    Cp.C = Src;
    Cp.Imm0 = Sn.Id;
    push(Cp);
    for (size_t D = 0; D != Clipped.size(); ++D) {
      popLoopMeta();
      LInst E;
      E.Op = LOp::LoopEnd;
      push(E);
    }
  }
};

} // namespace

LIRProgram lir::lowerPlan(const ExecPlan &Plan, const ArrayDims &TargetDims,
                          const ParamEnv &Params,
                          const std::map<std::string, ArrayDims> &InputDims,
                          bool AssumeTargetShape, bool ValidateReads) {
  return Lowering(Plan, TargetDims, Params, InputDims, AssumeTargetShape,
                  ValidateReads)
      .run();
}
