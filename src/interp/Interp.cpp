//===- interp/Interp.cpp - MiniGo tree-walking interpreter ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "support/GoArith.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::interp;
using namespace gofree::minigo;

//===----------------------------------------------------------------------===//
// Construction and roots
//===----------------------------------------------------------------------===//

Interp::Interp(const Program &Prog, const escape::ProgramAnalysis &Analysis,
               rt::Heap &Heap, InterpOptions Opts)
    : Core(Prog, Analysis, Heap, Opts) {
  // One scanner per interpreter: parallel workers each register their own,
  // and the collector walks all of them during the stopped world. Register
  // before the thread enters its MutatorScope (and deregister after it
  // leaves) -- both calls wait out in-flight GC cycles, which a registered
  // mutator must never block on.
  Heap.addRootScanner(this);
}

Interp::~Interp() { Core.Heap.removeRootScanner(this); }

void Interp::scanRoots(rt::Heap &H) {
  Core.scanFrameRoots(H);
  for (const Value &V : TempRoots)
    scanValueRoots(H, Core.Types, V);
}

//===----------------------------------------------------------------------===//
// Faults and fuel
//===----------------------------------------------------------------------===//

Interp::Flow Interp::unwindStmt() {
  if (PanicUnwinding) {
    PanicUnwinding = false;
    return Flow::Panic;
  }
  return Flow::Fault;
}

bool Interp::burnFuel() {
  ++Core.FuelUsed;
  Core.migrateOnPeriod();
  if (Core.FuelUsed <= Core.Opts.MaxSteps)
    return true;
  return Core.outOfFuel();
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

uintptr_t Interp::evalLvalueAddr(const Expr *E, const Type **TyOut) {
  *TyOut = E->Ty;
  switch (E->kind()) {
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    assert(Id->Decl && "blank identifier has no address");
    return Core.varAddr(frame(), Id->Decl);
  }
  case ExprKind::Deref: {
    Value V = evalExpr(cast<DerefExpr>(E)->Sub);
    if (interrupted())
      return 0;
    if (!V.A) {
      fault("nil pointer dereference");
      return 0;
    }
    return V.A;
  }
  case ExprKind::Field: {
    const auto *FE = cast<FieldExpr>(E);
    uintptr_t Base;
    if (FE->ThroughPointer) {
      Value V = evalExpr(FE->Base);
      if (interrupted())
        return 0;
      if (!V.A) {
        fault("nil pointer dereference");
        return 0;
      }
      Base = V.A;
    } else {
      const Type *BaseTy;
      Base = evalLvalueAddr(FE->Base, &BaseTy);
      if (interrupted())
        return 0;
    }
    return Base + FE->F->Offset;
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    assert(!IE->IsMap && "map lvalues are handled by execAssign");
    Value Base = evalExpr(IE->Base);
    Value Idx = evalExpr(IE->Idx);
    if (interrupted())
      return 0;
    if (Idx.I < 0 || Idx.I >= Base.S.Len) {
      fault("slice index out of range");
      return 0;
    }
    return Base.S.Data + (uintptr_t)Idx.I * IE->Base->Ty->elem()->size();
  }
  default:
    assert(false && "not an lvalue");
    return 0;
  }
}

Value Interp::evalMake(const MakeExpr *ME) {
  int64_t Len = 0;
  if (ME->Len) {
    Len = evalExpr(ME->Len).I;
    if (interrupted())
      return Value{};
  }
  int64_t Cap = Len;
  if (ME->CapExpr) {
    Cap = evalExpr(ME->CapExpr).I;
    if (interrupted())
      return Value{};
  }
  return Core.allocMake(ME, Len, Cap);
}

Value Interp::evalComposite(const CompositeExpr *CE) {
  // Root the object while initializers run (they may allocate).
  size_t Mark = tempMark();
  Value Obj = Core.allocComposite(CE);
  if (CE->TakeAddr)
    pushTemp(Obj);
  for (size_t I = 0; I < CE->Inits.size(); ++I) {
    Value Init = evalExpr(CE->Inits[I].second);
    if (interrupted()) {
      popTemps(Mark);
      return Value{};
    }
    storeValue(Obj.A + CE->InitFields[I]->Offset, Init);
  }
  popTemps(Mark);
  return Obj;
}

Value Interp::evalAppend(const AppendExpr *AE) {
  size_t Mark = tempMark();
  Value S = evalExpr(AE->SliceArg);
  if (interrupted())
    return Value{};
  pushTemp(S);
  Value Elem = evalExpr(AE->Value);
  if (interrupted()) {
    popTemps(Mark);
    return Value{};
  }
  pushTemp(Elem);
  const Type *ElemTy = AE->SliceArg->Ty->elem();
  if (rt::sliceGrowForAppend(Core.Heap, S.S, Core.Types.arrayOf(ElemTy),
                             ElemTy->size(), Core.Opts.CacheId,
                             Core.Opts.Slice) ==
      rt::SliceGrow::Overflow) {
    popTemps(Mark);
    return fault("growslice: cap out of range");
  }
  storeValue(S.S.Data + (uintptr_t)S.S.Len * ElemTy->size(), Elem);
  ++S.S.Len;
  popTemps(Mark);
  return S;
}

Value Interp::evalExpr(const Expr *E) {
  if (!burnFuel())
    return Value{};
  switch (E->kind()) {
  case ExprKind::IntLit: {
    Value V;
    V.Ty = E->Ty;
    V.I = cast<IntLitExpr>(E)->Value;
    return V;
  }
  case ExprKind::BoolLit: {
    Value V;
    V.Ty = E->Ty;
    V.I = cast<BoolLitExpr>(E)->Value ? 1 : 0;
    return V;
  }
  case ExprKind::NilLit: {
    // Sema gave the literal its concrete nilable type; the zero value of
    // every nilable type is all-zero bits.
    Value V;
    V.Ty = E->Ty;
    return V;
  }
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    assert(Id->Decl && "reading the blank identifier");
    return loadValueAt(Core.varAddr(frame(), Id->Decl), Id->Decl->Ty);
  }
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    Value V = evalExpr(UE->Sub);
    if (interrupted())
      return Value{};
    V.Ty = E->Ty;
    // Go negation wraps: -INT64_MIN is INT64_MIN, not UB.
    V.I = UE->Op == UnaryOp::Neg ? arith::wrapNeg(V.I) : !V.I;
    return V;
  }
  case ExprKind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    // Short-circuit logic first.
    if (BE->Op == BinaryOp::And || BE->Op == BinaryOp::Or) {
      Value L = evalExpr(BE->Lhs);
      if (interrupted())
        return Value{};
      if ((BE->Op == BinaryOp::And && !L.I) ||
          (BE->Op == BinaryOp::Or && L.I)) {
        L.Ty = E->Ty;
        return L;
      }
      Value R = evalExpr(BE->Rhs);
      R.Ty = E->Ty;
      return R;
    }
    Value L = evalExpr(BE->Lhs);
    if (interrupted())
      return Value{};
    Value R = evalExpr(BE->Rhs);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    switch (BE->Op) {
    // Add/Sub/Mul wrap in two's complement and Div/Mod handle the
    // INT64_MIN / -1 edge, per the Go spec (see support/GoArith.h).
    case BinaryOp::Add: V.I = arith::wrapAdd(L.I, R.I); break;
    case BinaryOp::Sub: V.I = arith::wrapSub(L.I, R.I); break;
    case BinaryOp::Mul: V.I = arith::wrapMul(L.I, R.I); break;
    case BinaryOp::Div: {
      bool DivZero = false;
      V.I = arith::goDiv(L.I, R.I, DivZero);
      if (DivZero)
        return fault("integer divide by zero");
      break;
    }
    case BinaryOp::Mod: {
      bool DivZero = false;
      V.I = arith::goMod(L.I, R.I, DivZero);
      if (DivZero)
        return fault("integer divide by zero");
      break;
    }
    case BinaryOp::Lt: V.I = L.I < R.I; break;
    case BinaryOp::Le: V.I = L.I <= R.I; break;
    case BinaryOp::Gt: V.I = L.I > R.I; break;
    case BinaryOp::Ge: V.I = L.I >= R.I; break;
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal;
      if (BE->Lhs->Ty->isScalar())
        Equal = L.I == R.I;
      else if (BE->Lhs->Ty->isSlice())
        // Only nil comparisons pass Sema; a made slice is never nil.
        Equal = L.S.Data == R.S.Data && L.S.Len == R.S.Len &&
                L.S.Cap == R.S.Cap;
      else
        Equal = L.A == R.A;
      V.I = BE->Op == BinaryOp::Eq ? Equal : !Equal;
      break;
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      assert(false && "handled above");
      break;
    }
    return V;
  }
  case ExprKind::Deref: {
    Value P = evalExpr(cast<DerefExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    if (!P.A)
      return fault("nil pointer dereference");
    return loadValueAt(P.A, E->Ty);
  }
  case ExprKind::AddrOf: {
    const Type *Ty;
    uintptr_t Addr = evalLvalueAddr(cast<AddrOfExpr>(E)->Sub, &Ty);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    V.A = Addr;
    return V;
  }
  case ExprKind::Field: {
    const auto *FE = cast<FieldExpr>(E);
    uintptr_t Base;
    if (FE->ThroughPointer) {
      Value P = evalExpr(FE->Base);
      if (interrupted())
        return Value{};
      if (!P.A)
        return fault("nil pointer dereference");
      Base = P.A;
    } else {
      Value S = evalExpr(FE->Base);
      if (interrupted())
        return Value{};
      Base = S.A;
    }
    return loadValueAt(Base + FE->F->Offset, E->Ty);
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    if (IE->IsMap) {
      Value M = evalExpr(IE->Base);
      if (interrupted())
        return Value{};
      Value K = evalExpr(IE->Idx);
      if (interrupted())
        return Value{};
      return Core.mapIndex(M.A, K.I, E->Ty);
    }
    Value Base = evalExpr(IE->Base);
    if (interrupted())
      return Value{};
    Value Idx = evalExpr(IE->Idx);
    if (interrupted())
      return Value{};
    if (Idx.I < 0 || Idx.I >= Base.S.Len)
      return fault("slice index out of range");
    return loadValueAt(Base.S.Data + (uintptr_t)Idx.I * E->Ty->size(), E->Ty);
  }
  case ExprKind::Call: {
    const auto *CE = cast<CallExpr>(E);
    std::vector<Value> Results;
    size_t Mark = tempMark();
    std::vector<Value> Args;
    Args.reserve(CE->Args.size());
    for (const Expr *A : CE->Args) {
      Value V = evalExpr(A);
      if (interrupted()) {
        popTemps(Mark);
        return Value{};
      }
      pushTemp(V); // Later arguments may allocate and trigger GC.
      Args.push_back(V);
    }
    Flow F = callFunction(CE->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F == Flow::Panic)
      PanicUnwinding = true; // Unwind to the nearest statement.
    if (F != Flow::Normal)
      return Value{};
    if (Results.empty()) {
      Value V;
      V.Ty = E->Ty;
      return V;
    }
    return Results[0];
  }
  case ExprKind::Make:
    return evalMake(cast<MakeExpr>(E));
  case ExprKind::New:
    return Core.allocNew(cast<NewExpr>(E));
  case ExprKind::Composite:
    return evalComposite(cast<CompositeExpr>(E));
  case ExprKind::Len: {
    Value S = evalExpr(cast<LenExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    if (cast<LenExpr>(E)->Sub->Ty->isMap())
      V.I = S.A ? rt::mapLen(S.A) : 0;
    else
      V.I = S.S.Len;
    return V;
  }
  case ExprKind::Cap: {
    Value S = evalExpr(cast<CapExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    V.I = S.S.Cap;
    return V;
  }
  case ExprKind::Append:
    return evalAppend(cast<AppendExpr>(E));
  case ExprKind::Slicing: {
    const auto *SE = cast<SlicingExpr>(E);
    Value Base = evalExpr(SE->Base);
    if (interrupted())
      return Value{};
    int64_t Lo = 0, Hi = Base.S.Len;
    if (SE->Lo) {
      Lo = evalExpr(SE->Lo).I;
      if (interrupted())
        return Value{};
    }
    if (SE->Hi) {
      Hi = evalExpr(SE->Hi).I;
      if (interrupted())
        return Value{};
    }
    if (Lo < 0 || Lo > Hi || Hi > Base.S.Cap)
      return fault("slice bounds out of range");
    Value V;
    V.Ty = E->Ty;
    size_t ElemSize = E->Ty->elem()->size();
    V.S.Data = Base.S.Data + (uintptr_t)Lo * ElemSize;
    V.S.Len = Hi - Lo;
    V.S.Cap = Base.S.Cap - Lo;
    return V;
  }
  case ExprKind::CopyFn: {
    const auto *CE = cast<CopyExpr>(E);
    Value Dst = evalExpr(CE->Dst);
    if (interrupted())
      return Value{};
    Value Src = evalExpr(CE->Src);
    if (interrupted())
      return Value{};
    int64_t N = std::min(Dst.S.Len, Src.S.Len);
    size_t ElemSize = CE->Dst->Ty->elem()->size();
    if (N > 0) {
      Core.Heap.gcCopyBarrier(Dst.S.Data, Src.S.Data, (size_t)N * ElemSize,
                              Core.Types.arrayOf(CE->Dst->Ty->elem()));
      rt::copyWordsRelaxed(Dst.S.Data, Src.S.Data, (size_t)N * ElemSize);
    }
    Value V;
    V.Ty = E->Ty;
    V.I = N;
    return V;
  }
  }
  assert(false && "unhandled expression kind");
  return Value{};
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Interp::Flow Interp::execVarDecl(const VarDeclStmt *DS) {
  bool MultiValue = DS->Inits.size() == 1 && DS->Vars.size() > 1;
  if (MultiValue) {
    const auto *Call = cast<CallExpr>(DS->Inits[0]);
    size_t Mark = tempMark();
    std::vector<Value> Args;
    for (const Expr *A : Call->Args) {
      Value V = evalExpr(A);
      if (interrupted())
        return unwindStmt();
      pushTemp(V);
      Args.push_back(V);
    }
    std::vector<Value> Results;
    Flow F = callFunction(Call->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F != Flow::Normal)
      return F;
    for (Value &V : Results)
      pushTemp(V); // initVarSlot may allocate boxes and trigger GC.
    for (size_t I = 0; I < DS->Vars.size(); ++I) {
      Core.initVarSlot(frame(), DS->Vars[I]);
      if (interrupted())
        return unwindStmt();
      storeValue(Core.varAddr(frame(), DS->Vars[I]), Results[I]);
    }
    popTemps(Mark);
    return Flow::Normal;
  }
  for (size_t I = 0; I < DS->Vars.size(); ++I) {
    if (I < DS->Inits.size()) {
      Value V = evalExpr(DS->Inits[I]);
      if (interrupted())
        return unwindStmt();
      size_t Mark = tempMark();
      pushTemp(V);
      Core.initVarSlot(frame(), DS->Vars[I]);
      popTemps(Mark);
      if (interrupted())
        return unwindStmt();
      storeValue(Core.varAddr(frame(), DS->Vars[I]), V);
    } else {
      Core.initVarSlot(frame(), DS->Vars[I]);
      if (interrupted())
        return unwindStmt();
    }
  }
  return Flow::Normal;
}

Interp::Flow Interp::execAssign(const AssignStmt *AS) {
  // Helper storing one value into one lvalue (including map elements).
  auto StoreInto = [&](const Expr *Lhs, const Value &V) -> bool {
    if (const auto *Id = dyn_cast<IdentExpr>(Lhs); Id && !Id->Decl)
      return true; // Blank identifier discards.
    if (const auto *IE = dyn_cast<IndexExpr>(Lhs); IE && IE->IsMap) {
      Value M = evalExpr(IE->Base);
      if (interrupted())
        return false;
      if (!M.A) {
        fault("assignment to entry in nil map");
        return false;
      }
      Value K = evalExpr(IE->Idx);
      if (interrupted())
        return false;
      size_t Mark = tempMark();
      pushTemp(M);
      pushTemp(V);
      alignas(8) char Buf[64];
      assert(V.Ty->size() <= sizeof(Buf) && "map value too large");
      Value Tmp = V;
      storeValue(reinterpret_cast<uintptr_t>(Buf), Tmp);
      rt::mapAssign(Core.mapCtxFor(IE->Base->Ty), M.A, K.I, Buf);
      popTemps(Mark);
      return true;
    }
    const Type *Ty;
    uintptr_t Addr = evalLvalueAddr(Lhs, &Ty);
    if (interrupted())
      return false;
    storeValue(Addr, V);
    return true;
  };

  bool MultiValue = AS->Rhs.size() == 1 && AS->Lhs.size() > 1;
  if (MultiValue) {
    const auto *Call = cast<CallExpr>(AS->Rhs[0]);
    size_t Mark = tempMark();
    std::vector<Value> Args;
    for (const Expr *A : Call->Args) {
      Value V = evalExpr(A);
      if (interrupted())
        return unwindStmt();
      pushTemp(V);
      Args.push_back(V);
    }
    std::vector<Value> Results;
    Flow F = callFunction(Call->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F != Flow::Normal)
      return F;
    for (Value &V : Results)
      pushTemp(V);
    for (size_t I = 0; I < AS->Lhs.size(); ++I)
      if (!StoreInto(AS->Lhs[I], Results[I])) {
        popTemps(Mark);
        // A panic raised while evaluating the lvalue must unwind as a
        // panic (running this frame's defers), not as a fault.
        return unwindStmt();
      }
    popTemps(Mark);
    return Flow::Normal;
  }
  for (size_t I = 0; I < AS->Lhs.size(); ++I) {
    Value V = evalExpr(AS->Rhs[I]);
    if (interrupted())
      return unwindStmt();
    if (!StoreInto(AS->Lhs[I], V))
      return unwindStmt();
  }
  return Flow::Normal;
}

Interp::Flow Interp::execStmt(const Stmt *S) {
  if (!burnFuel())
    return Flow::Fault;
  switch (S->kind()) {
  case StmtKind::Block:
    return execBlock(cast<BlockStmt>(S));
  case StmtKind::VarDecl:
    return execVarDecl(cast<VarDeclStmt>(S));
  case StmtKind::Assign:
    return execAssign(cast<AssignStmt>(S));
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    Value C = evalExpr(IS->Cond);
    if (interrupted())
      return unwindStmt();
    if (C.I)
      return execBlock(IS->Then);
    if (IS->Else)
      return execStmt(IS->Else);
    return Flow::Normal;
  }
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->Init) {
      Flow F = execStmt(FS->Init);
      if (F != Flow::Normal)
        return F;
    }
    while (true) {
      if (!burnFuel())
        return Flow::Fault;
      if (FS->Cond) {
        Value C = evalExpr(FS->Cond);
        if (interrupted())
          return unwindStmt();
        if (!C.I)
          break;
      }
      Flow F = execBlock(FS->Body);
      if (F == Flow::Break)
        break;
      if (F == Flow::Return || F == Flow::Panic || F == Flow::Fault)
        return F;
      if (FS->Post) {
        F = execStmt(FS->Post);
        if (F != Flow::Normal)
          return F;
      }
    }
    return Flow::Normal;
  }
  case StmtKind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    std::vector<Value> Values;
    const FuncDecl *Fn = frame().Fn;
    if (RS->Values.size() == 1 && Fn->Results.size() > 1) {
      // return f() forwarding multiple results.
      const auto *Call = cast<CallExpr>(RS->Values[0]);
      size_t Mark = tempMark();
      std::vector<Value> Args;
      for (const Expr *A : Call->Args) {
        Value V = evalExpr(A);
        if (interrupted())
          return unwindStmt();
        pushTemp(V);
        Args.push_back(V);
      }
      Flow F = callFunction(Call->Fn, std::move(Args), &Values);
      popTemps(Mark);
      if (F != Flow::Normal)
        return F;
    } else {
      for (const Expr *V : RS->Values) {
        Values.push_back(evalExpr(V));
        if (interrupted())
          return unwindStmt();
      }
    }
    PendingReturn = std::move(Values);
    return Flow::Return;
  }
  case StmtKind::ExprStmt:
    evalExpr(cast<ExprStmt>(S)->E);
    return interrupted() ? unwindStmt() : Flow::Normal;
  case StmtKind::Defer: {
    // Arguments are evaluated now (Go semantics) and kept alive by the
    // frame's defer list; temp-root each one while the next evaluates.
    const auto *DS = cast<DeferStmt>(S);
    DeferRecord Rec;
    Rec.Fn = DS->Call->Fn;
    size_t Mark = tempMark();
    for (const Expr *A : DS->Call->Args) {
      Value V = evalExpr(A);
      if (interrupted()) {
        popTemps(Mark);
        return unwindStmt();
      }
      pushTemp(V);
      Rec.Args.push_back(V);
    }
    frame().Defers.push_back(std::move(Rec));
    popTemps(Mark);
    return Flow::Normal;
  }
  case StmtKind::Panic: {
    const auto *PS = cast<PanicStmt>(S);
    Value V = evalExpr(PS->Value);
    if (interrupted())
      return unwindStmt();
    PendingPanic = V.I;
    Core.Result.Panicked = true;
    Core.Result.PanicValue = V.I;
    return Flow::Panic;
  }
  case StmtKind::Break:
    return Flow::Break;
  case StmtKind::Continue:
    return Flow::Continue;
  case StmtKind::Sink: {
    Value V = evalExpr(cast<SinkStmt>(S)->Value);
    if (interrupted())
      return unwindStmt();
    Core.Result.Checksum = Core.Result.Checksum * 1099511628211ULL ^ (uint64_t)V.I;
    ++Core.Result.SinkCount;
    return Flow::Normal;
  }
  case StmtKind::Delete: {
    const auto *DS = cast<DeleteStmt>(S);
    Value M = evalExpr(DS->MapArg);
    if (interrupted())
      return unwindStmt();
    Value K = evalExpr(DS->KeyArg);
    if (interrupted())
      return unwindStmt();
    if (M.A)
      rt::mapDelete(M.A, K.I);
    return Flow::Normal;
  }
  case StmtKind::Tcfree:
    Core.tcfree(cast<TcfreeStmt>(S));
    return Flow::Normal;
  }
  assert(false && "unhandled statement kind");
  return Flow::Fault;
}

Interp::Flow Interp::execBlock(const BlockStmt *B) {
  for (const Stmt *S : B->Stmts) {
    Flow F = execStmt(S);
    if (F != Flow::Normal)
      return F;
  }
  return Flow::Normal;
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Interp::runDefers(Frame &F) {
  while (!F.Defers.empty()) {
    DeferRecord Rec = std::move(F.Defers.back());
    F.Defers.pop_back();
    size_t Mark = tempMark();
    for (const Value &V : Rec.Args)
      pushTemp(V);
    std::vector<Value> Ignored;
    callFunction(Rec.Fn, Rec.Args, &Ignored);
    popTemps(Mark);
    if (Core.faulted())
      return;
  }
}

Interp::Flow Interp::callFunction(const FuncDecl *Fn, std::vector<Value> Args,
                                  std::vector<Value> *Results) {
  if (!Core.enterFrame(Fn, Args.data(), Args.size()))
    return Flow::Fault;

  Flow F1 = Core.faulted() ? Flow::Fault : execBlock(Fn->Body);

  // Capture return values before defers can clobber PendingReturn.
  std::vector<Value> Returned;
  if (F1 == Flow::Return)
    Returned = std::move(PendingReturn);
  else if (F1 == Flow::Normal && !Fn->Results.empty()) {
    Core.missingReturn(Fn);
    F1 = Flow::Fault;
  }

  if (F1 != Flow::Fault) {
    size_t Mark = tempMark();
    for (const Value &V : Returned)
      pushTemp(V);
    runDefers(frame());
    popTemps(Mark);
    if (Core.faulted() && F1 != Flow::Panic)
      F1 = Flow::Fault;
  }

  Core.exitFrame(Returned);
  if (Results)
    *Results = std::move(Returned);
  if (F1 == Flow::Return || F1 == Flow::Normal)
    return Flow::Normal;
  return F1; // Panic or Fault propagates.
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

RunResult Interp::run(const std::string &Entry,
                      const std::vector<int64_t> &Args) {
  TempRoots.clear();
  std::vector<Value> ArgValues;
  const FuncDecl *Fn = Core.beginRun(Entry, Args, ArgValues);
  if (!Fn)
    return Core.Result;
  std::vector<Value> Results;
  callFunction(Fn, std::move(ArgValues), &Results);
  TempRoots.clear();
  return Core.finishRun();
}
