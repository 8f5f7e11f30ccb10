//===- vm/Vm.cpp - MiniGo bytecode virtual machine ------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/GoArith.h"
#include "vm/Compiler.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::vm;
using namespace gofree::minigo;
using interp::Value;

//===----------------------------------------------------------------------===//
// Construction and roots
//===----------------------------------------------------------------------===//

Vm::Vm(const Program &Prog, const escape::ProgramAnalysis &Analysis,
       rt::Heap &Heap, interp::InterpOptions Opts, const Module *Shared)
    : Core(Prog, Analysis, Heap, Opts) {
  if (Shared) {
    assert(Shared->Prog == &Prog && "shared module for a different program");
    M = Shared;
  } else {
    Own = compileProgram(Prog);
    M = &Own;
  }
  FuelHooks = Opts.MigrationPeriod != 0 || Opts.GcEveryNSteps != 0;
  // Same registration discipline as the interpreter: register before the
  // thread enters its MutatorScope, deregister after it leaves.
  Heap.addRootScanner(this);
}

Vm::~Vm() { Core.Heap.removeRootScanner(this); }

void Vm::scanRoots(rt::Heap &H) {
  Core.scanFrameRoots(H);
  for (const auto &Rets : ReturnedStack)
    for (const Value &V : Rets)
      interp::scanValueRoots(H, Core.Types, V);
  for (const Value &V : Stack) {
    if (!V.Ty)
      // Raw lvalue address: an interior pointer into the object about to
      // be stored to. Marking it keeps the containing object alive even
      // when a forced collection (GcEveryNSteps) lands inside the
      // address-computation window.
      H.gcMarkAddr(V.A);
    else
      interp::scanValueRoots(H, Core.Types, V);
  }
}

//===----------------------------------------------------------------------===//
// Fuel hooks
//===----------------------------------------------------------------------===//

bool Vm::burnFuelHooks() {
  Core.migrateOnPeriod();
  // GC torture: a forced collection at (essentially) every dispatch point.
  if (Core.Opts.GcEveryNSteps && Core.FuelUsed % Core.Opts.GcEveryNSteps == 0)
    Core.Heap.runGc();
  if (Core.FuelUsed <= Core.Opts.MaxSteps)
    return true;
  return Core.outOfFuel();
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

Vm::Flow Vm::execChunk(const Chunk &C) {
  const uint32_t *Code = C.Code.data();
  // Immutable pools, hoisted so stores through arbitrary Value addresses do
  // not force reloading them (the compiler cannot prove M is unclobbered).
  const Type *const *TypePool = M->Types.data();
  const int64_t *IntPool = M->Ints.data();
  const VarDecl *const *VarPool = M->Vars.data();
  const FuncDecl *const *FuncPool = M->Funcs.data();
  // The executing frame is fixed for the duration of a chunk: runFunction
  // pushes it before execChunk and pops it after, and nested calls restore
  // Frames before returning here.
  interp::Frame &CurF = *Core.Frames.back();
  size_t IP = 0;
  // Threaded dispatch: every handler knows its own static operand width and
  // jumps straight to the next handler through its own indirect branch,
  // which the branch predictor resolves far better than one shared switch
  // dispatch. The jump table is generated from the same X-macro as enum Op
  // (order-checked in Bytecode.h), so adding an opcode without a handler
  // fails to compile instead of misdispatching. Every chunk ends in
  // Return/MissingRet (the compiler's epilogue) or loops, so control never
  // falls off the end of the code stream.
#define GOFREE_VM_LABEL(x) &&Do_##x,
  static const void *const Targets[] = {
      GOFREE_VM_FOR_EACH_OP(GOFREE_VM_LABEL)};
#undef GOFREE_VM_LABEL
  // Fuel lives in a register for the duration of the chunk; the member is
  // the source of truth only across calls (flushed before runFunction,
  // reloaded after) and on exit (the Sync destructor covers every return
  // path). With no hooks installed the per-opcode cost is one increment and
  // one never-taken branch to the shared slow path below; with hooks
  // (migration / GC torture) FastLimit is 0 so every dispatch goes slow.
  uint64_t Fuel = Core.FuelUsed;
  const uint64_t FastLimit = FuelHooks ? 0 : Core.Opts.MaxSteps;
  struct FuelSync {
    uint64_t &Mem, &Loc;
    ~FuelSync() { Mem = Loc; }
  } Sync{Core.FuelUsed, Fuel};
#define DISPATCH_AT(NewIP)                                                     \
  do {                                                                         \
    IP = (NewIP);                                                              \
    if (++Fuel > FastLimit)                                                    \
      goto SlowFuel;                                                           \
    goto *Targets[Code[IP]];                                                   \
  } while (0)
  // Advance over this opcode plus its \p Words operand words. The width must
  // match opOperands() -- asserted in debug builds at every dispatch.
#define NEXT(Words)                                                            \
  do {                                                                         \
    assert(opOperands((Op)Code[IP]) == (Words) && "operand width mismatch");   \
    DISPATCH_AT(IP + 1 + (Words));                                             \
  } while (0)

  DISPATCH_AT(0);

SlowFuel:
  // One call-free branch target shared by all dispatch sites: run the rare
  // hooks (which also enforce MaxSteps) or report fuel exhaustion.
  Core.FuelUsed = Fuel;
  if (!(FuelHooks ? burnFuelHooks() : Core.outOfFuel()))
    return Flow::Fault;
  goto *Targets[Code[IP]];

Do_Const: {
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  V.I = IntPool[Code[IP + 2]];
  push(V);
  NEXT(2);
}
Do_Nil: {
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  push(V);
  NEXT(1);
}
Do_LoadVar: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  push(interp::loadValueAt(Core.varAddr(CurF, Var), Var->Ty));
  NEXT(1);
}
Do_Pop:
  Stack.pop_back();
  NEXT(0);
Do_PopN:
  Stack.resize(Stack.size() - Code[IP + 1]);
  NEXT(1);
Do_Pick: {
  Value V = Stack[Stack.size() - Code[IP + 1]];
  push(V);
  NEXT(1);
}

Do_Jump:
  DISPATCH_AT(Code[IP + 1]);
Do_JumpIfFalse: {
  const bool Taken = !Stack.back().I;
  Stack.pop_back();
  if (Taken)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);
}
Do_JumpIfFalsePeek:
  if (!top().I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);
Do_JumpIfTruePeek:
  if (top().I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);

Do_Neg: {
  Value &T = top();
  T.Ty = TypePool[Code[IP + 1]];
  T.I = arith::wrapNeg(T.I);
  NEXT(1);
}
Do_Not: {
  Value &T = top();
  T.Ty = TypePool[Code[IP + 1]];
  T.I = !T.I;
  NEXT(1);
}
// The binary scalar ops pop the right operand and rewrite the left in
// place; 32-byte Value copies through pop()/push() are what made the
// dispatch loop lose to the tree-walker before.
#define GOFREE_VM_BINOP(name, expr)                                           \
  Do_##name : {                                                               \
    const int64_t R = Stack.back().I;                                         \
    Stack.pop_back();                                                         \
    Value &L = Stack.back();                                                  \
    L.Ty = TypePool[Code[IP + 1]];                                            \
    L.I = (expr);                                                             \
    NEXT(1);                                                                  \
  }
GOFREE_VM_BINOP(Add, arith::wrapAdd(L.I, R))
GOFREE_VM_BINOP(Sub, arith::wrapSub(L.I, R))
GOFREE_VM_BINOP(Mul, arith::wrapMul(L.I, R))
GOFREE_VM_BINOP(Lt, L.I < R)
GOFREE_VM_BINOP(Le, L.I <= R)
GOFREE_VM_BINOP(Gt, L.I > R)
GOFREE_VM_BINOP(Ge, L.I >= R)
#undef GOFREE_VM_BINOP
Do_Div:
Do_Mod: {
  const bool IsDiv = (Op)Code[IP] == Op::Div;
  const int64_t R = Stack.back().I;
  Stack.pop_back();
  Value &L = Stack.back();
  bool DivZero = false;
  L.Ty = TypePool[Code[IP + 1]];
  L.I = IsDiv ? arith::goDiv(L.I, R, DivZero) : arith::goMod(L.I, R, DivZero);
  if (DivZero) {
    Core.fault("integer divide by zero");
    return Flow::Fault;
  }
  NEXT(1);
}
Do_Eq:
Do_Ne: {
  const Value R = pop();
  Value &L = Stack.back();
  bool Equal;
  switch (Code[IP + 2]) {
  case 0:
    Equal = L.I == R.I;
    break;
  case 1:
    // Only nil comparisons pass Sema; a made slice is never nil.
    Equal = L.S.Data == R.S.Data && L.S.Len == R.S.Len && L.S.Cap == R.S.Cap;
    break;
  default:
    Equal = L.A == R.A;
    break;
  }
  L.Ty = TypePool[Code[IP + 1]];
  L.I = (Op)Code[IP] == Op::Eq ? Equal : !Equal;
  NEXT(2);
}

Do_Deref: {
  Value &T = top();
  if (!T.A) {
    Core.fault("nil pointer dereference");
    return Flow::Fault;
  }
  T = interp::loadValueAt(T.A, TypePool[Code[IP + 1]]);
  NEXT(1);
}
Do_MkPtr: {
  top().Ty = TypePool[Code[IP + 1]]; // The raw address is already there.
  NEXT(1);
}
Do_FieldPtr: {
  Value &T = top();
  if (!T.A) {
    Core.fault("nil pointer dereference");
    return Flow::Fault;
  }
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_FieldVal: {
  Value &T = top();
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_IndexSlice: {
  const int64_t Idx = Stack.back().I;
  Stack.pop_back();
  Value &B = Stack.back();
  if (Idx < 0 || Idx >= B.S.Len) {
    Core.fault("slice index out of range");
    return Flow::Fault;
  }
  const Type *ElemTy = TypePool[Code[IP + 1]];
  B = interp::loadValueAt(B.S.Data + (uintptr_t)Idx * ElemTy->size(), ElemTy);
  NEXT(1);
}
Do_IndexMap: {
  const int64_t Key = Stack.back().I;
  Stack.pop_back();
  Value &MV = Stack.back();
  MV = Core.mapIndex(MV.A, Key, TypePool[Code[IP + 1]]);
  NEXT(1);
}

Do_LvalVar: {
  Value V;
  V.A = Core.varAddr(CurF, VarPool[Code[IP + 1]]);
  push(V);
  NEXT(1);
}
Do_LvalDeref: {
  Value &T = top();
  if (!T.A) {
    Core.fault("nil pointer dereference");
    return Flow::Fault;
  }
  T.Ty = nullptr; // Becomes a raw address; the scanner marks via A.
  NEXT(0);
}
Do_LvalFieldPtr: {
  Value &T = top();
  if (!T.A) {
    Core.fault("nil pointer dereference");
    return Flow::Fault;
  }
  T.A += Code[IP + 1];
  T.Ty = nullptr;
  NEXT(1);
}
Do_LvalField: {
  Value &T = top();
  T.A += Code[IP + 1];
  T.Ty = nullptr;
  NEXT(1);
}
Do_LvalIndex: {
  const int64_t Idx = Stack.back().I;
  Stack.pop_back();
  Value &B = Stack.back();
  if (Idx < 0 || Idx >= B.S.Len) {
    Core.fault("slice index out of range");
    return Flow::Fault;
  }
  B.A = B.S.Data + (uintptr_t)Idx * Code[IP + 1];
  B.Ty = nullptr;
  NEXT(1);
}

Do_Store: {
  const uintptr_t Addr = Stack.back().A;
  Stack.pop_back();
  interp::storeValueAt(Core.Heap, Core.Types, Addr, Stack.back());
  Stack.pop_back();
  NEXT(0);
}
Do_StoreVarInit: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  Core.initVarSlot(CurF, Var); // The value stays on the stack, rooted, meanwhile.
  Value V = pop();
  interp::storeValueAt(Core.Heap, Core.Types, Core.varAddr(CurF, Var), V);
  NEXT(1);
}
Do_InitVar:
  Core.initVarSlot(CurF, VarPool[Code[IP + 1]]);
  NEXT(1);
Do_MapNilCheck:
  if (!top().A) {
    Core.fault("assignment to entry in nil map");
    return Flow::Fault;
  }
  NEXT(0);
Do_StoreMap: {
  // Stack: [v, m, k]; all three stay rooted while mapAssign may grow.
  const Type *MapTy = TypePool[Code[IP + 1]];
  Value &K = Stack[Stack.size() - 1];
  Value &MV = Stack[Stack.size() - 2];
  Value &V = Stack[Stack.size() - 3];
  alignas(8) char Buf[64];
  assert(V.Ty->size() <= sizeof(Buf) && "map value too large");
  interp::storeValueAt(reinterpret_cast<uintptr_t>(Buf), V);
  rt::mapAssign(Core.mapCtxFor(MapTy), MV.A, K.I, Buf);
  Stack.resize(Stack.size() - 3);
  NEXT(1);
}

Do_Call: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = Stack.size() - Argc;
  std::vector<Value> Results;
  Core.FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = Core.FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  Stack.resize(ArgBase);
  if (Results.empty()) {
    Value V;
    V.Ty = TypePool[Code[IP + 3]];
    push(V);
  } else {
    push(Results[0]);
  }
  NEXT(3);
}
Do_CallMulti: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = Stack.size() - Argc;
  std::vector<Value> Results;
  Core.FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = Core.FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  Stack.resize(ArgBase);
  for (const Value &V : Results)
    push(V);
  NEXT(2);
}
Do_CallStmt: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = Stack.size() - Argc;
  std::vector<Value> Results;
  Core.FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = Core.FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  Stack.resize(ArgBase);
  NEXT(2);
}
Do_Defer: {
  uint32_t Argc = Code[IP + 2];
  interp::DeferRecord Rec;
  Rec.Fn = FuncPool[Code[IP + 1]];
  Rec.Args.assign(Stack.end() - Argc, Stack.end());
  Stack.resize(Stack.size() - Argc);
  CurF.Defers.push_back(std::move(Rec));
  NEXT(2);
}
Do_Return: {
  uint32_t N = Code[IP + 1];
  ReturnedStack.back().assign(Stack.end() - N, Stack.end());
  Stack.resize(Stack.size() - N);
  return Flow::Return;
}
Do_MissingRet:
  Core.missingReturn(C.Fn);
  return Flow::Fault;

Do_Make: {
  // The compiled code pushed Len then Cap (when present).
  const MakeExpr *ME = M->Makes[Code[IP + 1]];
  const int64_t Cap = ME->CapExpr ? pop().I : 0;
  const int64_t Len = ME->Len ? pop().I : 0;
  Value V = Core.allocMake(ME, Len, ME->CapExpr ? Cap : Len);
  if (Core.faulted())
    return Flow::Fault;
  push(V);
  NEXT(1);
}
Do_New:
  push(Core.allocNew(M->News[Code[IP + 1]]));
  NEXT(1);
Do_Composite:
  // The object stays on the operand stack (rooted) while the compiled
  // SetField initializers that follow run -- they may allocate.
  push(Core.allocComposite(M->Composites[Code[IP + 1]]));
  NEXT(1);
Do_SetField: {
  Value V = pop();
  interp::storeValueAt(Core.Heap, Core.Types, top().A + Code[IP + 1], V);
  NEXT(1);
}
Do_LenSlice: {
  Value &T = top();
  T.I = T.S.Len;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_LenMap: {
  Value &T = top();
  T.I = T.A ? rt::mapLen(T.A) : 0;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_CapOf: {
  Value &T = top();
  T.I = T.S.Cap;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_Append: {
  // Stack: [s, v]; both stay rooted while the backing array may grow.
  const Type *SliceTy = TypePool[Code[IP + 1]];
  const Type *ElemTy = SliceTy->elem();
  Value &S = Stack[Stack.size() - 2];
  Value &Elem = Stack[Stack.size() - 1];
  if (rt::sliceGrowForAppend(Core.Heap, S.S, Core.Types.arrayOf(ElemTy),
                             ElemTy->size(), Core.Opts.CacheId,
                             Core.Opts.Slice) == rt::SliceGrow::Overflow) {
    Core.fault("growslice: cap out of range");
    return Flow::Fault;
  }
  interp::storeValueAt(Core.Heap, Core.Types,
                       S.S.Data + (uintptr_t)S.S.Len * ElemTy->size(), Elem);
  ++S.S.Len;
  Value Res = S;
  Res.Ty = SliceTy;
  Stack.resize(Stack.size() - 2);
  push(Res);
  NEXT(1);
}
Do_Slicing: {
  uint32_t Flags = Code[IP + 2];
  Value HiV, LoV;
  if (Flags & 2)
    HiV = pop();
  if (Flags & 1)
    LoV = pop();
  Value Base = pop();
  int64_t Lo = (Flags & 1) ? LoV.I : 0;
  int64_t Hi = (Flags & 2) ? HiV.I : Base.S.Len;
  if (Lo < 0 || Lo > Hi || Hi > Base.S.Cap) {
    Core.fault("slice bounds out of range");
    return Flow::Fault;
  }
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  size_t ElemSize = V.Ty->elem()->size();
  V.S.Data = Base.S.Data + (uintptr_t)Lo * ElemSize;
  V.S.Len = Hi - Lo;
  V.S.Cap = Base.S.Cap - Lo;
  push(V);
  NEXT(2);
}
Do_Copy: {
  Value Src = pop();
  Value Dst = pop();
  int64_t N = std::min(Dst.S.Len, Src.S.Len);
  if (N > 0) {
    Core.Heap.gcCopyBarrier(Dst.S.Data, Src.S.Data, (size_t)N * Code[IP + 2],
                            Core.Types.arrayOf(Dst.Ty->elem()));
    rt::copyWordsRelaxed(Dst.S.Data, Src.S.Data, (size_t)N * Code[IP + 2]);
  }
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  V.I = N;
  push(V);
  NEXT(2);
}

Do_Panic: {
  Value V = pop();
  Core.Result.Panicked = true;
  Core.Result.PanicValue = V.I;
  return Flow::Panic;
}
Do_Sink:
  Core.Result.Checksum =
      Core.Result.Checksum * 1099511628211ULL ^ (uint64_t)Stack.back().I;
  ++Core.Result.SinkCount;
  Stack.pop_back();
  NEXT(0);
Do_Delete: {
  Value K = pop();
  Value MV = pop();
  if (MV.A)
    rt::mapDelete(MV.A, K.I);
  NEXT(0);
}
Do_Tcfree:
  Core.tcfree(M->Tcfrees[Code[IP + 1]]);
  NEXT(1);
#undef NEXT
#undef DISPATCH_AT
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Vm::runDefers(interp::Frame &F) {
  while (!F.Defers.empty()) {
    interp::DeferRecord Rec = std::move(F.Defers.back());
    F.Defers.pop_back();
    size_t ArgBase = Stack.size();
    for (const Value &V : Rec.Args)
      push(V); // Rooted for the duration of the deferred call.
    std::vector<Value> Ignored;
    runFunction(Rec.Fn, ArgBase, Rec.Args.size(), Ignored);
    Stack.resize(ArgBase);
    // A panic from a deferred call is recorded but does not stop the
    // remaining defers (matching the tree-walker); a fault does.
    if (Core.faulted())
      return;
  }
}

Vm::Flow Vm::runFunction(const FuncDecl *Fn, size_t ArgBase, size_t Argc,
                         std::vector<Value> &Results) {
  // The arguments stay on the operand stack, rooted, while parameters are
  // heap-boxed.
  if (!Core.enterFrame(Fn, Stack.data() + ArgBase, Argc))
    return Flow::Fault;
  ReturnedStack.emplace_back();
  const Chunk *C = M->chunkFor(Fn);
  assert(C && "function without a compiled chunk");

  size_t TransientBase = ArgBase + Argc;
  Flow F1 = Core.faulted() ? Flow::Fault : execChunk(*C);
  // An abrupt exit (panic, fault) leaves partial expression state on the
  // operand stack; drop it. The arguments below stay for the caller.
  Stack.resize(TransientBase);

  // Defers run on return and panic; a fault (including the missing-return
  // fault) skips them, exactly like the tree-walker.
  if (F1 != Flow::Fault) {
    runDefers(*Core.Frames.back());
    if (Core.faulted() && F1 != Flow::Panic)
      F1 = Flow::Fault;
  }

  std::vector<Value> Returned = std::move(ReturnedStack.back());
  ReturnedStack.pop_back();
  Core.exitFrame(Returned);
  Results = std::move(Returned);
  if (F1 == Flow::Return || F1 == Flow::Normal)
    return Flow::Normal;
  return F1; // Panic or Fault propagates.
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

interp::RunResult Vm::run(const std::string &Entry,
                          const std::vector<int64_t> &Args) {
  ReturnedStack.clear();
  Stack.clear();
  // Pre-size the operand stack so the hot push path never reallocates
  // (expression depth is bounded by nesting, far under this).
  Stack.reserve(4096);

  std::vector<Value> ArgValues;
  const FuncDecl *Fn = Core.beginRun(Entry, Args, ArgValues);
  if (!Fn)
    return Core.Result;
  Stack.insert(Stack.end(), ArgValues.begin(), ArgValues.end());
  std::vector<Value> Results;
  runFunction(Fn, 0, Args.size(), Results);
  ReturnedStack.clear();
  Stack.clear();
  return Core.finishRun();
}
