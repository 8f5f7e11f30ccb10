//===- interp/EngineCore.cpp - Runtime state shared by both engines -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "interp/EngineCore.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::interp;
using namespace gofree::minigo;

//===----------------------------------------------------------------------===//
// FrameArena and value roots
//===----------------------------------------------------------------------===//

uintptr_t FrameArena::allocate(size_t Bytes) {
  Bytes = (Bytes + 7) & ~(size_t)7;
  if (Slabs.empty() || Used + Bytes > Slabs.back().second) {
    size_t SlabSize = Slabs.empty() ? 4096 : Slabs.back().second * 2;
    if (SlabSize < Bytes)
      SlabSize = Bytes;
    if (SlabSize > (1u << 20) && SlabSize > Bytes)
      SlabSize = std::max<size_t>(1u << 20, Bytes);
    Slabs.emplace_back(std::make_unique<char[]>(SlabSize), SlabSize);
    Used = 0;
  }
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Slabs.back().first.get()) + Used;
  Used += Bytes;
  std::memset(reinterpret_cast<void *>(Addr), 0, Bytes);
  return Addr;
}

void gofree::interp::scanValueRoots(rt::Heap &H, TypeLower &Types,
                                    const Value &V) {
  if (!V.Ty)
    return;
  switch (V.Ty->kind()) {
  case Type::TK_Pointer:
  case Type::TK_Map:
    H.gcMarkAddr(V.A);
    return;
  case Type::TK_Slice:
    H.gcMarkAddr(V.S.Data);
    return;
  case Type::TK_Struct:
    if (V.A)
      H.gcScanRegion(V.A, Types.lower(V.Ty), V.Ty->size());
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Run lifecycle and fuel
//===----------------------------------------------------------------------===//

const FuncDecl *EngineCore::beginRun(const std::string &Entry,
                                     const std::vector<int64_t> &Args,
                                     std::vector<Value> &ArgValues) {
  Result = RunResult{};
  FaultMsg.clear();
  FuelUsed = 0;
  Frames.clear();

  const FuncDecl *Fn = Prog.findFunc(Entry);
  if (!Fn) {
    Result.Error = "no entry function '" + Entry + "'";
    return nullptr;
  }
  if (Fn->Params.size() != Args.size()) {
    Result.Error = "entry argument count mismatch";
    return nullptr;
  }
  for (size_t I = 0; I < Args.size(); ++I) {
    Value V;
    V.Ty = Fn->Params[I]->Ty;
    V.I = Args[I];
    if (!V.Ty->isScalar()) {
      Result.Error = "entry parameters must be int or bool";
      return nullptr;
    }
    ArgValues.push_back(V);
  }
  return Fn;
}

RunResult EngineCore::finishRun() {
  Result.Steps = FuelUsed;
  if (!FaultMsg.empty() && !Result.OutOfFuel)
    Result.Error = FaultMsg;
  Frames.clear();
  return Result;
}

void EngineCore::fault(std::string_view Msg) {
  if (FaultMsg.empty())
    FaultMsg = Msg;
}

void EngineCore::missingReturn(const FuncDecl *Fn) {
  fault("missing return in '" + Fn->Name + "'");
}

bool EngineCore::outOfFuel() {
  Result.OutOfFuel = true;
  fault("step budget exhausted");
  return false;
}

//===----------------------------------------------------------------------===//
// Variables, maps, allocation sites and tcfree
//===----------------------------------------------------------------------===//

void EngineCore::boxVar(uintptr_t Slot, const VarDecl *V) {
  uintptr_t Box = Heap.allocate(V->Ty->size(), Types.lower(V->Ty),
                                rt::AllocCat::Other, Opts.CacheId);
  writeU64(Slot, Box);
}

rt::MapCtx EngineCore::mapCtxFor(const Type *MapTy) {
  rt::MapCtx Ctx;
  Ctx.H = &Heap;
  Ctx.BucketArrayDesc = Types.mapBuckets(MapTy->elem());
  Ctx.ValueDesc = Types.lower(MapTy->elem());
  Ctx.ValueSize = MapTy->elem()->size();
  Ctx.CacheId = Opts.CacheId;
  Ctx.Opts = Opts.Map;
  return Ctx;
}

Value EngineCore::mapIndex(uintptr_t Map, int64_t Key, const Type *ValTy) {
  alignas(8) char Buf[64];
  assert(ValTy->size() <= sizeof(Buf) && "map value too large");
  std::memset(Buf, 0, sizeof(Buf));
  if (Map)
    rt::mapLookup(Map, Key, Buf, ValTy->size());
  if (!ValTy->isStruct())
    return loadValueAt(reinterpret_cast<uintptr_t>(Buf), ValTy);
  Value V;
  V.Ty = ValTy;
  V.A = Frames.back()->Arena.allocate(ValTy->size());
  std::memcpy(reinterpret_cast<void *>(V.A), Buf, ValTy->size());
  return V;
}

void EngineCore::noteStackAlloc(rt::AllocCat Cat, size_t Bytes) {
  Heap.stats().StackAllocCountByCat[(int)Cat].fetch_add(
      1, std::memory_order_relaxed);
  if (trace::TraceSink *T = Heap.traceSink())
    T->emit(trace::EventKind::StackAlloc, (uint8_t)Cat, Bytes);
}

uintptr_t EngineCore::siteSlot(uint32_t Site, size_t Bytes, bool &Fresh) {
  Frame &F = *Frames.back();
  auto [It, Inserted] = F.SiteMem.try_emplace(Site, 0);
  Fresh = Inserted;
  if (Inserted)
    It->second = F.Arena.allocate(Bytes ? Bytes : 8);
  else
    std::memset(reinterpret_cast<void *>(It->second), 0, Bytes);
  return It->second;
}

uintptr_t EngineCore::objectStorage(uint32_t Site, const Type *Ty,
                                    bool OnStack) {
  size_t Bytes = Ty->size();
  if (!OnStack)
    return Heap.allocate(Bytes, Types.lower(Ty), rt::AllocCat::Other,
                         Opts.CacheId);
  bool Fresh;
  uintptr_t Addr = siteSlot(Site, Bytes, Fresh);
  if (Fresh)
    Frames.back()->StackObjs.push_back({Addr, Types.lower(Ty), Bytes});
  return Addr;
}

Value EngineCore::allocMake(const MakeExpr *ME, int64_t Len, int64_t Cap) {
  const Type *Elem = ME->MadeTy->elem();
  bool OnStack = siteOnStack(ME->AllocId);
  Value V;
  V.Ty = ME->MadeTy;

  if (ME->MadeTy->isSlice()) {
    if (Len < 0 || Cap < Len) {
      fault("make: invalid slice size");
      return Value{};
    }
    V.S.Len = Len;
    V.S.Cap = Cap;
    if (OnStack) {
      assert(ME->SizeIsConst && Cap <= ME->ConstSize &&
             "stack slice exceeding its site size");
      size_t Bytes = (size_t)ME->ConstSize * Elem->size();
      bool Fresh;
      V.S.Data = siteSlot(ME->AllocId, Bytes, Fresh);
      if (Fresh)
        Frames.back()->StackObjs.push_back(
            {V.S.Data, Types.arrayOf(Elem), Bytes});
      noteStackAlloc(rt::AllocCat::Slice, Bytes);
      return V;
    }
    V.S.Data = rt::sliceAllocArray(Heap, Types.arrayOf(Elem), Cap,
                                   Elem->size(), Opts.CacheId);
    if (!V.S.Data) {
      fault("make: invalid slice size");
      return Value{};
    }
    return V;
  }

  // make(map[K]V[, hint]): Elem is the value type.
  assert(ME->MadeTy->isMap() && "make of non-slice non-map");
  if (!OnStack) {
    V.A = rt::mapMakeHeap(mapCtxFor(ME->MadeTy), Types.hmap(), Len);
    return V;
  }
  int64_t NBuckets = rt::mapBucketsForHint(Len);
  size_t BucketBytes = rt::mapBucketBytes(NBuckets, Elem->size());
  bool Fresh;
  V.A = siteSlot(ME->AllocId, rt::HMapHeaderSize + BucketBytes, Fresh);
  if (Fresh) {
    Frame &F = *Frames.back();
    F.StackObjs.push_back({V.A, Types.hmap(), rt::HMapHeaderSize});
    F.StackObjs.push_back(
        {V.A + rt::HMapHeaderSize, Types.mapBuckets(Elem), BucketBytes});
  }
  rt::mapInit(V.A, NBuckets, V.A + rt::HMapHeaderSize, Elem->size());
  noteStackAlloc(rt::AllocCat::Map, rt::HMapHeaderSize + BucketBytes);
  return V;
}

Value EngineCore::allocNew(const NewExpr *NE) {
  bool OnStack = siteOnStack(NE->AllocId);
  Value V;
  V.Ty = NE->Ty;
  V.A = objectStorage(NE->AllocId, NE->AllocTy, OnStack);
  if (OnStack)
    noteStackAlloc(rt::AllocCat::Other, NE->AllocTy->size());
  return V;
}

Value EngineCore::allocComposite(const CompositeExpr *CE) {
  // A value literal T{} always lives in its site's slot; only &T{} can be
  // heap-allocated, and only &T{} counts as an allocation in the stats.
  bool OnStack = !CE->TakeAddr || siteOnStack(CE->AllocId);
  Value Obj;
  Obj.Ty = CE->TakeAddr ? CE->Ty : CE->StructTy;
  Obj.A = objectStorage(CE->AllocId, CE->StructTy, OnStack);
  if (OnStack && CE->TakeAddr)
    noteStackAlloc(rt::AllocCat::Other, CE->StructTy->size());
  return Obj;
}

void EngineCore::tcfree(const TcfreeStmt *TS) {
  uintptr_t Addr = varAddr(*Frames.back(), TS->Var);
  switch (TS->FreeKind) {
  case TcfreeKind::Slice: {
    rt::SliceHeader Hdr;
    std::memcpy(&Hdr, reinterpret_cast<void *>(Addr), sizeof(Hdr));
    rt::tcfreeSlice(Heap, Hdr, Opts.CacheId);
    return;
  }
  case TcfreeKind::Map:
    rt::tcfreeMap(Heap, readU64(Addr), Opts.CacheId);
    return;
  case TcfreeKind::Object:
    Heap.tcfreeObject(readU64(Addr), Opts.CacheId,
                      rt::FreeSource::TcfreeObject);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

bool EngineCore::enterFrame(const FuncDecl *Fn, const Value *Args,
                            size_t Argc) {
  if (!Fn) {
    fault("call to unresolved function");
    return false;
  }
  if (Frames.size() >= Opts.MaxFrames) {
    Result.OutOfFuel = true;
    fault("call stack overflow");
    return false;
  }
  auto FramePtr = std::make_unique<Frame>();
  Frame &F = *FramePtr;
  F.Fn = Fn;
  F.Slots.assign(Fn->FrameSize, 0);
  Frames.push_back(std::move(FramePtr));

  assert(Argc == Fn->Params.size() && "argument count mismatch");
  for (size_t I = 0; I < Argc; ++I) {
    initVarSlot(F, Fn->Params[I]); // May heap-box escaped parameters.
    if (faulted())
      break;
    storeValueAt(Heap, Types, varAddr(F, Fn->Params[I]), Args[I]);
  }
  return true;
}

void EngineCore::exitFrame(std::vector<Value> &Returned) {
  if (Frames.size() >= 2) {
    Frame &Caller = *Frames[Frames.size() - 2];
    for (Value &V : Returned) {
      if (!V.Ty || !V.Ty->isStruct() || !V.A)
        continue;
      uintptr_t Copy = Caller.Arena.allocate(V.Ty->size());
      std::memcpy(reinterpret_cast<void *>(Copy),
                  reinterpret_cast<void *>(V.A), V.Ty->size());
      V.A = Copy;
    }
  }
  Frames.pop_back();
}

void EngineCore::scanFrameRoots(rt::Heap &H) {
  for (const auto &FP : Frames) {
    const Frame &F = *FP;
    // Variable slots, precisely via lowered pointer maps. Heap-boxed
    // ("moved") variables hold one raw pointer; the box itself carries the
    // full descriptor.
    for (const VarDecl *V : F.Fn->AllVars) {
      uintptr_t Slot = F.slotAddr(V);
      if (V->MovedToHeap)
        H.gcScanRegion(Slot, Types.rawPtr(), 8);
      else if (V->Ty && V->Ty->hasPointers())
        H.gcScanRegion(Slot, Types.lower(V->Ty), V->Ty->size());
    }
    for (const StackObj &O : F.StackObjs)
      H.gcScanRegion(O.Addr, O.Desc, O.Bytes);
    for (const DeferRecord &D : F.Defers)
      for (const Value &V : D.Args)
        scanValueRoots(H, Types, V);
  }
}
