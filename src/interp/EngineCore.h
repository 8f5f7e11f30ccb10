//===- interp/EngineCore.h - Runtime state shared by both engines -*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The half of MiniGo execution that does not depend on how a program is
/// dispatched. Both the tree-walking interpreter (interp::Interp) and the
/// bytecode VM (vm::Vm) own one EngineCore and call it directly, so the two
/// engines differ only in dispatch and in how they root temporaries:
///
///  - the value model: Value, loadValueAt/storeValueAt (struct values are
///    storage references; stores copy bytes through the write barrier);
///  - frames: flat variable slots with precise pointer maps, heap boxes for
///    moved-to-heap variables, frame entry (parameter boxing) and exit
///    (struct results copied into the caller), and their root scanning;
///  - allocation sites: escape-analysis stack allocation into per-frame,
///    per-site slots (section 4.5), heap allocation otherwise;
///  - the tcfree family at the statements the instrumenter inserted
///    (section 5).
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_INTERP_ENGINECORE_H
#define GOFREE_INTERP_ENGINECORE_H

#include "escape/Analysis.h"
#include "interp/TypeLower.h"
#include "minigo/Ast.h"
#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SliceRt.h"
#include "runtime/WordAccess.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gofree {
namespace interp {

/// Outcome of one program execution (the observable behavior the
/// robustness harness compares across configurations).
struct RunResult {
  uint64_t Checksum = 0;   ///< Order-sensitive fold of all sink() values.
  uint64_t SinkCount = 0;
  bool Panicked = false;
  int64_t PanicValue = 0;
  bool OutOfFuel = false;  ///< Step or recursion budget exhausted.
  uint64_t Steps = 0;
  std::string Error;       ///< Runtime fault (nil deref, bounds), if any.

  bool ok() const { return !Panicked && !OutOfFuel && Error.empty(); }
};

/// Engine knobs.
struct InterpOptions {
  uint64_t MaxSteps = 2'000'000'000;
  unsigned MaxFrames = 4096;
  int CacheId = 0;
  /// Simulates Go's runtime rescheduling the goroutine onto another P:
  /// every this-many interpreter steps the thread-cache id rotates, so
  /// spans cached before the switch belong to a "different thread" and
  /// tcfree exercises its ownership give-up path (section 5). 0 disables.
  /// Single-threaded runs only: with real worker threads (ExecOptions::
  /// NumThreads > 1) each thread must keep its own cache id for the
  /// ownership invariant to hold, so the pipeline forces this to 0 there
  /// (genuine cross-thread contention replaces the simulation).
  uint64_t MigrationPeriod = 0;
  /// Test hook honored by the bytecode VM only: force a full collection
  /// every this-many executed opcodes (0 disables). The GC-torture tests
  /// use it to run a collection at essentially every dispatch point,
  /// proving the operand stack and call frames root everything.
  uint64_t GcEveryNSteps = 0;
  rt::SliceRtOptions Slice;
  rt::MapRtOptions Map;
};

/// A runtime value. Struct-typed values are references to storage (frame
/// slot, temp arena, or heap); assignment copies the bytes.
struct Value {
  const minigo::Type *Ty = nullptr;
  int64_t I = 0;            ///< Int/Bool payload.
  uintptr_t A = 0;          ///< Pointer/map/struct-storage address.
  rt::SliceHeader S{0, 0, 0};
};

/// Per-frame bump arena with stable addresses, backing the stack-allocation
/// optimization. Like Go's compiler, each eligible allocation site owns one
/// fixed slot that is reused across loop iterations (Frame::SiteMem), so the
/// arena never needs to rewind before the function returns.
class FrameArena {
public:
  uintptr_t allocate(size_t Bytes);

private:
  std::vector<std::pair<std::unique_ptr<char[]>, size_t>> Slabs;
  size_t Used = 0;
};

/// Raw 8-byte loads/stores (every scalar slot is 8 bytes wide). Loads stay
/// plain (the concurrent markers never write object words), but stores go
/// through the relaxed atomic word store so a marker reading the slot
/// mid-store never races it; see runtime/WordAccess.h.
inline uint64_t readU64(uintptr_t Addr) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
  return V;
}

inline void writeU64(uintptr_t Addr, uint64_t V) {
  rt::storeWordRelaxed(Addr, V);
}

/// Reads a typed value from storage.
inline Value loadValueAt(uintptr_t Addr, const minigo::Type *Ty) {
  Value V;
  V.Ty = Ty;
  switch (Ty->kind()) {
  case minigo::Type::TK_Int:
  case minigo::Type::TK_Bool:
    V.I = (int64_t)readU64(Addr);
    return V;
  case minigo::Type::TK_Pointer:
  case minigo::Type::TK_Map:
    V.A = readU64(Addr);
    return V;
  case minigo::Type::TK_Slice:
    std::memcpy(&V.S, reinterpret_cast<void *>(Addr), sizeof(rt::SliceHeader));
    return V;
  case minigo::Type::TK_Struct:
    V.A = Addr; // Structs are references to storage; stores copy bytes.
    return V;
  default:
    assert(false && "unloadable type");
    return V;
  }
}

/// Writes a typed value back to storage, without the write barrier.
inline void storeValueAt(uintptr_t Addr, const Value &V) {
  switch (V.Ty->kind()) {
  case minigo::Type::TK_Int:
  case minigo::Type::TK_Bool:
    writeU64(Addr, (uint64_t)V.I);
    return;
  case minigo::Type::TK_Pointer:
  case minigo::Type::TK_Map:
    writeU64(Addr, V.A);
    return;
  case minigo::Type::TK_Slice:
    rt::copyWordsRelaxed(Addr, reinterpret_cast<uintptr_t>(&V.S),
                         sizeof(rt::SliceHeader));
    return;
  case minigo::Type::TK_Struct:
    if (Addr != V.A)
      rt::copyWordsRelaxed(Addr, V.A, V.Ty->size());
    return;
  default:
    assert(false && "unstorable type");
  }
}

/// Barrier-aware store: notifies the heap's write barrier for every pointer
/// slot the store will overwrite, then performs the plain store. Both
/// engines route every store that may target the heap through this overload;
/// stores into frame slots also pass through, but the barrier's address-range
/// filter rejects them before any backend work. The barrier must observe the
/// slot's *old* value, so it runs strictly before the bytes move.
inline void storeValueAt(rt::Heap &H, TypeLower &Types, uintptr_t Addr,
                         const Value &V) {
  if (H.gcBarrierActive()) {
    switch (V.Ty->kind()) {
    case minigo::Type::TK_Pointer:
    case minigo::Type::TK_Map:
      H.gcWriteBarrier(Addr, V.A);
      break;
    case minigo::Type::TK_Slice:
      // SliceHeader = {Data, Len, Cap}; Data (offset 0) is the only pointer.
      H.gcWriteBarrier(Addr, V.S.Data);
      break;
    case minigo::Type::TK_Struct:
      if (Addr != V.A)
        H.gcCopyBarrier(Addr, V.A, V.Ty->size(), Types.lower(V.Ty));
      break;
    default:
      break;
    }
  }
  storeValueAt(Addr, V);
}

/// Marks whatever \p V keeps alive: pointers and maps by address, slices by
/// their backing array, struct references by scanning the pointed-to region
/// with its lowered descriptor. Both engines use this for temporary roots.
void scanValueRoots(rt::Heap &H, TypeLower &Types, const Value &V);

/// One stack-allocated object, for precise root scanning.
struct StackObj {
  uintptr_t Addr;
  const rt::TypeDesc *Desc;
  size_t Bytes;
};

/// A pending deferred call.
struct DeferRecord {
  const minigo::FuncDecl *Fn;
  std::vector<Value> Args;
};

/// An activation record.
struct Frame {
  const minigo::FuncDecl *Fn = nullptr;
  std::vector<char> Slots;
  FrameArena Arena;
  std::vector<StackObj> StackObjs;
  std::vector<DeferRecord> Defers;
  /// Allocation-site id -> fixed stack slot for that site (reused on every
  /// execution, mirroring Go's per-site stack slots).
  std::unordered_map<uint32_t, uintptr_t> SiteMem;

  uintptr_t slotAddr(const minigo::VarDecl *V) const {
    return reinterpret_cast<uintptr_t>(Slots.data()) + V->FrameOffset;
  }
};

/// The state and runtime operations both engines share. Each engine owns one
/// EngineCore and keeps only its dispatch and its own temporary roots; its
/// root scanner calls scanFrameRoots for the frames.
class EngineCore {
public:
  EngineCore(const minigo::Program &Prog,
             const escape::ProgramAnalysis &Analysis, rt::Heap &Heap,
             InterpOptions Opts)
      : Prog(Prog), Analysis(Analysis), Heap(Heap), Opts(Opts) {}

  //===--- Run lifecycle ---------------------------------------------------===//

  /// Clears the per-run state and resolves \p Entry, converting \p Args into
  /// its parameter values. Returns null, with Result.Error set, when the
  /// entry is missing or does not take exactly these int/bool arguments.
  const minigo::FuncDecl *beginRun(const std::string &Entry,
                                   const std::vector<int64_t> &Args,
                                   std::vector<Value> &ArgValues);
  /// Records the steps taken and any fault in Result, drops the frames and
  /// returns the result.
  RunResult finishRun();

  //===--- Faults and fuel -------------------------------------------------===//

  bool faulted() const { return !FaultMsg.empty(); }
  /// Records \p Msg unless an earlier fault is already pending.
  void fault(std::string_view Msg);
  /// Faults a call of \p Fn that reached the end of its body without
  /// returning its results.
  void missingReturn(const minigo::FuncDecl *Fn);
  /// Reports an exhausted step budget; always returns false.
  bool outOfFuel();
  /// Simulated P-migration: every MigrationPeriod steps, rotate to the next
  /// thread cache.
  void migrateOnPeriod() {
    if (Opts.MigrationPeriod && FuelUsed % Opts.MigrationPeriod == 0)
      Opts.CacheId = (Opts.CacheId + 1) % Heap.options().NumCaches;
  }

  //===--- Variable storage ------------------------------------------------===//

  /// The address of \p V's payload in frame \p F: its slot, or the heap box
  /// the slot points to for a moved-to-heap variable. Runs on every variable
  /// access of both engines, so it stays inline.
  static uintptr_t varAddr(const Frame &F, const minigo::VarDecl *V) {
    uintptr_t Slot = F.slotAddr(V);
    if (!V->MovedToHeap)
      return Slot;
    return readU64(Slot); // Boxed: the slot holds the heap cell's address.
  }

  /// Zeroes \p V's slot in \p F. Go's "moved to heap" variables get a fresh
  /// heap box per declaration execution instead, which preserves
  /// per-iteration identity; the allocation may trigger a collection.
  void initVarSlot(Frame &F, const minigo::VarDecl *V) {
    uintptr_t Slot = F.slotAddr(V);
    if (V->MovedToHeap)
      return boxVar(Slot, V);
    std::memset(reinterpret_cast<void *>(Slot), 0, V->Ty->size());
  }

  /// The runtime context for operations on maps of type \p MapTy.
  rt::MapCtx mapCtxFor(const minigo::Type *MapTy);

  /// Reads m[Key] as a \p ValTy value; a nil map or a missing key yields
  /// the zero value, like Go. A struct value is copied into the current
  /// frame's arena, since the caller receives a storage reference.
  Value mapIndex(uintptr_t Map, int64_t Key, const minigo::Type *ValTy);

  //===--- Allocation sites and tcfree -------------------------------------===//
  // Operands are already evaluated; the sites allocate in the current
  // frame. An allocation may trigger a collection, so the caller keeps every
  // other live temporary rooted.

  /// make([]T, Len, Cap) or make(map[K]V, Len) (callers pass Cap = Len when
  /// the source has no capacity). Returns a zero Value with the fault set
  /// when the slice size is invalid.
  Value allocMake(const minigo::MakeExpr *ME, int64_t Len, int64_t Cap);
  /// new(T).
  Value allocNew(const minigo::NewExpr *NE);
  /// The zeroed storage of a composite literal, before its initializers
  /// run: a pointer for &T{}, a struct reference for a value T{}.
  Value allocComposite(const minigo::CompositeExpr *CE);
  /// Runs the tcfree call the instrumenter inserted for TS->Var.
  void tcfree(const minigo::TcfreeStmt *TS);

  //===--- Frames ----------------------------------------------------------===//

  /// Pushes a frame for \p Fn and stores \p Args into its parameters,
  /// heap-boxing escaped ones (the caller keeps \p Args rooted meanwhile).
  /// Returns false, with the fault set and no frame pushed, for an
  /// unresolved function or when the call depth would exceed MaxFrames.
  bool enterFrame(const minigo::FuncDecl *Fn, const Value *Args, size_t Argc);
  /// Pops the current frame. Struct-typed values in \p Returned reference
  /// storage inside it, so they are first copied into the caller's arena.
  void exitFrame(std::vector<Value> &Returned);
  /// Marks everything the frames keep alive: variable slots through their
  /// pointer maps, stack-allocated objects and deferred-call arguments.
  void scanFrameRoots(rt::Heap &H);

  const minigo::Program &Prog;
  const escape::ProgramAnalysis &Analysis;
  rt::Heap &Heap;
  InterpOptions Opts;
  TypeLower Types;

  std::vector<std::unique_ptr<Frame>> Frames;
  RunResult Result;
  std::string FaultMsg;
  uint64_t FuelUsed = 0;

private:
  /// Stores a fresh heap box for moved-to-heap \p V into \p Slot.
  void boxVar(uintptr_t Slot, const minigo::VarDecl *V);
  bool siteOnStack(uint32_t Site) const {
    return Site < Analysis.SiteOnStack.size() && Analysis.SiteOnStack[Site];
  }
  /// The current frame's fixed slot for allocation site \p Site, zeroed.
  /// The first execution allocates it from the frame arena and sets \p Fresh
  /// (the caller then registers its stack objects); later ones reuse it.
  uintptr_t siteSlot(uint32_t Site, size_t Bytes, bool &Fresh);
  /// Storage for one \p Ty object at \p Site: its stack slot when \p OnStack,
  /// a heap object otherwise.
  uintptr_t objectStorage(uint32_t Site, const minigo::Type *Ty, bool OnStack);
  /// Records an escape-analysis stack allocation in the heap's stats and,
  /// when tracing is on, the event stream (table 8's stack column).
  void noteStackAlloc(rt::AllocCat Cat, size_t Bytes);
};

} // namespace interp
} // namespace gofree

#endif // GOFREE_INTERP_ENGINECORE_H
