//===- vm/Vm.h - MiniGo bytecode virtual machine ---------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled MiniGo (vm::Module) against the GoFree runtime. Frames,
/// allocation sites and tcfree come from the same interp::EngineCore the
/// tree-walking interpreter owns, so the two engines produce bit-identical
/// heaps, stats and checksums; only dispatch differs. Like interp::Interp, a
/// Vm is a precise GC root scanner: the core scans the frames (slots via
/// pointer maps, stack-allocated objects, deferred arguments), and the Vm
/// adds -- replacing the interpreter's explicit temp roots -- every value on
/// the operand stack and in the pending-return slots.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_VM_VM_H
#define GOFREE_VM_VM_H

#include "interp/EngineCore.h"
#include "vm/Bytecode.h"

namespace gofree {
namespace vm {

/// The bytecode engine. One instance runs one program against one heap.
/// Observable behavior (checksum, sink count, panic, faults) matches
/// interp::Interp exactly; the fuzz differ enforces this law.
class Vm : public rt::RootScanner {
public:
  /// When \p Shared is null the VM compiles its own module; parallel
  /// workers pass one pre-compiled module (it is immutable during
  /// execution) to share the compile across threads.
  Vm(const minigo::Program &Prog, const escape::ProgramAnalysis &Analysis,
     rt::Heap &Heap, interp::InterpOptions Opts = {},
     const Module *Shared = nullptr);
  ~Vm() override;

  /// Runs \p Entry with integer arguments (same contract as Interp::run).
  interp::RunResult run(const std::string &Entry,
                        const std::vector<int64_t> &Args = {});

  /// The executing module (for disassembly in tests and tools).
  const Module &module() const { return *M; }

  // RootScanner: frames, stack objects, deferred args, operand stack and
  // pending returns.
  void scanRoots(rt::Heap &H) override;

private:
  enum class Flow : uint8_t { Normal, Return, Panic, Fault };

  /// Calls \p Fn whose \p Argc arguments sit at [ArgBase, ArgBase+Argc) on
  /// the operand stack (they stay there, rooted, for the whole call and are
  /// still present on return -- the caller drops them). Results are moved
  /// into \p Results. Returns Normal, Panic or Fault.
  Flow runFunction(const minigo::FuncDecl *Fn, size_t ArgBase, size_t Argc,
                   std::vector<interp::Value> &Results);
  Flow execChunk(const Chunk &C);
  void runDefers(interp::Frame &F);

  /// Fuel slow path, taken only when MigrationPeriod or GcEveryNSteps is
  /// set: runs those hooks and enforces MaxSteps.
  bool burnFuelHooks();

  // Operand stack.
  void push(const interp::Value &V) { Stack.push_back(V); }
  interp::Value pop() {
    interp::Value V = Stack.back();
    Stack.pop_back();
    return V;
  }
  interp::Value &top() { return Stack.back(); }

  interp::EngineCore Core;

  Module Own;          ///< Compiled here unless a shared module was given.
  const Module *M;

  /// Parallel to Core.Frames: each frame's captured return values (alive and
  /// scanned while that frame's defers run).
  std::vector<std::vector<interp::Value>> ReturnedStack;
  std::vector<interp::Value> Stack; ///< Operand stack; every entry is a root.
  /// True when MigrationPeriod or GcEveryNSteps is set (both need per-step
  /// modulo checks); false keeps the dispatch loop's fuel check branchless
  /// of them.
  bool FuelHooks = false;
};

} // namespace vm
} // namespace gofree

#endif // GOFREE_VM_VM_H
