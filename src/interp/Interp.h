//===- interp/Interp.h - MiniGo tree-walking interpreter -------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes instrumented MiniGo programs against the GoFree runtime by
/// walking the AST. Frames, allocation sites and tcfree live in the shared
/// EngineCore (interp/EngineCore.h); this file is the tree-walking dispatch
/// plus its explicit temporary roots. The bytecode VM (vm/Vm.h) is the
/// default engine; the tree-walker stays as the differential oracle.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_INTERP_INTERP_H
#define GOFREE_INTERP_INTERP_H

#include "interp/EngineCore.h"

#include <string>
#include <vector>

namespace gofree {
namespace interp {

/// The interpreter. One instance runs one program against one heap.
class Interp : public rt::RootScanner {
public:
  Interp(const minigo::Program &Prog, const escape::ProgramAnalysis &Analysis,
         rt::Heap &Heap, InterpOptions Opts = {});
  ~Interp() override;

  /// Runs \p Entry with integer arguments. The entry function's parameters
  /// must all be int.
  RunResult run(const std::string &Entry,
                const std::vector<int64_t> &Args = {});

  // RootScanner: frames, stack objects, deferred args and temps.
  void scanRoots(rt::Heap &H) override;

private:
  enum class Flow : uint8_t { Normal, Return, Break, Continue, Panic, Fault };

  // Statement execution.
  Flow execBlock(const minigo::BlockStmt *B);
  Flow execStmt(const minigo::Stmt *S);
  Flow execVarDecl(const minigo::VarDeclStmt *DS);
  Flow execAssign(const minigo::AssignStmt *AS);

  // Expression evaluation. On fault, sets the core's fault and returns a
  // zero value; callers check via interrupted().
  Value evalExpr(const minigo::Expr *E);
  Value evalAppend(const minigo::AppendExpr *AE);
  Value evalMake(const minigo::MakeExpr *ME);
  Value evalComposite(const minigo::CompositeExpr *CE);

  /// Resolves an lvalue to the address of its storage. Map element lvalues
  /// are handled separately in execAssign.
  uintptr_t evalLvalueAddr(const minigo::Expr *E, const minigo::Type **TyOut);

  // Calls.
  Flow callFunction(const minigo::FuncDecl *Fn, std::vector<Value> Args,
                    std::vector<Value> *Results);
  void runDefers(Frame &F);

  Frame &frame() { return *Core.Frames.back(); }
  void storeValue(uintptr_t Addr, const Value &V) {
    storeValueAt(Core.Heap, Core.Types, Addr, V);
  }

  // Fault, panic-unwinding and fuel handling.
  /// True while a fault or a panic raised inside expression evaluation is
  /// unwinding to the nearest statement.
  bool interrupted() const { return PanicUnwinding || Core.faulted(); }
  /// Converts the pending interruption into a statement-level Flow and
  /// clears the panic-unwinding flag (the panic continues as Flow::Panic).
  Flow unwindStmt();
  /// Records a fault and yields the zero value evaluation returns with it.
  Value fault(std::string_view Msg) {
    Core.fault(Msg);
    return Value{};
  }
  bool burnFuel();

  // Temp rooting around allocation points.
  size_t tempMark() const { return TempRoots.size(); }
  void pushTemp(const Value &V) { TempRoots.push_back(V); }
  void popTemps(size_t Mark) { TempRoots.resize(Mark); }

  EngineCore Core;
  std::vector<Value> TempRoots;
  std::vector<Value> PendingReturn;
  int64_t PendingPanic = 0;
  bool PanicUnwinding = false;
};

} // namespace interp
} // namespace gofree

#endif // GOFREE_INTERP_INTERP_H
