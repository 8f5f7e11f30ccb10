//===- perfbench/driver/Subjects.cpp - The `subjects` workload ------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The six table-6 programs at bench size, compiled by the GoFree pipeline
// and executed on the VM with one mutator and the default collector. VM
// execution is nearly all of the time here and GC well under 1%, so this is
// where VM and allocator work shows and where a GC-only change should show
// nothing.
//
// A round executes every subject once, in an order drawn from the seed; the
// seed also adds 0-7 to each subject's size argument. Set-up (compile plus
// bytecode for all six) is under a millisecond, so it is repeated in
// batches and the median batch reported. The reference checksums come from
// a Go-mode compile of each subject run on the tree-walker, after the
// measurement.
//
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Bench.h"
#include "Checks.h"

#include "vm/Compiler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <random>

using namespace gofree;
using compiler::Compilation;
using compiler::CompileMode;
using compiler::ExecOutcome;

namespace perfbench {

namespace {

/// One set-up of all six is under a millisecond, so a set-up sample is the
/// mean of a batch of them. A batch runs before every round, which spreads
/// the samples over the run like the executions they are compared with;
/// setup_s is the median batch.
constexpr int SetupBatch = 20;
/// Events one traced execution can emit (every allocation, free and stack
/// allocation is an event; all six subjects together emit ~2.9Mi); a run
/// that drops any fails.
constexpr size_t TraceCapacity = 4u << 20;
/// peak_rss_mb is read after this many rounds, the same on every commit:
/// RSS grows over the rounds (glibc keeps freed chunks), so RSS read at the
/// end would count how many rounds fit in the run.
constexpr unsigned RssRounds = 4;

struct Subject {
  const workloads::Workload *W = nullptr;
  std::vector<int64_t> Args;
  Compilation C;
  std::vector<double> WallS;
  std::vector<double> PeakHeapMb;
  std::vector<uint64_t> Checksums;
  uint64_t InsertedFrees = 0;
};

std::vector<Subject> makeSubjects(uint64_t Seed) {
  std::vector<Subject> S;
  for (const workloads::Workload &W : workloads::subjectWorkloads()) {
    Subject X;
    X.W = &W;
    X.Args = W.Args;
    X.Args[0] += (int64_t)(Seed % 8);
    S.push_back(std::move(X));
  }
  return S;
}

/// One set-up: compile every subject and build its bytecode. Returns the
/// wall time; leaves each subject's compilation in place.
double setUp(std::vector<Subject> &Subjects, CompileMode Mode, Report &R) {
  double S = 0;
  for (Subject &X : Subjects) {
    S += compileWhole(X.W->Source, X.C, Mode);
    if (!X.C.ok())
      R.check(X.W->Name + ": compile error: " + X.C.Errors);
  }
  return S;
}

/// Runs one execution and records its observables.
ExecOutcome runOne(Subject &S, Report &R,
                   const compiler::ExecOptions &Opts = {}) {
  ExecOutcome O = compiler::execute(S.C, S.W->Entry, S.Args, Opts);
  ++R.Attempted;
  if (!O.ok()) {
    R.failOps(1, S.W->Name + ": " + O.Error);
    return O;
  }
  S.WallS.push_back(O.WallSeconds);
  S.PeakHeapMb.push_back((double)O.Stats.PeakCommitted / (1024.0 * 1024.0));
  S.Checksums.push_back(O.Run.Checksum);
  R.check(checkTcfreeAccounting(S.W->Name, O.Stats));
  S.InsertedFrees += insertedFrees(O.Stats);
  return O;
}

/// Geometric mean and maximum of the per-subject median wall times.
std::pair<double, double> timeAndTail(const std::vector<Subject> &Subjects) {
  std::vector<double> Medians;
  for (const Subject &S : Subjects)
    Medians.push_back(median(S.WallS));
  return {geomean(Medians), *std::max_element(Medians.begin(), Medians.end())};
}

/// Go-mode compile on the tree-walker: the paper's law is that inserted
/// frees change no output, so every measured checksum must equal it.
void checkAgainstReference(const std::vector<Subject> &Subjects, Report &R) {
  for (const Subject &S : Subjects) {
    Compilation Go = compiler::compile(S.W->Source, inMode(CompileMode::Go));
    if (!Go.ok()) {
      R.check(S.W->Name + ": Go-mode compile error: " + Go.Errors);
      continue;
    }
    compiler::ExecOptions Ast;
    Ast.Engine = compiler::ExecEngine::Ast;
    ExecOutcome Ref = compiler::execute(Go, S.W->Entry, S.Args, Ast);
    if (!Ref.ok()) {
      R.check(S.W->Name + ": reference run failed: " + Ref.Error);
      continue;
    }
    for (uint64_t Sum : S.Checksums) {
      std::string Failure = checkChecksum(S.W->Name, Sum, Ref.Run.Checksum);
      if (!Failure.empty()) {
        R.check(Failure);
        break;
      }
    }
  }
}

} // namespace

void runSubjects(const Config &Cfg, Report &R) {
  std::vector<Subject> Subjects = makeSubjects(Cfg.Seed);
  std::vector<double> Setups;
  auto SetUpBatch = [&] {
    double Batch = 0;
    for (int J = 0; J < SetupBatch && R.correct(); ++J)
      Batch += setUp(Subjects, Cfg.Mode, R);
    Setups.push_back(Batch / SetupBatch);
  };
  SetUpBatch();
  if (!R.correct())
    return;

  // Traced, each untraced execution is followed by the same subject's
  // traced one: layer-timed compile, then a run whose every runtime event
  // lands in a sink big enough to drop none. Interleaving puts both sides
  // of the overhead figure in the same process state.
  std::vector<Subject> Traced;
  trace::TraceHub Hub(TraceCapacity);
  trace::TraceSink *Sink = Cfg.Trace ? Hub.makeSink() : nullptr;
  uint64_t Dropped = 0, Events = 0;
  if (Cfg.Trace)
    Traced = makeSubjects(Cfg.Seed);
  auto RunTraced = [&](Subject &T) {
    reportLayers(R, compileByLayer(T.W->Source, T.C, Cfg.Mode));
    if (!T.C.ok()) {
      R.check(T.W->Name + ": compile error: " + T.C.Errors);
      return;
    }
    compiler::ExecOptions Opts;
    Opts.Heap.Trace = Sink;
    ExecOutcome O = runOne(T, R, Opts);
    std::vector<trace::Event> Ev = eventsOf(*Sink);
    Dropped += Sink->dropped();
    Events += Ev.size();
    Sink->clear();
    reportRuntime(R, O.Stats, Ev, "");
    double GcS = (double)O.Stats.GcNanos * 1e-9;
    R.add("vm.exec_s." + T.W->Name, O.WallSeconds - GcS);
    R.add("vm.steps", (double)O.Run.Steps);
    R.add("runtime.tcfree_freed_mb." + T.W->Name,
          (double)O.Stats.tcfreeFreedBytes() / (1024.0 * 1024.0));
    R.add("runtime.gc_cycles." + T.W->Name, (double)O.Stats.GcCycles);
    R.add("runtime.gc_s." + T.W->Name, GcS);
  };
  // Each round runs every subject once, in an order drawn from the seed.
  std::mt19937_64 Rng(Cfg.Seed);
  std::vector<size_t> Order(Subjects.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  double PeakRss = 0;
  unsigned Rounds = repeatRounds(Cfg.Seconds, RssRounds, PeakRss, [&] {
    SetUpBatch();
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      runOne(Subjects[I], R);
      if (Sink)
        RunTraced(Traced[I]);
    }
  });
  auto [RunS, TailS] = timeAndTail(Subjects);
  double PeakHeapMb = 0;
  for (const Subject &S : Subjects)
    PeakHeapMb += median(S.PeakHeapMb);

  R.set("setup_s", median(Setups));
  R.set("peak_rss_mb", PeakRss);
  R.set("time_ms", RunS * 1e3);
  R.set("tail_ms", TailS * 1e3);
  R.detail("setup_s", median(Setups), "s");
  R.detail("peak_rss_mb", PeakRss, "MB");
  R.detail("run_s", RunS, "s");
  R.detail("peak_heap_mb", PeakHeapMb, "MB");
  for (const Subject &S : Subjects)
    R.detail("run_s." + S.W->Name, median(S.WallS), "s");
  R.detail("rounds", Rounds, "count");

  if (Sink) {
    finishLayers(R, Rounds);
    R.set("trace.dropped", (double)Dropped);
    R.set("trace.events", (double)Events);
    R.set("trace.overhead_pct", (timeAndTail(Traced).first / RunS - 1) * 100);
    if (Dropped)
      R.check("trace dropped " + std::to_string(Dropped) + " events");
  }

  // Not every subject frees through inserted calls (badger's and gojson's
  // frees are all of old map buckets), so the check is on the sum.
  uint64_t InsertedFrees = 0;
  for (const Subject &S : Subjects)
    InsertedFrees += S.InsertedFrees;
  if (Cfg.Mode == CompileMode::GoFree)
    R.check(checkFreesHappen("subjects", InsertedFrees));
  checkAgainstReference(Subjects, R);
  if (Sink)
    checkAgainstReference(Traced, R);
}

} // namespace perfbench
