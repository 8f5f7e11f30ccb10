//===- perfbench/driver/Bench.h - Shared benchmark plumbing -----*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads (subjects, compile, serve) share: the run
/// configuration, the metric registry and report, the per-layer compile
/// pipeline timed around each public entry point, and the per-layer
/// runtime figures folded from a heap snapshot and a trace.
///
/// Metric names are fixed here so every workload prints the same set: the
/// end-to-end metrics in an untraced run, the per-layer metrics in a traced
/// one (0 where the workload does no work in that layer). BENCHMARK.json
/// lists the same names; `perfbench --list-metrics` prints them and the
/// self-test compares the two.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_PERFBENCH_BENCH_H
#define GOFREE_PERFBENCH_BENCH_H

#include "compiler/Pipeline.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One invocation: `--seed`, `--seconds`, `--trace`, and `--mode`, which
/// compiles the measured programs like stock Go instead (no inserted frees)
/// for the Go-versus-GoFree comparison of the paper's table 7.
struct Config {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  gofree::compiler::CompileMode Mode = gofree::compiler::CompileMode::GoFree;
};

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics every workload prints in an untraced run.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics every workload prints in a traced run.
const std::vector<MetricDef> &perLayerMetrics();

/// Collects one run's outcome: metric values, the workload-specific detail
/// lines, operation counts, and correctness failures.
class Report {
public:
  /// Sets a registered metric (end-to-end or per-layer); aborts on a name
  /// the registry does not know, which is a benchmark bug.
  void set(const std::string &Name, double Value);
  void add(const std::string &Name, double Value);
  /// Multiplies every metric set so far (and FrontendMb) by \p F.
  void scale(double F);
  double get(const std::string &Name) const;
  /// A workload-specific figure printed before the result line (the
  /// issue-level names such as run_s or busy_p99_ms).
  void detail(const std::string &Name, double Value, const std::string &Unit);
  /// Records a failed correctness check ("" is a pass and is ignored).
  void check(const std::string &Failure);
  /// Records \p Count operations that failed outright (a compile error, a
  /// runtime fault): they count in Failed, and the checks speak only of the
  /// operations that did not fail.
  void failOps(uint64_t Count, const std::string &Why);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Source megabytes behind the minigo.* times (for minigo.mb_per_s).
  double FrontendMb = 0;
  bool correct() const { return Failures.empty(); }

  /// Prints the detail lines, the failures, and the one-line JSON result
  /// with the metrics of the run's kind.
  void print(bool Traced) const;

private:
  std::map<std::string, double> Values;
  std::vector<std::string> Details;
  std::vector<std::string> Failures;
  std::vector<std::string> FailedOps;
};

/// Compile options for \p M with every other knob at its default.
inline gofree::compiler::CompileOptions
inMode(gofree::compiler::CompileMode M) {
  gofree::compiler::CompileOptions O;
  O.Mode = M;
  return O;
}

using Clock = std::chrono::steady_clock;
inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Runs \p Round until \p Seconds have passed and at least \p MinRounds
/// rounds have run; returns the number of rounds. \p RssMb is read right
/// after round \p MinRounds, so peak_rss_mb measures the same work on every
/// commit however many rounds fit in the run.
template <typename Fn>
unsigned repeatRounds(double Seconds, unsigned MinRounds, double &RssMb,
                      Fn &&Round) {
  unsigned Rounds = 0;
  auto T0 = Clock::now();
  do {
    Round();
    if (++Rounds == MinRounds)
      RssMb = peakRssMb();
  } while (Rounds < MinRounds || secondsSince(T0) < Seconds);
  return Rounds;
}

/// Per-layer cost of compiling one program: the minigo and escape stages
/// from parseAndCheck's and analyzeProgram's own stage timers, instrument
/// and vm compile timed around insertFrees and compileProgram.
struct LayerTimes {
  double LexS = 0, ParseS = 0, SemaS = 0;
  double BuildS = 0, SolveS = 0, LifetimeS = 0;
  double InstrumentS = 0, VmCompileS = 0;
  uint64_t SourceBytes = 0, RootWalks = 0, Relaxations = 0;
  uint64_t StackSites = 0, ToFreeVars = 0, Frees = 0, SkippedUnsafeTail = 0;
  uint64_t CodeSize = 0;

  /// The sum of the printed stage times (minigo.*_s, escape.*_s,
  /// instrument.s, vm.compile_s), which the compile workload reconciles
  /// with compile_s.
  double stagesS() const {
    return LexS + ParseS + SemaS + BuildS + SolveS + LifetimeS + InstrumentS +
           VmCompileS;
  }
};

/// compiler::compile in mode \p M plus vm::compileProgram: what a user of
/// the library runs before executing. Returns the wall time of those two
/// calls; the previous contents of \p Result are released after the clock
/// stops, as in compileByLayer, so the two time the same work.
double compileWhole(const std::string &Source,
                    gofree::compiler::Compilation &Result,
                    gofree::compiler::CompileMode M);

/// compiler::compile's passes in mode \p M, called one layer at a time:
/// minigo::parseAndCheck, escape::analyzeProgram, instrument::insertFrees
/// (GoFree only), then vm::compileProgram. Fills \p Out (which execute()
/// accepts like any other compilation) and returns the timings; Out.ok() is
/// false on a frontend error.
LayerTimes compileByLayer(const std::string &Source,
                          gofree::compiler::Compilation &Out,
                          gofree::compiler::CompileMode M);

/// Adds one compile's layer figures to the report's per-layer metrics.
void reportLayers(Report &R, const LayerTimes &L);

/// Adds one run's runtime figures (heap counters plus the traced GC phase
/// times) to the per-layer metrics, each name suffixed with \p Suffix
/// (".busy" for serve's higher rate).
void reportRuntime(Report &R, const gofree::rt::StatsSnapshot &S,
                   const std::vector<gofree::trace::Event> &Events,
                   const std::string &Suffix);

/// Turns the per-layer sums of \p Rounds traced rounds into per-round
/// means and derives the rate metrics (minigo.mb_per_s, vm.ns_per_step).
/// Call before setting the trace.* and reconcile.* figures, which are not
/// per round.
void finishLayers(Report &R, unsigned Rounds);

/// Trace events of one sink, in order.
std::vector<gofree::trace::Event> eventsOf(const gofree::trace::TraceSink &S);

// The workloads. Each repeats whole rounds for Cfg.Seconds (and at least
// the rounds peak_rss_mb is read after) and fills \p R; traced, every
// operation of a round also runs once more with tracing on.
void runSubjects(const Config &Cfg, Report &R);
void runCompile(const Config &Cfg, Report &R);
void runServe(const Config &Cfg, Report &R);

/// One pass over the compile corpus of \p Cfg, the first compile work of
/// this process: the compile workload's set-up, which it measures in fresh
/// child processes (`perfbench --cold-pass`). Returns the wall time, or a
/// negative value on a compile error.
double compileColdPass(const Config &Cfg);

} // namespace perfbench

#endif // GOFREE_PERFBENCH_BENCH_H
