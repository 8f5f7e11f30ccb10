//===- perfbench/driver/CompileLoad.cpp - The `compile` workload ----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The six subject sources plus two generated programs, taken through
// compiler::compile and vm::compileProgram; nothing executes, so a runtime
// change should move nothing here. The generated pair splits the
// compiler's two cost centres:
//   * many small functions (400 x 60 statements, ~1.4 MB): mostly frontend;
//   * a few huge functions (4 x 6000 statements, ~1.3 MB): escape solve and
//     lifetime, whose per-function cost is O(N^2) in the function's size.
// Both are drawn from the seed.
//
// A pass compiles the whole corpus once. The first pass of a process is
// its set-up (allocator first touch, lazy initialisation); a process has
// only one, so set-up is measured in several fresh child processes. The
// references are Go-mode compiles: GoFree must make the same stack
// decisions, and each GoFree compile, run at a small argument on the VM,
// must match its Go-mode compile on the tree-walker.
//
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Bench.h"
#include "Checks.h"

#include "vm/Compiler.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gofree;
using compiler::Compilation;
using compiler::CompileMode;

namespace perfbench {

namespace {

/// The printed stage times of a traced pass must land within this share of
/// the same pass's compile time. About 6% of that time is in no stage timer
/// (analyzeProgram's call-graph, tag and decision sweeps, parseAndCheck's
/// teardown; the ratio reads 0.92-0.95), and a pass's ratio moves by a few
/// percent more; missing half of the frontend's time would read about 0.8.
constexpr double ReconcileTolerance = 0.15;
/// peak_rss_mb is read after this many passes, the same on every commit: the frontend leaks memory on every pass, so RSS
/// read at the end would count how many passes fit in the run.
constexpr unsigned RssPasses = 8;
/// Cold passes per run, each in a fresh process; setup_s is their median.
constexpr int ColdSetups = 5;

struct Program {
  std::string Name;
  std::string Source;
  std::string Entry = "main";
  std::vector<int64_t> SmallArgs;
  Compilation C; ///< The latest GoFree compile.
  std::vector<double> WallS;
};

std::vector<Program> makeCorpus(uint64_t Seed) {
  std::vector<Program> P;
  for (const workloads::Workload &W : workloads::subjectWorkloads())
    P.push_back({W.Name, W.Source, W.Entry, W.SmallArgs, {}, {}});
  workloads::SynthOptions Many;
  Many.NumFuncs = 400;
  Many.StmtsPerFunc = 60;
  Many.Seed = Seed;
  P.push_back({"synth_many_small", workloads::synthProgram(Many), "main",
               {2}, {}, {}});
  workloads::SynthOptions Huge;
  Huge.NumFuncs = 4;
  Huge.StmtsPerFunc = 6000;
  Huge.Seed = Seed + 1;
  P.push_back({"synth_few_huge", workloads::synthProgram(Huge), "main",
               {2}, {}, {}});
  return P;
}

/// Runs this program with `--cold-pass` for \p Cfg and returns the time the
/// child prints; negative when it cannot be started or fails.
double coldPassInChild(const Config &Cfg) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return -1;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  std::string Seed = std::to_string(Cfg.Seed);
  std::string Mode = Cfg.Mode == CompileMode::Go ? "go" : "gofree";
  std::vector<std::string> Args = {"perfbench", "--workload", "compile",
                                   "--seed",    Seed,         "--seconds",
                                   "1",         "--trace",    "0",
                                   "--mode",    Mode,         "--cold-pass"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[128];
  ssize_t N;
  while (Rc == 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, (size_t)N);
  close(Pipe[0]);
  if (Rc != 0)
    return -1;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return -1;
  char *End = nullptr;
  double S = std::strtod(Out.c_str(), &End);
  return End != Out.c_str() ? S : -1;
}

void checkAgainstReference(const std::vector<Program> &Corpus, Report &R) {
  for (const Program &P : Corpus) {
    if (!P.C.ok())
      continue;
    Compilation Go = compiler::compile(P.Source, inMode(CompileMode::Go));
    if (!Go.ok()) {
      R.check(P.Name + ": Go-mode compile error: " + Go.Errors);
      continue;
    }
    R.check(checkSameStackDecisions(P.Name, Go.Analysis, P.C.Analysis));
    compiler::ExecOutcome Mine =
        compiler::execute(P.C, P.Entry, P.SmallArgs);
    compiler::ExecOptions Ast;
    Ast.Engine = compiler::ExecEngine::Ast;
    compiler::ExecOutcome Ref =
        compiler::execute(Go, P.Entry, P.SmallArgs, Ast);
    if (!Mine.ok() || !Ref.ok()) {
      R.check(P.Name + ": small run failed: " +
              (Mine.ok() ? Ref.Error : Mine.Error));
      continue;
    }
    R.check(checkChecksum(P.Name + " (small run)", Mine.Run.Checksum,
                          Ref.Run.Checksum));
    R.check(checkTcfreeAccounting(P.Name + " (small run)", Mine.Stats));
  }
}

} // namespace

void runCompile(const Config &Cfg, Report &R) {
  std::vector<Program> Corpus = makeCorpus(Cfg.Seed);
  double Bytes = 0;
  for (const Program &P : Corpus)
    Bytes += (double)P.Source.size();
  auto Compiled = [&](const Program &P) {
    ++R.Attempted;
    if (P.C.ok())
      return;
    R.failOps(1, P.Name + ": compile error: " + P.C.Errors);
  };

  std::vector<double> ColdS;
  for (int I = 0; I < ColdSetups; ++I) {
    double S = coldPassInChild(Cfg);
    if (S < 0) {
      R.check("a cold set-up process failed");
      break;
    }
    ColdS.push_back(S);
  }
  double SetupS = median(ColdS);

  // Traced, each untraced compile runs back to back with the same program
  // compiled layer by layer, so both sides of the overhead and of the
  // reconciliation see the same process state; the layered one goes first
  // on every other pass, so neither side always finds the caches warmed by
  // the other.
  std::vector<Program> Layered;
  if (Cfg.Trace)
    Layered = makeCorpus(Cfg.Seed);
  std::vector<double> PassS, LayerPassS;
  double PeakRss = 0;
  repeatRounds(Cfg.Seconds, RssPasses, PeakRss, [&] {
    bool LayeredFirst = Cfg.Trace && PassS.size() % 2 == 1;
    PassS.push_back(0);
    if (Cfg.Trace)
      LayerPassS.push_back(0);
    for (size_t I = 0; I < Corpus.size(); ++I) {
      auto CompileLayered = [&] {
        Program &L = Layered[I];
        LayerTimes T = compileByLayer(L.Source, L.C, Cfg.Mode);
        Compiled(L);
        reportLayers(R, T);
        LayerPassS.back() += T.stagesS();
      };
      if (LayeredFirst)
        CompileLayered();
      Program &P = Corpus[I];
      double S = compileWhole(P.Source, P.C, Cfg.Mode);
      P.WallS.push_back(S);
      PassS.back() += S;
      Compiled(P);
      if (Cfg.Trace && !LayeredFirst)
        CompileLayered();
    }
  });
  double CompileS = median(PassS);
  double TailS = 0;
  for (const Program &P : Corpus)
    TailS = std::max(TailS, median(P.WallS));

  R.set("setup_s", SetupS);
  R.set("peak_rss_mb", PeakRss);
  R.set("time_ms", CompileS * 1e3);
  R.set("tail_ms", TailS * 1e3);
  R.detail("setup_s", SetupS, "s");
  R.detail("peak_rss_mb", PeakRss, "MB");
  R.detail("compile_s", CompileS, "s");
  R.detail("corpus_mb", Bytes / (1024.0 * 1024.0), "MB");
  for (const Program &P : Corpus)
    R.detail("compile_s." + P.Name, median(P.WallS), "s");
  R.detail("passes", (double)PassS.size(), "count");

  if (Cfg.Trace) {
    finishLayers(R, (unsigned)PassS.size());
    // A compile emits no runtime events; the figures are there so every
    // workload prints the same names.
    R.set("trace.dropped", 0);
    R.set("trace.events", 0);
    // Each pass's stage sum over the same pass's whole compiles, which ran
    // at most seconds apart, so host drift within the run cancels.
    std::vector<double> Ratios;
    for (size_t I = 0; I < PassS.size(); ++I)
      Ratios.push_back(LayerPassS[I] / PassS[I]);
    double Ratio = median(Ratios);
    R.set("trace.overhead_pct", (Ratio - 1) * 100);
    R.set("reconcile.compile_layers_ratio", Ratio);
    R.check(checkReconciles("compile layers", Ratio, ReconcileTolerance));
  }

  checkAgainstReference(Corpus, R);
}

double compileColdPass(const Config &Cfg) {
  std::vector<Program> Corpus = makeCorpus(Cfg.Seed);
  double S = 0;
  for (Program &P : Corpus) {
    S += compileWhole(P.Source, P.C, Cfg.Mode);
    if (!P.C.ok())
      return -1;
  }
  return S;
}

} // namespace perfbench
