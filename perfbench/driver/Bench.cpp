//===- perfbench/driver/Bench.cpp - Shared benchmark plumbing -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "escape/Analysis.h"
#include "instrument/FreeInserter.h"
#include "minigo/Frontend.h"
#include "vm/Compiler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>

using namespace gofree;

namespace perfbench {

namespace {

/// Metric names with a reason suffix use underscores ("gc_running").
std::string reasonSuffix(int Reason) {
  std::string S = trace::giveUpReasonName((trace::GiveUpReason)Reason);
  std::replace(S.begin(), S.end(), '-', '_');
  return S;
}

/// Runtime metrics reported once per rate on serve: the plain name for the
/// lower rate (and for subjects), the ".busy" name for the higher rate.
std::vector<MetricDef> runtimeMetrics() {
  std::vector<MetricDef> M = {
      {"runtime.allocs", "count"},
      {"runtime.alloc_mb", "MB"},
      {"runtime.stack_allocs", "count"},
      {"runtime.tcfree_calls", "count"},
      {"runtime.tcfree_freed_mb", "MB"},
  };
  for (int I = 0; I < trace::NumGiveUpReasons; ++I)
    M.push_back({"runtime.tcfree_giveups." + reasonSuffix(I), "count"});
  M.insert(M.end(), {
                        {"runtime.gc_cycles", "count"},
                        {"runtime.gc_s", "s"},
                        {"runtime.gc_mark_s", "s"},
                        {"runtime.gc_pauses", "count"},
                        {"runtime.gc_pause_ms", "ms"},
                        {"runtime.gc_max_pause_ms", "ms"},
                        {"runtime.gc_conc_cycles", "count"},
                        {"runtime.gc_assists", "count"},
                        {"runtime.gc_lazy_sweeps", "count"},
                        {"runtime.peak_live_mb", "MB"},
                        {"runtime.peak_heap_mb", "MB"},
                        {"runtime.flip_initial_ms", "ms"},
                        {"runtime.flip_final_ms", "ms"},
                        {"runtime.conc_mark_ms", "ms"},
                        {"runtime.mark_worker_ms", "ms"},
                        {"workloads.park_ms", "ms"},
                        {"workloads.parks", "count"},
                        {"workloads.assist_ms", "ms"},
                        {"workloads.stalled_requests", "count"},
                    });
  return M;
}

std::vector<MetricDef> buildPerLayer() {
  std::vector<MetricDef> M = {
      {"minigo.lex_s", "s"},
      {"minigo.parse_s", "s"},
      {"minigo.sema_s", "s"},
      {"minigo.mb_per_s", "MB/s"},
      {"escape.build_s", "s"},
      {"escape.solve_s", "s"},
      {"escape.lifetime_s", "s"},
      {"escape.root_walks", "count"},
      {"escape.relaxations", "count"},
      {"escape.stack_sites", "count"},
      {"escape.to_free_vars", "count"},
      {"instrument.s", "s"},
      {"instrument.frees", "count"},
      {"instrument.skipped_unsafe_tail", "count"},
      {"vm.compile_s", "s"},
      {"vm.code_size", "words"},
      {"vm.steps", "count"},
      {"vm.ns_per_step", "ns"},
  };
  for (const workloads::Workload &W : workloads::subjectWorkloads()) {
    M.push_back({"vm.exec_s." + W.Name, "s"});
    M.push_back({"runtime.tcfree_freed_mb." + W.Name, "MB"});
    M.push_back({"runtime.gc_cycles." + W.Name, "count"});
    M.push_back({"runtime.gc_s." + W.Name, "s"});
  }
  for (const MetricDef &D : runtimeMetrics()) {
    M.push_back(D);
    M.push_back({D.Name + ".busy", D.Unit});
  }
  M.push_back({"trace.dropped", "count"});
  M.push_back({"trace.events", "count"});
  M.push_back({"trace.overhead_pct", "%"});
  M.push_back({"reconcile.compile_layers_ratio", "ratio"});
  return M;
}

const MetricDef *findMetric(const std::string &Name) {
  for (const auto *List : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef &D : *List)
      if (D.Name == Name)
        return &D;
  return nullptr;
}

double nanosToS(uint64_t N) { return (double)N * 1e-9; }
double nanosToMs(uint64_t N) { return (double)N * 1e-6; }
double bytesToMb(uint64_t B) { return (double)B / (1024.0 * 1024.0); }

} // namespace

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> M = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"time_ms", "ms"},
      {"tail_ms", "ms"},
  };
  return M;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> M = buildPerLayer();
  return M;
}

void Report::set(const std::string &Name, double Value) {
  if (!findMetric(Name)) {
    std::fprintf(stderr, "perfbench: unregistered metric '%s'\n",
                 Name.c_str());
    std::abort();
  }
  Values[Name] = Value;
}

void Report::add(const std::string &Name, double Value) {
  set(Name, get(Name) + Value);
}

void Report::scale(double F) {
  for (auto &[Name, Value] : Values)
    Value *= F;
  FrontendMb *= F;
}

double Report::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0.0 : It->second;
}

void Report::detail(const std::string &Name, double Value,
                    const std::string &Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-26s %14.6f %s", Name.c_str(), Value,
                Unit.c_str());
  Details.push_back(Buf);
}

void Report::check(const std::string &Failure) {
  if (!Failure.empty())
    Failures.push_back(Failure);
}

void Report::failOps(uint64_t Count, const std::string &Why) {
  Failed += Count;
  FailedOps.push_back(Why);
}

void Report::print(bool Traced) const {
  for (const std::string &D : Details)
    std::printf("%s\n", D.c_str());
  for (const std::string &F : FailedOps)
    std::printf("FAILED OPERATION: %s\n", F.c_str());
  for (const std::string &F : Failures)
    std::printf("FAILED CHECK: %s\n", F.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  const char *Sep = "";
  for (const MetricDef &D : Traced ? perLayerMetrics() : endToEndMetrics()) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", Sep,
                D.Name.c_str(), get(D.Name), D.Unit.c_str());
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

double compileWhole(const std::string &Source, compiler::Compilation &Result,
                    compiler::CompileMode Mode) {
  auto T0 = Clock::now();
  compiler::Compilation C = compiler::compile(Source, inMode(Mode));
  vm::Module M;
  if (C.ok())
    M = vm::compileProgram(*C.Prog);
  double S = secondsSince(T0);
  Result = std::move(C);
  return S;
}

LayerTimes compileByLayer(const std::string &Source,
                          compiler::Compilation &Result,
                          compiler::CompileMode Mode) {
  LayerTimes L;
  L.SourceBytes = Source.size();
  compiler::Compilation Out;
  Out.Mode = Mode;

  DiagSink Diags;
  minigo::FrontendTimes FT;
  Out.Prog = minigo::parseAndCheck(Source, Diags, &FT);
  L.LexS = nanosToS(FT.LexNanos);
  L.ParseS = nanosToS(FT.ParseNanos);
  L.SemaS = nanosToS(FT.SemaNanos);
  if (!Out.Prog) {
    Out.Errors = Diags.dump();
    Result = std::move(Out);
    return L;
  }

  escape::AnalysisOptions AO;
  if (Mode == compiler::CompileMode::Go)
    AO.Targets = escape::FreeTargets::None;
  Out.Analysis = escape::analyzeProgram(*Out.Prog, AO);
  const escape::SolverStats &St = Out.Analysis.Stats;
  L.BuildS = nanosToS(St.BuildNanos);
  L.SolveS = nanosToS(St.PropagateNanos);
  L.LifetimeS = nanosToS(St.LifetimeNanos);
  L.RootWalks = St.RootWalks;
  L.Relaxations = St.Relaxations;
  L.StackSites = (uint64_t)std::count(Out.Analysis.SiteOnStack.begin(),
                                      Out.Analysis.SiteOnStack.end(), true);
  L.ToFreeVars = Out.Analysis.ToFreeVars.size();

  if (Mode == compiler::CompileMode::GoFree) {
    auto T0 = Clock::now();
    Out.Instr = instrument::insertFrees(*Out.Prog, Out.Analysis);
    L.InstrumentS = secondsSince(T0);
  }
  L.Frees = Out.Instr.total();
  L.SkippedUnsafeTail = Out.Instr.SkippedUnsafeTail;

  auto T0 = Clock::now();
  vm::Module M = vm::compileProgram(*Out.Prog);
  L.VmCompileS = secondsSince(T0);
  for (const vm::Chunk &C : M.Chunks)
    L.CodeSize += C.Code.size();
  Result = std::move(Out);
  return L;
}

void reportLayers(Report &R, const LayerTimes &L) {
  R.add("minigo.lex_s", L.LexS);
  R.add("minigo.parse_s", L.ParseS);
  R.add("minigo.sema_s", L.SemaS);
  R.add("escape.build_s", L.BuildS);
  R.add("escape.solve_s", L.SolveS);
  R.add("escape.lifetime_s", L.LifetimeS);
  R.add("escape.root_walks", (double)L.RootWalks);
  R.add("escape.relaxations", (double)L.Relaxations);
  R.add("escape.stack_sites", (double)L.StackSites);
  R.add("escape.to_free_vars", (double)L.ToFreeVars);
  R.add("instrument.s", L.InstrumentS);
  R.add("instrument.frees", (double)L.Frees);
  R.add("instrument.skipped_unsafe_tail", (double)L.SkippedUnsafeTail);
  R.add("vm.compile_s", L.VmCompileS);
  R.add("vm.code_size", (double)L.CodeSize);
  R.FrontendMb += bytesToMb(L.SourceBytes);
}

void finishLayers(Report &R, unsigned Rounds) {
  R.scale(Rounds ? 1.0 / Rounds : 0.0);
  double FrontS =
      R.get("minigo.lex_s") + R.get("minigo.parse_s") + R.get("minigo.sema_s");
  R.set("minigo.mb_per_s", FrontS > 0 ? R.FrontendMb / FrontS : 0.0);
  double ExecS = 0;
  for (const workloads::Workload &W : workloads::subjectWorkloads())
    ExecS += R.get("vm.exec_s." + W.Name);
  double Steps = R.get("vm.steps");
  R.set("vm.ns_per_step", Steps > 0 ? ExecS * 1e9 / Steps : 0.0);
}

std::vector<trace::Event> eventsOf(const trace::TraceSink &S) {
  std::vector<trace::Event> E;
  E.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I)
    E.push_back(S[I]);
  return E;
}

void reportRuntime(Report &R, const rt::StatsSnapshot &S,
                   const std::vector<trace::Event> &Events,
                   const std::string &Suffix) {
  auto Add = [&](const char *Name, double V) {
    R.add(std::string(Name) + Suffix, V);
  };
  uint64_t StackAllocs = 0;
  for (uint64_t C : S.StackAllocCountByCat)
    StackAllocs += C;
  Add("runtime.allocs", (double)S.AllocCount);
  Add("runtime.alloc_mb", bytesToMb(S.AllocedBytes));
  Add("runtime.stack_allocs", (double)StackAllocs);
  Add("runtime.tcfree_calls", (double)S.TcfreeCalls);
  Add("runtime.tcfree_freed_mb", bytesToMb(S.tcfreeFreedBytes()));
  for (int I = 0; I < trace::NumGiveUpReasons; ++I)
    R.add("runtime.tcfree_giveups." + reasonSuffix(I) + Suffix,
          (double)S.TcfreeGiveUpsByReason[I]);
  Add("runtime.gc_cycles", (double)S.GcCycles);
  Add("runtime.gc_s", nanosToS(S.GcNanos));
  Add("runtime.gc_mark_s", nanosToS(S.GcMarkNanos));
  Add("runtime.gc_pauses", (double)S.GcPauses);
  Add("runtime.gc_pause_ms", nanosToMs(S.GcPauseNanos));
  Add("runtime.gc_max_pause_ms", nanosToMs(S.GcMaxPauseNanos));
  Add("runtime.gc_conc_cycles", (double)S.GcConcCycles);
  Add("runtime.gc_assists", (double)S.GcAssists);
  Add("runtime.gc_lazy_sweeps", (double)S.GcSpansSweptLazy);
  Add("runtime.peak_live_mb", bytesToMb(S.PeakLive));
  Add("runtime.peak_heap_mb", bytesToMb(S.PeakCommitted));

  uint64_t FlipInitial = 0, FlipFinal = 0, ConcMark = 0, MarkWorker = 0;
  for (const trace::Event &E : Events) {
    if (E.Kind == trace::EventKind::GcStwFlip)
      (E.Arg == 0 ? FlipInitial : FlipFinal) += E.V0;
    else if (E.Kind == trace::EventKind::GcConcMark)
      ConcMark += E.V0;
    else if (E.Kind == trace::EventKind::GcMarkWorker)
      MarkWorker += E.V0;
  }
  Add("runtime.flip_initial_ms", nanosToMs(FlipInitial));
  Add("runtime.flip_final_ms", nanosToMs(FlipFinal));
  Add("runtime.conc_mark_ms", nanosToMs(ConcMark));
  Add("runtime.mark_worker_ms", nanosToMs(MarkWorker));
}

} // namespace perfbench
