//===- perfbench/driver/Serve.cpp - The `serve` workload ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Open-loop workloads::runServeSim: Poisson arrivals, Zipf(0.99) sessions,
// the `mix` handler profile, GoFree mode, the default collector (concurrent
// marksweep, one mark worker) and 2 mutator workers. The session cache has
// 256Ki entries (~33 MB live), which makes each cycle's stop-the-world flips
// long enough to land on request latency: p50 is VM service time, p99 is
// GC. Each round serves the same seeded request stream once at a lower and
// once at a higher offered rate, so queueing behind a pause shows; the
// percentiles pool every request served at one rate.
//
// The reference checksum comes from the same seed served by one worker in
// Go mode with concurrent marking off and no arrival schedule: the stream's
// handler checksums do not depend on mode, collector or timing.
//
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Bench.h"
#include "Checks.h"

#include "workloads/ServeSim.h"
#include "workloads/Workloads.h"

using namespace gofree;
using workloads::ServeSimOptions;
using workloads::ServeSimResult;

namespace perfbench {

namespace {

constexpr uint64_t RequestsPerRun = 3000;
constexpr double LowRps = 1000;
constexpr double BusyRps = 3000;
constexpr uint64_t CacheSlots = 256u << 10;
/// A request emits about two hundred trace events (one per allocation, free
/// and stack allocation), so each worker's sink holds a whole run's worth
/// even if one worker served every request.
constexpr size_t TraceCapacityPerSink = RequestsPerRun * 400;
/// peak_rss_mb is read after this many rounds, the same on every commit,
/// so it does not count how many rounds fit in the run.
constexpr unsigned RssRounds = 3;

ServeSimOptions options(const Config &Cfg, double Rps) {
  ServeSimOptions O;
  O.Seed = Cfg.Seed;
  O.Workers = 2;
  O.Requests = RequestsPerRun;
  O.OfferedRps = Rps;
  O.CacheSlots = CacheSlots;
  O.Profile = "mix";
  O.Mode = Cfg.Mode;
  return O;
}

/// Everything kept from the runs at one offered rate.
struct RateRuns {
  double Rps = 0;
  std::vector<uint64_t> LatencyNs; ///< Every request, pooled over runs.
  std::vector<double> PeakHeapMb;
  std::vector<uint64_t> Checksums;
};

/// One serve-sim run; returns its set-up time (call time minus the serving
/// window).
double serveOnce(const ServeSimOptions &O, RateRuns &Runs, Report &R,
                 ServeSimResult *Out = nullptr) {
  auto T0 = Clock::now();
  ServeSimResult Res = workloads::runServeSim(O);
  double CallS = secondsSince(T0);
  R.Attempted += O.Requests;
  if (!Res.ok()) {
    R.failOps(O.Requests, "serve at " + std::to_string((int)O.OfferedRps) +
                              " rps: " + Res.Error);
  } else {
    Runs.LatencyNs.insert(Runs.LatencyNs.end(), Res.LatencyNs.begin(),
                          Res.LatencyNs.end());
    Runs.PeakHeapMb.push_back((double)Res.Stats.PeakCommitted /
                              (1024.0 * 1024.0));
    Runs.Checksums.push_back(Res.Checksum);
    R.check(checkTcfreeAccounting("serve", Res.Stats));
    if (O.Mode == compiler::CompileMode::GoFree)
      R.check(checkFreesHappen("serve", insertedFrees(Res.Stats)));
  }
  double SetupS = CallS - Res.WallSeconds;
  if (Out)
    *Out = std::move(Res);
  return SetupS;
}

double pctMs(const std::vector<uint64_t> &V, double Q, Report &R,
             const char *What) {
  if (!tailHasSamples(V.size(), Q))
    R.check(std::string(What) + ": " + std::to_string(V.size()) +
            " requests leave fewer than 10 beyond the percentile");
  return (double)ServeSimResult::percentileNs(V, Q) * 1e-6;
}

} // namespace

void runServe(const Config &Cfg, Report &R) {
  RateRuns Low{LowRps, {}, {}, {}}, Busy{BusyRps, {}, {}, {}};
  RateRuns TLow{LowRps, {}, {}, {}}, TBusy{BusyRps, {}, {}, {}};
  std::vector<double> Setups;
  uint64_t Dropped = 0, Events = 0;
  // Traced, each untraced run is followed by the same run with a trace hub
  // attached, so both sides of the overhead see the same process state.
  auto RunAt = [&](double Rps, const char *Sfx) {
    bool IsLow = Rps == LowRps;
    Setups.push_back(serveOnce(options(Cfg, Rps), IsLow ? Low : Busy, R));
    if (!Cfg.Trace)
      return;
    // The handler profiles' compile, layer by layer, as serve-sim's set-up
    // does it (once per round).
    if (IsLow)
      for (const char *Name : {"hugo", "gojson", "badger"}) {
        compiler::Compilation C;
        reportLayers(R,
                     compileByLayer(workloads::subjectWorkload(Name).Source, C,
                                    Cfg.Mode));
      }
    trace::TraceHub Hub(TraceCapacityPerSink);
    ServeSimOptions O = options(Cfg, Rps);
    O.Hub = &Hub;
    ServeSimResult Res;
    serveOnce(O, IsLow ? TLow : TBusy, R, &Res);
    std::vector<trace::Event> Ev = Hub.merge();
    Dropped += Hub.dropped();
    Events += Ev.size();
    std::string Suffix = Sfx;
    reportRuntime(R, Res.Stats, Ev, Suffix);
    uint64_t Stalled = 0;
    for (uint64_t S : Res.StallNs)
      Stalled += S > 0;
    R.add("workloads.park_ms" + Suffix, (double)Res.GcParkNanos * 1e-6);
    R.add("workloads.parks" + Suffix, (double)Res.GcParks);
    R.add("workloads.assist_ms" + Suffix, (double)Res.GcAssistNanos * 1e-6);
    R.add("workloads.stalled_requests" + Suffix, (double)Stalled);
  };
  double PeakRss = 0;
  unsigned Rounds = repeatRounds(Cfg.Seconds, RssRounds, PeakRss, [&] {
    RunAt(LowRps, "");
    RunAt(BusyRps, ".busy");
  });

  double P50 = pctMs(Low.LatencyNs, 0.50, R, "p50_ms");
  double P99 = pctMs(Low.LatencyNs, 0.99, R, "p99_ms");
  double BusyP50 = pctMs(Busy.LatencyNs, 0.50, R, "busy_p50_ms");
  double BusyP99 = pctMs(Busy.LatencyNs, 0.99, R, "busy_p99_ms");
  std::vector<double> Heaps = Low.PeakHeapMb;
  Heaps.insert(Heaps.end(), Busy.PeakHeapMb.begin(), Busy.PeakHeapMb.end());

  R.set("setup_s", median(Setups));
  R.set("peak_rss_mb", PeakRss);
  R.set("time_ms", P50);
  R.set("tail_ms", BusyP99);
  R.detail("setup_s", median(Setups), "s");
  R.detail("peak_rss_mb", PeakRss, "MB");
  R.detail("peak_heap_mb", median(Heaps), "MB");
  R.detail("p50_ms", P50, "ms");
  R.detail("p99_ms", P99, "ms");
  R.detail("busy_p50_ms", BusyP50, "ms");
  R.detail("busy_p99_ms", BusyP99, "ms");
  R.detail("requests", (double)(Low.LatencyNs.size() + Busy.LatencyNs.size()),
           "count");
  R.detail("rounds", Rounds, "count");

  if (Cfg.Trace) {
    finishLayers(R, Rounds);
    R.set("trace.dropped", (double)Dropped);
    R.set("trace.events", (double)Events);
    double TracedP99 = pctMs(TBusy.LatencyNs, 0.99, R, "traced busy_p99_ms");
    R.set("trace.overhead_pct", (TracedP99 / BusyP99 - 1) * 100);
    if (Dropped)
      R.check("trace dropped " + std::to_string(Dropped) + " events");
  }

  // The reference: one worker, Go mode, stop-the-world marking, closed loop.
  ServeSimOptions RefOpts = options(Cfg, 0);
  RefOpts.Workers = 1;
  RefOpts.Mode = compiler::CompileMode::Go;
  RefOpts.Heap.Gc.Concurrent = false;
  ServeSimResult Ref = workloads::runServeSim(RefOpts);
  if (!Ref.ok()) {
    R.check("reference serve run failed: " + Ref.Error);
    return;
  }
  for (const RateRuns *Runs : {&Low, &Busy, &TLow, &TBusy})
    for (uint64_t Sum : Runs->Checksums) {
      std::string Failure = checkChecksum(
          "serve at " + std::to_string((int)Runs->Rps) + " rps", Sum,
          Ref.Checksum);
      if (!Failure.empty()) {
        R.check(Failure);
        break;
      }
    }
}

} // namespace perfbench
