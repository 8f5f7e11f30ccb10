//===- perfbench/driver/Main.cpp - Benchmark entry point ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// perfbench --workload subjects|compile|serve --seed N --seconds S
//           --trace 0|1 [--mode gofree|go] [--git-sha SHA]
// perfbench --list-metrics
// perfbench --workload compile --seed N --seconds S --trace 0 --cold-pass
//
// Prints a host/build stamp, the workload's own figures, and as its last
// line one JSON object: correct, attempted, failed, and the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 0 when
// every check passed, 1 when one failed, 2 on a usage error. With
// --cold-pass it prints only the time of one pass over the compile corpus;
// the compile workload runs it in fresh processes to measure its set-up.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compiler/Driver.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using gofree::compiler::CompileMode;

namespace {

/// The processor's brand string, read with cpuid (no file access).
std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    unsigned Regs[12];
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[I * 4], &Regs[I * 4 + 1],
                  &Regs[I * 4 + 2], &Regs[I * 4 + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S = Brand;
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void printStamp(const std::string &Workload, const Config &Cfg,
                const std::string &Sha) {
  double Load[3] = {-1, -1, -1};
  getloadavg(Load, 3);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d mode=%s\n",
              Workload.c_str(), (unsigned long long)Cfg.Seed, Cfg.Seconds,
              Cfg.Trace ? 1 : 0,
              gofree::compiler::driver::legName(Cfg.Mode));
  std::printf("host cpu=\"%s\" hw_threads=%u loadavg=%.2f,%.2f,%.2f\n",
              cpuModel().c_str(), std::thread::hardware_concurrency(),
              Load[0], Load[1], Load[2]);
  std::printf("build type=%s compiler=\"%s\" git_sha=%s\n",
              PERFBENCH_BUILD_TYPE, compilerName().c_str(), Sha.c_str());
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload subjects|compile|serve --seed N "
               "--seconds S --trace 0|1 [--mode gofree|go] "
               "[--git-sha SHA]\n"
               "       perfbench --list-metrics\n"
               "       perfbench --workload compile --seed N --seconds S "
               "--trace 0 --cold-pass\n",
               Why);
  return 2;
}

bool parseSeed(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(S, &End, 10);
  return *S >= '0' && *S <= '9' && End != S && *End == '\0' && errno == 0;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Sha = "unknown";
  Config Cfg;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  bool ColdPass = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--cold-pass") {
      ColdPass = true;
      continue;
    }
    if (A == "--list-metrics") {
      for (const MetricDef &D : endToEndMetrics())
        std::printf("end_to_end %s %s\n", D.Name.c_str(), D.Unit.c_str());
      for (const MetricDef &D : perLayerMetrics())
        std::printf("per_layer %s %s\n", D.Name.c_str(), D.Unit.c_str());
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    double X = 0;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--git-sha") {
      Sha = V;
    } else if (A == "--mode" && (std::strcmp(V, "go") == 0 ||
                                 std::strcmp(V, "gofree") == 0)) {
      Cfg.Mode = std::strcmp(V, "go") == 0 ? CompileMode::Go
                                           : CompileMode::GoFree;
    } else if (A == "--seed" && parseSeed(V, Cfg.Seed)) {
      HaveSeed = true;
    } else if (A == "--seconds" && parseNumber(V, X) && X > 0 && X <= 3600) {
      Cfg.Seconds = X;
      HaveSeconds = true;
    } else if (A == "--trace" &&
               (std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0)) {
      Cfg.Trace = V[0] == '1';
      HaveTrace = true;
    } else {
      return usage(("bad argument " + A + " " + V).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");

  void (*Run)(const Config &, Report &) = nullptr;
  if (Workload == "subjects")
    Run = runSubjects;
  else if (Workload == "compile")
    Run = runCompile;
  else if (Workload == "serve")
    Run = runServe;
  else
    return usage(("unknown workload '" + Workload + "'").c_str());

  if (ColdPass) {
    if (Run != runCompile)
      return usage("--cold-pass is for the compile workload");
    double S = compileColdPass(Cfg);
    if (S < 0)
      return 1;
    std::printf("%.9f\n", S);
    return 0;
  }

  printStamp(Workload, Cfg, Sha);
  std::fflush(stdout);
  Report R;
  Run(Cfg, R);
  R.print(Cfg.Trace);
  return R.correct() ? 0 : 1;
}
