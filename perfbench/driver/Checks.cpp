//===- perfbench/driver/Checks.cpp - Output checks against references -----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <cmath>

using namespace gofree;

namespace perfbench {

std::string checkChecksum(const std::string &What, uint64_t Got,
                          uint64_t Want) {
  if (Got == Want)
    return "";
  return What + ": checksum " + std::to_string(Got) + " != reference " +
         std::to_string(Want);
}

std::string checkTcfreeAccounting(const std::string &What,
                                  const rt::StatsSnapshot &S) {
  uint64_t Accounted = 0;
  for (uint64_t C : S.TcfreeGiveUpsByReason)
    Accounted += C;
  for (uint64_t C : S.FreedCountBySource)
    Accounted += C;
  if (S.TcfreeCalls == Accounted)
    return "";
  return What + ": " + std::to_string(S.TcfreeCalls) +
         " tcfree calls but " + std::to_string(Accounted) +
         " give-ups by reason + frees by source";
}

uint64_t insertedFrees(const rt::StatsSnapshot &S) {
  uint64_t N = 0;
  for (rt::FreeSource Src :
       {rt::FreeSource::TcfreeObject, rt::FreeSource::TcfreeSlice,
        rt::FreeSource::TcfreeMap})
    N += S.FreedCountBySource[(int)Src];
  return N;
}

std::string checkFreesHappen(const std::string &What, uint64_t InsertedFrees) {
  if (InsertedFrees > 0)
    return "";
  return What + ": no object, slice or map was freed by an inserted tcfree";
}

std::string checkReconciles(const std::string &What, double Ratio,
                            double Tolerance) {
  if (std::abs(Ratio - 1.0) <= Tolerance)
    return "";
  return What + ": stages sum to " + std::to_string(Ratio) +
         " x the whole, outside 1 +- " + std::to_string(Tolerance);
}

std::string checkSameStackDecisions(const std::string &What,
                                    const escape::ProgramAnalysis &Go,
                                    const escape::ProgramAnalysis &GoFree) {
  if (Go.SiteOnStack.size() != GoFree.SiteOnStack.size())
    return What + ": " + std::to_string(Go.SiteOnStack.size()) +
           " allocation sites in the Go compile, " +
           std::to_string(GoFree.SiteOnStack.size()) + " in the GoFree one";
  for (size_t I = 0; I < Go.SiteOnStack.size(); ++I)
    if (Go.SiteOnStack[I] != GoFree.SiteOnStack[I])
      return What + ": site " + std::to_string(I) + " is " +
             (GoFree.SiteOnStack[I] ? "stack" : "heap") +
             " under GoFree but " + (Go.SiteOnStack[I] ? "stack" : "heap") +
             " under Go";
  return "";
}

} // namespace perfbench
