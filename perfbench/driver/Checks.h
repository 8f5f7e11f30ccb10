//===- perfbench/driver/Checks.h - Checks against references ---*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness checks every workload runs on its measured outputs. Each
/// compares against a reference computed apart from the measured path (a
/// Go-mode compile, the tree-walking interpreter, a single-worker serve
/// run), never against stored output. Each returns "" when the check holds
/// and a one-line reason otherwise, so tests can hand them wrong references
/// and see them fail.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_PERFBENCH_CHECKS_H
#define GOFREE_PERFBENCH_CHECKS_H

#include "escape/Analysis.h"
#include "runtime/HeapStats.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// A measured checksum equals its reference.
std::string checkChecksum(const std::string &What, uint64_t Got,
                          uint64_t Want);

/// Every tcfree call lands in exactly one outcome: a give-up (by reason,
/// mock included) or a free (by source).
std::string checkTcfreeAccounting(const std::string &What,
                                  const gofree::rt::StatsSnapshot &S);

/// Objects, slices and maps freed by compiler-inserted tcfree calls; frees
/// of old map buckets on growth come from the runtime and do not count.
uint64_t insertedFrees(const gofree::rt::StatsSnapshot &S);

/// GoFree runs freed memory through compiler-inserted tcfree calls
/// (\p InsertedFrees, summed with insertedFrees). Without it a change that
/// stops inserting frees, or a tcfree that always gives up, would pass
/// every other check.
std::string checkFreesHappen(const std::string &What, uint64_t InsertedFrees);

/// The printed compile stage times add up to the measured whole: their
/// ratio \p Ratio (stage sum over whole) is within \p Tolerance of 1.
std::string checkReconciles(const std::string &What, double Ratio,
                            double Tolerance);

/// Go and GoFree compiles of one program make the same stack-allocation
/// decision at every site (GoFree only adds frees).
std::string
checkSameStackDecisions(const std::string &What,
                        const gofree::escape::ProgramAnalysis &Go,
                        const gofree::escape::ProgramAnalysis &GoFree);

} // namespace perfbench

#endif // GOFREE_PERFBENCH_CHECKS_H
