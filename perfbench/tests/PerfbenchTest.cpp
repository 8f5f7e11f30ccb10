//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests ------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The arithmetic the benchmark reports with, and every correctness check
// shown to fail when handed a wrong reference (a check that cannot fail
// proves nothing).
//
//===----------------------------------------------------------------------===//

#include "Arith.h"
#include "Bench.h"
#include "Checks.h"

#include "compiler/Pipeline.h"
#include "workloads/ServeSim.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;
using namespace gofree;

TEST(ArithTest, PercentileRankMatchesServeSim) {
  // The benchmark's guard and serve-sim's percentile must pick the same
  // sample, or "10 beyond p99" would be counted against the wrong rank.
  for (size_t N : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 999u, 1000u, 3001u}) {
    std::vector<uint64_t> V(N);
    for (size_t I = 0; I < N; ++I)
      V[I] = I + 1; // Sample k has value k, so the value is the rank.
    for (double Q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0})
      EXPECT_EQ(percentileRank(N, Q),
                workloads::ServeSimResult::percentileNs(V, Q))
          << "N=" << N << " Q=" << Q;
  }
  EXPECT_EQ(percentileRank(0, 0.5), 0u);
  EXPECT_EQ(percentileRank(2, 0.5), 1u);
  EXPECT_EQ(percentileRank(3, 0.5), 2u);
  EXPECT_EQ(percentileRank(100, 0.99), 99u);
}

TEST(ArithTest, TailGuardNeedsTenBeyond) {
  // p99 of 1000 is rank 990: exactly 10 beyond.
  EXPECT_TRUE(tailHasSamples(1000, 0.99));
  EXPECT_FALSE(tailHasSamples(999, 0.99));
  EXPECT_FALSE(tailHasSamples(100, 0.99));
  EXPECT_FALSE(tailHasSamples(0, 0.99));
  EXPECT_TRUE(tailHasSamples(20, 0.5));
  EXPECT_FALSE(tailHasSamples(19, 0.5));
  EXPECT_TRUE(tailHasSamples(10000, 0.999));
  EXPECT_FALSE(tailHasSamples(9999, 0.999));
}

TEST(ArithTest, MedianAndGeomean) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3}), 3.0);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1, 10, 100}), 10.0, 1e-12);
  EXPECT_NEAR(geomean({0.5, 0.5, 0.5}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({1, 0, 4}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1, -2}), 0.0);
}

TEST(ChecksTest, ChecksumFailsOnWrongReference) {
  EXPECT_EQ(checkChecksum("x", 42, 42), "");
  EXPECT_NE(checkChecksum("x", 42, 43), "");
}

TEST(ChecksTest, TcfreeAccountingFailsOnLeak) {
  rt::StatsSnapshot S;
  S.TcfreeCalls = 10;
  S.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::GcRunning] = 3;
  S.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::Mock] = 1;
  S.FreedCountBySource[(int)rt::FreeSource::TcfreeSlice] = 4;
  S.FreedCountBySource[(int)rt::FreeSource::MapGrowOld] = 2;
  EXPECT_EQ(checkTcfreeAccounting("x", S), "");
  S.TcfreeCalls = 11;
  EXPECT_NE(checkTcfreeAccounting("x", S), "");
  S.TcfreeCalls = 9;
  EXPECT_NE(checkTcfreeAccounting("x", S), "");
}

TEST(ChecksTest, FreesHappenFailsWhenNothingIsFreed) {
  rt::StatsSnapshot S;
  S.TcfreeCalls = 5;
  S.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::GcRunning] = 5;
  EXPECT_EQ(insertedFrees(S), 0u);
  EXPECT_NE(checkFreesHappen("x", insertedFrees(S)), "");
  // Map-growth frees come from the runtime, not from inserted calls.
  S.FreedCountBySource[(int)rt::FreeSource::MapGrowOld] = 3;
  EXPECT_EQ(insertedFrees(S), 0u);
  S.FreedCountBySource[(int)rt::FreeSource::TcfreeSlice] = 1;
  S.FreedCountBySource[(int)rt::FreeSource::TcfreeMap] = 2;
  EXPECT_EQ(insertedFrees(S), 3u);
  EXPECT_EQ(checkFreesHappen("x", insertedFrees(S)), "");
}

TEST(ChecksTest, FreesHappenTellsGoFreeFromGo) {
  // The same subject compiled both ways: only GoFree's run frees through
  // inserted calls.
  const workloads::Workload &W = workloads::subjectWorkload("gocompiler");
  for (compiler::CompileMode M :
       {compiler::CompileMode::GoFree, compiler::CompileMode::Go}) {
    compiler::Compilation C = compiler::compile(W.Source, inMode(M));
    ASSERT_TRUE(C.ok());
    compiler::ExecOutcome O = compiler::execute(C, W.Entry, W.SmallArgs);
    ASSERT_TRUE(O.ok()) << O.Error;
    EXPECT_EQ(checkFreesHappen(W.Name, insertedFrees(O.Stats)).empty(),
              M == compiler::CompileMode::GoFree);
  }
}

TEST(ChecksTest, ReconcileFailsOnAWrongSum) {
  EXPECT_EQ(checkReconciles("x", 1.00, 0.15), "");
  EXPECT_EQ(checkReconciles("x", 0.86, 0.15), "");
  EXPECT_EQ(checkReconciles("x", 1.14, 0.15), "");
  // Stage timers that missed half of the frontend (a third of a pass), or
  // counted a stage twice.
  EXPECT_NE(checkReconciles("x", 0.83, 0.15), "");
  EXPECT_NE(checkReconciles("x", 1.5, 0.15), "");
  EXPECT_NE(checkReconciles("x", 0.0, 0.15), "");
}

TEST(ChecksTest, StackDecisionsFailOnDifference) {
  escape::ProgramAnalysis A, B;
  A.SiteOnStack = {true, false, true};
  B.SiteOnStack = {true, false, true};
  EXPECT_EQ(checkSameStackDecisions("x", A, B), "");
  B.SiteOnStack[1] = true;
  EXPECT_NE(checkSameStackDecisions("x", A, B), "");
  B.SiteOnStack = {true, false};
  EXPECT_NE(checkSameStackDecisions("x", A, B), "");
}

TEST(ChecksTest, RealReferencesAgreeAndWrongOnesDoNot) {
  // The subject references as the workloads compute them, at small size:
  // GoFree on the VM against Go on the tree-walker.
  const workloads::Workload &W = workloads::subjectWorkload("gojson");
  compiler::Compilation Free = compiler::compile(W.Source);
  compiler::Compilation Go =
      compiler::compile(W.Source, {compiler::CompileMode::Go});
  ASSERT_TRUE(Free.ok());
  ASSERT_TRUE(Go.ok());
  compiler::ExecOutcome Mine = compiler::execute(Free, W.Entry, W.SmallArgs);
  compiler::ExecOptions Ast;
  Ast.Engine = compiler::ExecEngine::Ast;
  compiler::ExecOutcome Ref = compiler::execute(Go, W.Entry, W.SmallArgs, Ast);
  ASSERT_TRUE(Mine.ok() && Ref.ok());
  EXPECT_EQ(checkChecksum(W.Name, Mine.Run.Checksum, Ref.Run.Checksum), "");
  EXPECT_NE(checkChecksum(W.Name, Mine.Run.Checksum, Ref.Run.Checksum + 1),
            "");
  EXPECT_EQ(checkSameStackDecisions(W.Name, Go.Analysis, Free.Analysis), "");
  EXPECT_EQ(checkTcfreeAccounting(W.Name, Mine.Stats), "");
  // A reference from another input is a wrong reference.
  std::vector<int64_t> Other = W.SmallArgs;
  ++Other[0];
  compiler::ExecOutcome Shifted = compiler::execute(Go, W.Entry, Other, Ast);
  EXPECT_NE(checkChecksum(W.Name, Mine.Run.Checksum, Shifted.Run.Checksum),
            "");
}

TEST(MetricsTest, NamesAreUniqueAndWithinLimits) {
  std::set<std::string> Seen;
  size_t PerLayer = 0;
  for (const auto *List : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef &D : *List) {
      EXPECT_TRUE(Seen.insert(D.Name).second) << D.Name;
      EXPECT_LE(D.Name.size(), 64u) << D.Name;
      EXPECT_LE(D.Unit.size(), 16u) << D.Unit;
      PerLayer += List == &perLayerMetrics();
    }
  EXPECT_LE(PerLayer, 128u);
  EXPECT_EQ(endToEndMetrics().front().Name, "setup_s");
}
