//===- perfbench/driver/Arith.h - Order statistics -------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics the benchmark reports with. Percentiles use the same
/// rank-ceil(Q*N) convention as workloads::ServeSimResult::percentileNs, so
/// a latency percentile printed here and one printed by `gofree serve-sim`
/// pick the same sample; tests/ArithTest.cpp pins the agreement.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_PERFBENCH_ARITH_H
#define GOFREE_PERFBENCH_ARITH_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based rank of the \p Q percentile (0 < Q <= 1) among \p N samples:
/// the smallest k with k >= Q*N, clamped into [1, N]. 0 when N is 0.
inline size_t percentileRank(size_t N, double Q) {
  if (N == 0)
    return 0;
  size_t Rank = (size_t)(Q * (double)N);
  if ((double)Rank < Q * (double)N)
    ++Rank;
  return std::clamp<size_t>(Rank, 1, N);
}

/// Whether the \p Q percentile of \p N samples has at least \p MinBeyond
/// samples above its rank, i.e. whether it is a measured tail and not the
/// few worst samples of a short run.
inline bool tailHasSamples(size_t N, double Q, size_t MinBeyond = 10) {
  return N > 0 && N - percentileRank(N, Q) >= MinBeyond;
}

/// Median (mean of the middle two for an even count); 0 for no samples.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2.0;
}

/// Geometric mean of positive values; 0 for no samples or any value <= 0
/// (a zero time means the measurement failed, not that it was fast).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V) {
    if (!(X > 0.0))
      return 0.0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / (double)V.size());
}

} // namespace perfbench

#endif // GOFREE_PERFBENCH_ARITH_H
