//===- Stats.h - Order statistics for the benchmark report ------*- C++ -*-===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Medians, tail percentiles and geometric means over wall-clock samples.
/// A tail is reported at the highest standard percentile that still has at
/// least ten samples beyond it, together with the sample count, so a "p99"
/// from 40 samples is never mistaken for one from 40,000.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> Xs, double Q);

inline double median(const std::vector<double> &Xs) {
  return quantile(Xs, 0.5);
}

/// A tail percentile chosen from the sample size.
struct Tail {
  double Percentile = 50; ///< The percentile actually reported (e.g. 99).
  double Value = 0;
  size_t Count = 0; ///< Samples it was computed from.
};

/// The highest of p99.9/p99/p95/p90/p75 not above \p MaxPercentile that has
/// at least ten samples beyond it; the median when none has.
Tail tailPercentile(const std::vector<double> &Xs, double MaxPercentile = 99);

/// Geometric mean of strictly positive values; 0 if any is not positive
/// or the sample is empty.
double geomean(const std::vector<double> &Xs);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
