//===- Stats.cpp - Order statistics for the benchmark report --------------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = std::clamp(Q, 0.0, 1.0) * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * Frac;
}

Tail perfbench::tailPercentile(const std::vector<double> &Xs,
                               double MaxPercentile) {
  Tail T;
  T.Count = Xs.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (P > MaxPercentile)
      continue;
    double Beyond = static_cast<double>(Xs.size()) * (1.0 - P / 100.0);
    if (Beyond >= 10.0 - 1e-9) {
      T.Percentile = P;
      T.Value = quantile(Xs, P / 100.0);
      return T;
    }
  }
  T.Percentile = 50;
  T.Value = median(Xs);
  return T;
}

double perfbench::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double LogSum = 0;
  for (double X : Xs) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}
