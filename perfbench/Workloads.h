//===- Workloads.h - The benchmark's three workloads ------------*- C++ -*-===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three single-process, single-client workloads over futharkcc's public
/// entry points (compileSource, runOnDevice with the compiled MemPlan,
/// Interpreter::run, serve::Server::submit/drain):
///
///  * suite-sim      - paper benchmarks on the simulated gtx780 (KernelSim);
///  * compile-corpus - compile only, fuzz + VJP fuzz + suite sources;
///  * serve-mix      - a closed loop against the serving layer with a
///                     mid-run restart on the same artifact directory.
///
/// An untraced run reports the end-to-end metrics; a traced run enables
/// the global TraceSession for every other operation and reports self time
/// per layer from the spans futharkcc already records.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Gate.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans and serve-mix its artifacts.
  std::string OutDir = ".";
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  std::string Note; ///< Sample count, chosen percentile, base of a ratio.
  /// The same statistic of the uncalibrated samples, for calibrated wall
  /// times (see Speed.h).
  std::optional<double> Raw = std::nullopt;
};

struct RunReport {
  std::vector<Metric> Metrics;
  Gate Checks;
  /// Median calibration factor of the run (see Speed.h): >1 when the
  /// machine ran slower than nominal.
  double SpeedFactor = 1;
};

const std::vector<std::string> &workloadNames();

/// Runs one workload; the metrics are the end-to-end set when
/// \p O.Trace is false and the per-layer set otherwise.
RunReport runWorkload(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
