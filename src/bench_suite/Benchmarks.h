//===- Benchmarks.h - The sixteen paper benchmarks --------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sixteen benchmarks of Section 6 (Rodinia, FinPar, Parboil and
/// Accelerate ports), written in the surface language with synthetic
/// datasets whose shapes follow Table 2 at simulator-friendly scale.
/// Each benchmark carries the reference-implementation model (RefConfig)
/// and the paper's measured speedups for comparison in EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_BENCH_SUITE_BENCHMARKS_H
#define FUTHARKCC_BENCH_SUITE_BENCHMARKS_H

#include "gpusim/Device.h"
#include "interp/Interp.h"
#include "interp/Value.h"
#include "refimpl/RefImpl.h"

#include <functional>
#include <string>
#include <vector>

namespace fut {
namespace bench {

struct BenchmarkDef {
  std::string Name;
  std::string Suite; ///< rodinia / finpar / parboil / accelerate
  std::string Source;
  std::function<std::vector<Value>()> MakeInputs;
  RefConfig Ref;
  /// Chunking-sensitive streams (the paper's programmer obligation is
  /// relied upon, as in OptionPricing): verify against the interpreter
  /// with this interleaved chunk count (0 = one maximal chunk), matching
  /// the device's interleaved stream chunking.
  int64_t VerifyInterleave = 0;
  /// Per-output relative tolerance of the Verify comparison
  /// (firstDifference); empty means every output must be bit-identical.
  /// Declared only where the compiled program reassociates float
  /// arithmetic, with the reason beside it.
  std::vector<double> RelTol;

  /// Paper speedups (reference time / Futhark time), Fig 13 / Table 1.
  double PaperSpeedupGTX = 0;
  double PaperSpeedupW8100 = 0; ///< 0: not measured in the paper.
  const char *Notes = "";
};

/// All sixteen benchmarks, in the paper's order.
const std::vector<BenchmarkDef> &allBenchmarks();

/// Finds one by name (nullptr if unknown).
const BenchmarkDef *findBenchmark(const std::string &Name);

/// The result of running one benchmark under one configuration.
struct BenchRun {
  gpusim::CostReport Cost;
  std::vector<Value> Outputs;
};

/// Compiles with \p Opts and runs on \p DP; also verifies the outputs
/// with verifyOutputs when \p Verify is set.
ErrorOr<BenchRun> runBenchmark(const BenchmarkDef &B,
                               const CompilerOptions &Opts,
                               const gpusim::DeviceParams &DP,
                               bool Verify = false);

/// Checks \p Got, B's outputs on \p Inputs, against the reference run
/// (fuzz::referenceRun, with streams chunked by B.VerifyInterleave) under
/// B.RelTol.  \p Hooks adds observation hooks to that run, and
/// \p CopiedConsumes receives its Interpreter::copiedConsumes, so a caller
/// that checks the uniqueness counts needs no second reference run.
MaybeError verifyOutputs(const BenchmarkDef &B,
                         const std::vector<Value> &Inputs,
                         const std::vector<Value> &Got,
                         InterpOptions Hooks = {},
                         int64_t *CopiedConsumes = nullptr);

/// Convenience: simulated speedup of the fully optimised program over the
/// reference model on the given device (reference cycles are divided by
/// its hand-tuning factor first).
struct SpeedupResult {
  double FutharkCycles = 0;
  double RefCycles = 0;
  double Speedup = 0;
  /// Full cost report of the Futhark run (engine busy times, overlap
  /// savings, device-memory history), for the bench trace counters.
  gpusim::CostReport FutharkCost;
};
ErrorOr<SpeedupResult> measureSpeedup(const BenchmarkDef &B,
                                      const gpusim::DeviceParams &DP);

} // namespace bench
} // namespace fut

#endif // FUTHARKCC_BENCH_SUITE_BENCHMARKS_H
