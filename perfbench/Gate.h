//===- Gate.h - The benchmark's correctness gate ----------------*- C++ -*-===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts every operation the benchmark attempts (compile, device run,
/// serve request, fingerprint or determinism check) and every one that
/// failed: a compile or device error, an output that differs from the
/// reference interpreter's, a non-Ok serve response, a fingerprint that
/// does not reproduce, or simulated counts that differ between repetitions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include "interp/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Gate {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Messages; ///< The first few failures.

public:
  /// Records one operation; returns \p Ok.
  bool check(bool Ok, const std::string &What);

  int64_t attempted() const { return Attempted; }
  int64_t failed() const { return Failed; }
  double errorRate() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 0;
  }
  const std::vector<std::string> &messages() const { return Messages; }
};

/// How device outputs are compared against the reference.
enum class Compare {
  Exact,    ///< Bit for bit, as fuzz::runDifferential compares.
  Tolerant, ///< runBenchmark's relative 1e-4 / absolute 1e-5 tolerance.
};

/// True when \p Got matches \p Want element for element under \p How.
bool sameOutputs(const std::vector<fut::Value> &Got,
                 const std::vector<fut::Value> &Want, Compare How);

} // namespace perfbench

#endif // PERFBENCH_GATE_H
