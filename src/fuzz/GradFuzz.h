//===- GradFuzz.h - Seeded gradient-check fuzzer ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of small *smooth* f64 programs and a gradient oracle
/// for the reverse-mode AD pass: each program is compiled with --vjp=main
/// through the full pipeline onto the simulated device, and the adjoints it
/// returns are checked against central finite differences of the primal
/// through the reference interpreter (frontend output, no optimisation).
///
/// Generation follows the differential fuzzer's plan-based scheme — a seed
/// samples a GradPlan whose steps each consume the newest chain array, so
/// any subset of steps renders a well-typed program and shrinking is
/// plan-step removal.  The construct pool is chosen for differentiability:
/// smooth bounded map expressions (sin/cos/exp/atan, division by 1+x^2),
/// maps capturing the active scalar input as a free variable, sum/product/
/// max reductions, scans, dot products, sequential loops (scalar- and
/// array-carried, exercising the tape), in-place updates, n-dependent (so
/// perturbation-stable) branches, and reduce_by_index gathers.  Magnitudes
/// are kept contractive so central differences stay well-conditioned.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_FUZZ_GRADFUZZ_H
#define FUTHARKCC_FUZZ_GRADFUZZ_H

#include "fuzz/Fuzz.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fut {
namespace fuzz {

/// One gradient-plan step; all randomness is resolved at sampling time.
struct GradStep {
  enum class Kind : uint8_t {
    Map,        ///< smooth scalar map over the chain array
    MapFree,    ///< map whose lambda captures the active scalar x0
    SumReduce,  ///< reduce (+) into the scalar pool
    ProdReduce, ///< reduce (*) over values normalised near 1
    MaxReduce,  ///< reduce max into the scalar pool
    Scan,       ///< scan (+), rebounded with atan
    Dot,        ///< dot product of the chain with a cosine image of itself
    Loop,       ///< sequential loop: scalar-carried or array-carried
    InPlace,    ///< fresh map, then one cell overwritten with an x0 term
    Branch,     ///< if on n (perturbation-stable), both branches active
    RbiGather,  ///< reduce_by_index (+) over iota-derived bins, checksummed
  };

  Kind K = Kind::Map;
  int Variant = 0;  ///< scalar-expression / sub-shape selector
  int64_t Pos = 2;  ///< small positive constant (width, index, modulus)
  int64_t Small = 0; ///< small signed constant, |Small| <= 9
  int SRef = 0;     ///< index into the scalar pool (clamped at render)
};

/// A fully pinned gradient plan: rendering is deterministic, and the
/// rendered program has the fixed signature
///   fun main (n: i32) (x0: f64) (a0: [n]f64): f64
/// so the oracle always knows which inputs are active.
struct GradPlan {
  int64_t N = 6;
  std::vector<GradStep> Steps;
  double X0 = 0.5;
  std::vector<double> Input; ///< the a0 argument, N elements
};

/// Deterministically samples gradient plan number \p Seed.
GradPlan sampleGradPlan(uint64_t Seed);

/// Renders \p P to surface source + arguments (n, x0, a0 — no seed; the
/// oracle appends the output seed when calling main_vjp).
FuzzCase renderGradPlan(const GradPlan &P, uint64_t Seed);

/// sampleGradPlan + renderGradPlan.
FuzzCase generateGrad(uint64_t Seed);

/// The outcome of one gradient check.
struct GradOutcome {
  bool Ok = false;
  /// Largest relative gradient error over all active input components
  /// (x0 and every element of a0), whether or not it passed.
  double MaxRelErr = 0.0;
  /// On failure: the seed, the worst component, both derivatives and the
  /// source, so the failure reproduces from the log alone.
  std::string Message;
};

/// Relative-error tolerance of the oracle: |vjp - fd| below 1e-4 of
/// max(1, |vjp|, |fd|) per component.
constexpr double GradRelTol = 1e-4;

/// Compiles \p C.Source with --vjp=main through the full (verified)
/// pipeline, runs main_vjp on the simulated device with seed 1, and
/// compares every adjoint component against central finite differences of
/// the primal through the reference interpreter.  Also cross-checks the
/// primal value the VJP returns against the interpreter's.
GradOutcome runGradientCheck(const FuzzCase &C);

/// shrinkPlan under the gradient oracle: drop plan steps, shorten the
/// array, and zero x0 and then the array's elements while the check keeps
/// failing.
using GradShrinkResult = ShrinkOutcome<GradPlan>;
GradShrinkResult shrinkGrad(const GradPlan &P, uint64_t Seed);

} // namespace fuzz
} // namespace fut

#endif // FUTHARKCC_FUZZ_GRADFUZZ_H
