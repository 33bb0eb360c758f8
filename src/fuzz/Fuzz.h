//===- Fuzz.h - Seeded well-typed program fuzzer ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle of the tree, plus the seeded generator of small
/// well-typed surface programs it is driven with, and a shrinker producing
/// minimal failing .fut cases.  The oracle runs a program once on the
/// reference interpreter (frontend output, no optimisation, no faults) and
/// through the full pipeline onto the simulated device on the compiled
/// memory plan, once per leg: a device, device count and fault
/// configuration.  Each leg must give bit-identical outputs
/// (firstDifference, interp/Value.h) or the identical typed error, and a
/// twin leg must also match the leg it twins (the same cost line, or the
/// same model-independent counters).  futharkcc-fuzz runs the fixed leg
/// table, sweepLegs(); the regression corpus and the DifferentialTest
/// configurations pass one leg each.  Its reference run, referenceRun, is
/// shared by every other compiled-vs-reference check: the benchmark
/// suite's Verify leg, futharkcc-serve --check and the simulator tests,
/// each comparing with the same firstDifference.
///
/// Generation is plan-based: a seed is first sampled into a Plan — a list
/// of construct steps with all constants pinned — and the plan is then
/// rendered to source.  Because every step only consumes the newest chain
/// array and previously produced scalars, any subset of steps still renders
/// a well-typed program, so shrinking is plan-step removal plus re-render
/// rather than syntactic surgery on source text.
///
/// The construct pool covers the surface the pipeline cares about: map
/// nests (including 2D nests and transposition), reduce, scan, conditional
/// masking, in-place updates, sequential loops in threads, histogram loops,
/// reduce_by_index (commutative operators only, so compiled-vs-interpreter
/// agreement is well-defined regardless of update order), concat, indexing,
/// integer power, and division by a data-dependent divisor (so the
/// typed-runtime-error path is exercised: a program where both sides fail
/// with the identical runtime error is agreement, not a failure).
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_FUZZ_FUZZ_H
#define FUTHARKCC_FUZZ_FUZZ_H

#include "gpusim/Device.h"
#include "interp/Interp.h"
#include "interp/Value.h"
#include "support/Error.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace fut {
namespace fuzz {

/// One generation step; the meaning of the numeric fields depends on Kind.
/// All randomness is resolved at plan-sampling time so rendering is a pure
/// function of the plan.
struct Step {
  enum class Kind : uint8_t {
    Map,       ///< map of a scalar expression over the chain array
    Mask,      ///< conditional mask map (filter encoding)
    Scan,      ///< scan (+) over the chain array
    Reduce,    ///< reduce (+ | min | max) to a scalar
    InPlace,   ///< in-place update of a fresh copy
    ZipIota,   ///< two-array map against iota n
    MapLoop,   ///< sequential loop inside every thread
    MapReduce, ///< nested reduction over a thread-private iota
    Histogram, ///< histogram loop into a replicated accumulator
    Concat,    ///< reduce (+) over the chain array concat'd with itself
    Transpose, ///< 2D nest, transpose, row-sums reduced to a scalar
    MapScan,   ///< scan over a thread-private iota, reduced in-thread
    PowMap,    ///< x ** k with a small non-negative k
    DivVar,    ///< division by a data-dependent divisor (may fault)
    IndexScalar, ///< read one element into the scalar pool
    ReduceByIndex, ///< reduce_by_index with a commutative operator,
                   ///< normalized in-range bins, result checksummed
  };

  Kind K = Kind::Map;
  /// Scalar-expression variant for steps that embed one (0..4).
  int Variant = 0;
  /// Step constants: a positive constant (>= 2) and a small constant.
  int64_t Pos = 2;
  int64_t Small = 0;
  /// Index into the scalars produced so far; renderers clamp it against
  /// the actually available pool (which shrinking may have emptied).
  int SRef = 0;
};

/// A fully pinned generation plan: rendering it is deterministic.
struct Plan {
  int64_t N = 8;               ///< length of every chain array
  std::vector<Step> Steps;
  std::vector<int32_t> Input;  ///< the a0 argument, N elements
};

/// A renderable program with matching entry-point arguments.
struct FuzzCase {
  uint64_t Seed = 0;
  std::string Source;
  std::vector<Value> Args;
};

/// Deterministically samples plan number \p Seed: same seed, same plan,
/// forever (existing seeds' programs are pinned by the regress corpus).
Plan samplePlan(uint64_t Seed);

/// Renders \p P to surface source + arguments.  \p Seed is only recorded
/// in the result for reporting.
FuzzCase renderPlan(const Plan &P, uint64_t Seed);

/// samplePlan + renderPlan.
FuzzCase generate(uint64_t Seed);

/// The outcome of one leg of a differential run.
struct Outcome {
  bool Ok = false;
  /// Both sides failed with the identical typed runtime error — counts as
  /// agreement (Ok == true).
  bool BothFailed = false;
  /// On mismatch: the seed, the source, and both results, so the failure
  /// reproduces from the log alone.
  std::string Message;
};

/// The reference leg of every compiled-vs-reference check: \p Source's
/// frontend output, unoptimised, run as main on the interpreter.  \p IO
/// sets its stream chunking and observation hooks (the benchmark suite
/// uses both); when \p CopiedConsumes is given, it receives the run's
/// Interpreter::copiedConsumes.
ErrorOr<std::vector<Value>> referenceRun(const std::string &Source,
                                         const std::vector<Value> &Args,
                                         InterpOptions IO = {},
                                         int64_t *CopiedConsumes = nullptr);

/// One device configuration of the differential oracle: the simulated
/// device, the device count (above one the leg compiles with a shard plan
/// and runs on a DeviceGroup) and the fault injection its run sees.  A
/// twin leg (one whose \c Check is not None) must also equal the run of
/// the leg named "default", from which it differs only in something that
/// must not change what \c Check compares.
struct Leg {
  enum class Twin : uint8_t {
    None,
    /// The whole CostReport::str() line, byte for byte.
    CostLine,
    /// KernelLaunches, GlobalTransactions, TransferredBytes, the atomic
    /// counters and LocalAccesses; and on both runs, Coalesced +
    /// Scattered == GlobalTransactions.
    Counters,
  };

  /// Names the leg in summaries and failure messages.
  std::string Name = "default";
  gpusim::DeviceParams Device = gpusim::DeviceParams::gtx780();
  int Devices = 1;
  gpusim::ResilienceParams Resilience = {};
  Twin Check = Twin::None;
};

/// The legs of a futharkcc-fuzz sweep, each checked against one reference
/// run per seed:
///  * default - gtx780, one device;
///  * split - default with DeviceParams::ForceSplitRanges, a CostLine twin
///    of default;
///  * devices2 - sharded over two devices;
///  * hist-global, hist-global-devices2 - the global-atomic histogram
///    lowering (HistLocalWidthMax 0) on one and two devices;
///  * pipeline - the pipeline cost model, a Counters twin of default.
const std::vector<Leg> &sweepLegs();

/// Runs \p Source once through referenceRun and, for each of \p Legs,
/// through the full pipeline + simulated device on the compiled memory
/// plan, compiling once per distinct device count.  A leg agrees when its
/// outputs are bit-identical to the reference's, or when both failed with
/// the identical typed runtime error; any compile or verifier error is a
/// failure, and so is a twin check that does not hold, or a twin when no
/// leg of \p Legs is named "default".  Returns one outcome per leg, in
/// order; a failure message starts with "leg <name>:".
std::vector<Outcome>
runSourceDifferential(const std::string &Source, const std::vector<Value> &Args,
                      const std::vector<Leg> &Legs = {Leg()});

/// runSourceDifferential on a generated case; a failure message starts
/// with the case's seed.
std::vector<Outcome> runDifferential(const FuzzCase &C,
                                     const std::vector<Leg> &Legs = {Leg()});

/// The legs a rerun of \p Legs[\p Failing] needs: that leg, after the leg
/// named "default" when it is a twin.
std::vector<Leg> rerunLegs(const std::vector<Leg> &Legs, size_t Failing);

/// A shrunk failing case: the minimal plan, its rendering, the failure
/// message of the minimal case, and the work it took.
template <typename PlanT> struct ShrinkOutcome {
  PlanT MinimalPlan;
  FuzzCase Minimal;
  std::string Message;
  int StepsRemoved = 0;
  int Attempts = 0;
};

/// The greedy passes every shrinker shares, over a plan with Steps, N and
/// Input: drop steps while the failure persists, halve N (floor 4), then
/// zero, one at a time, the inputs \p Inputs(Plan &) points at, in its
/// order.  \p Failure(Cand) reruns the oracle and returns the candidate's
/// failure message, empty when it passes.  Minimal is left for the caller
/// to render.
template <typename PlanT, typename FailureFn, typename InputsFn>
ShrinkOutcome<PlanT> shrinkPlan(const PlanT &P, FailureFn Failure,
                                InputsFn Inputs) {
  ShrinkOutcome<PlanT> SR;
  auto Fails = [&](const PlanT &Cand) {
    ++SR.Attempts;
    std::string Msg = Failure(Cand);
    if (Msg.empty())
      return false;
    SR.Message = std::move(Msg);
    return true;
  };
  PlanT Cur = P;
  if (!Fails(Cur)) {
    // Not failing (e.g. flaky environment); return the input untouched.
    SR.MinimalPlan = Cur;
    SR.Message = "case does not fail; nothing to shrink";
    return SR;
  }

  // Pass 1: drop steps greedily until no single removal keeps the failure.
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (size_t I = 0; I < Cur.Steps.size() && !Progress; ++I) {
      PlanT Cand = Cur;
      Cand.Steps.erase(Cand.Steps.begin() + static_cast<long>(I));
      if (Fails(Cand)) {
        Cur = std::move(Cand);
        ++SR.StepsRemoved;
        Progress = true;
      }
    }
  }

  // Pass 2: shorten the array (halving, floor 4).
  while (Cur.N > 4) {
    PlanT Cand = Cur;
    Cand.N = std::max<int64_t>(4, Cand.N / 2);
    Cand.Input.resize(static_cast<size_t>(Cand.N));
    if (!Fails(Cand))
      break;
    Cur = std::move(Cand);
  }

  // Pass 3: zero inputs where the failure persists.
  for (size_t I = 0; I < Inputs(Cur).size(); ++I) {
    if (*Inputs(Cur)[I] == 0)
      continue;
    PlanT Cand = Cur;
    *Inputs(Cand)[I] = 0;
    if (Fails(Cand))
      Cur = std::move(Cand);
  }

  SR.MinimalPlan = std::move(Cur);
  return SR;
}

/// shrinkPlan under runDifferential on leg \p Failing of \p Legs: each
/// candidate reruns only rerunLegs(Legs, Failing), so a failure that
/// needs that leg's device configuration keeps failing while it shrinks,
/// and the message is that leg's.
using ShrinkResult = ShrinkOutcome<Plan>;
ShrinkResult shrink(const Plan &P, uint64_t Seed,
                    const std::vector<Leg> &Legs = {Leg()},
                    size_t Failing = 0);

/// Serialises \p C as a self-contained .fut regression file: comment
/// header (one line per \p CommentLines entry), an "-- args:" line, then
/// the source.  parseArgsLine inverts the args line.
std::string toRegressionFile(const FuzzCase &C,
                             const std::vector<std::string> &CommentLines);

/// Parses an "-- args:" header line ("-- args: 8 [1,2,3]") back into
/// values; returns false on malformed input.
bool parseArgsLine(const std::string &Line, std::vector<Value> &Out);

/// Loads a .fut regression file written by toRegressionFile (or by hand):
/// splits the args header from the source.  Returns false if no valid
/// "-- args:" line is present.
bool loadRegressionFile(const std::string &Contents, FuzzCase &Out);

} // namespace fuzz
} // namespace fut

#endif // FUTHARKCC_FUZZ_FUZZ_H
