//===- differential_test.cpp - Compiled-vs-reference differential tests ------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's seeds 1..20 (the first seeds of the CI sweep) run through
/// fuzz::runDifferential, one leg per configuration: the reference
/// interpreter against the full compile-to-gpusim pipeline on the
/// compiled memory plan.  A seed passes
/// only on bit-identical outputs or the identical typed runtime error —
/// fault-free, under injected faults with retries, under faults heavy
/// enough to degrade to the interpreter, and sharded over 2 and 4
/// devices.  On failure the seed and full program source are in the
/// assertion message, so any mismatch reproduces directly.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::fuzz;

namespace {

constexpr uint64_t kFirstSeed = 1, kLastSeed = 20;

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

/// Runs the oracle on this test's seed on one leg: gtx780 under \p RP at
/// \p Devices devices.
Outcome run(uint64_t Seed, int Devices,
            const gpusim::ResilienceParams &RP = {}) {
  Leg L{.Name = "devices" + std::to_string(Devices),
        .Devices = Devices,
        .Resilience = RP};
  return runDifferential(generate(Seed), {L}).front();
}

/// A 1% launch-failure and corruption rate: retries, no fallback.
gpusim::ResilienceParams lightFaults(uint64_t Seed) {
  gpusim::ResilienceParams RP;
  RP.Faults.LaunchFailRate = 0.01;
  RP.Faults.CorruptRate = 0.01;
  RP.Faults.Seed = Seed ^ 0xfa17edULL;
  return RP;
}

TEST_P(DifferentialTest, FaultFree) {
  Outcome O = run(GetParam(), 1);
  EXPECT_TRUE(O.Ok) << O.Message;
}

TEST_P(DifferentialTest, UnderFaultInjection) {
  Outcome O = run(GetParam(), 1, lightFaults(GetParam()));
  EXPECT_TRUE(O.Ok) << O.Message;
}

TEST_P(DifferentialTest, UnderHeavyFaultsWithFallback) {
  // A fault rate high enough that some kernels exhaust their retries;
  // the run must then degrade to the interpreter and still agree.
  gpusim::ResilienceParams RP;
  RP.Faults.LaunchFailRate = 0.4;
  RP.Faults.Seed = GetParam() * 31 + 7;
  RP.InterpFallback = true;
  Outcome O = run(GetParam(), 1, RP);
  EXPECT_TRUE(O.Ok) << O.Message;
}

TEST_P(DifferentialTest, Sharded2Devices) {
  Outcome O = run(GetParam(), 2);
  EXPECT_TRUE(O.Ok) << O.Message;
}

TEST_P(DifferentialTest, Sharded4Devices) {
  Outcome O = run(GetParam(), 4);
  EXPECT_TRUE(O.Ok) << O.Message;
}

TEST_P(DifferentialTest, ShardedMatchesSingleDeviceBaseline) {
  // The sharded path at N devices must agree bit-for-bit not only with
  // the reference interpreter but with the explicit --devices=1 baseline,
  // which exercises the pinned N=1 no-op invariant through the same knob.
  Outcome Base = run(GetParam(), 1);
  EXPECT_TRUE(Base.Ok) << Base.Message;
  Outcome Sharded = run(GetParam(), 4);
  EXPECT_TRUE(Sharded.Ok) << Sharded.Message;
  EXPECT_EQ(Base.BothFailed, Sharded.BothFailed);
}

TEST_P(DifferentialTest, ShardedUnderFaultInjection) {
  // Fault retries serialise the whole device group; the recomputed
  // sharded launch must still be value-preserving.
  Outcome O = run(GetParam(), 2, lightFaults(GetParam()));
  EXPECT_TRUE(O.Ok) << O.Message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(kFirstSeed,
                                                    kLastSeed + 1));

TEST(DifferentialSeeds, MostCompareValues) {
  // A seed whose program fails identically on both sides checks error
  // agreement, not values; most of the range must compare outputs.
  int Agreed = 0;
  for (uint64_t Seed = kFirstSeed; Seed <= kLastSeed; ++Seed)
    Agreed += run(Seed, 1).BothFailed ? 1 : 0;
  EXPECT_LE(Agreed, 4);
}

} // namespace
