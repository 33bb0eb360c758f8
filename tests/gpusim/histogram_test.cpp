//===- histogram_test.cpp - SegHist lowering and atomic accounting ---------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The reduce_by_index device model: the local-subhistogram vs
// global-atomics lowering switch at HistLocalWidthMax (results must be
// bit-identical either side of the boundary, only the cost profile may
// change), and exactly-once conflict accounting under fault-injected
// retries — launch failures never start the kernel and must charge no
// atomic traffic, while detected-corruption retries run to completion and
// must charge every attempt.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"
#include "gpusim/Faults.h"

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;
using namespace fut::gpusim;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}

/// A counting histogram of fixed width W; the bin map fuses into the
/// SegHist kernel, so the flattened program is a single kernel.
std::string histSrc(int64_t W) {
  std::string Ws = std::to_string(W);
  return "fun main (n: i32) (xs: [n]i32): [" + Ws + "]i32 =\n"
         "  let bins = map (\\(x: i32): i32 -> x % " + Ws + ") xs\n"
         "  let ones = map (\\(x: i32): i32 -> 1) xs\n"
         "  in reduce_by_index (replicate " + Ws + " 0) (+) 0 bins ones\n";
}

/// Highly colliding input: every element lands in one of three bins.
std::vector<Value> collidingArgs(int64_t N) {
  std::vector<int64_t> Xs;
  for (int64_t I = 0; I < N; ++I)
    Xs.push_back(I % 3);
  return {iv(static_cast<int32_t>(N)), ivec(Xs)};
}

Program compiled(const std::string &Src) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  return C ? std::move(C->P) : Program();
}

std::vector<Value> reference(const std::string &Src,
                             const std::vector<Value> &Args) {
  auto Want = fuzz::referenceRun(Src, Args);
  EXPECT_TRUE(static_cast<bool>(Want)) << Want.getError().str();
  return Want ? Want.take() : std::vector<Value>();
}

void expectOutputsEqual(const std::vector<Value> &Got,
                        const std::vector<Value> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_TRUE(Got[I] == Want[I])
        << "result " << I << ":\ngot:  " << Got[I].str()
        << "\nwant: " << Want[I].str();
}

} // namespace

//===----------------------------------------------------------------------===//
// The lowering switch at HistLocalWidthMax
//===----------------------------------------------------------------------===//

TEST(HistLoweringTest, BoundaryWidthsAreBitIdenticalEitherStrategy) {
  // Widths one below, at, and one above a tiny threshold: the strategy
  // flips between width 8 and 9, the results never do.
  DeviceParams Small = DeviceParams::gtx780();
  Small.HistLocalWidthMax = 8;
  DeviceParams Global = DeviceParams::gtx780();
  Global.HistLocalWidthMax = 0; // forces global atomics at any width

  std::vector<Value> Args = collidingArgs(256);
  for (int64_t W : {int64_t(7), int64_t(8), int64_t(9)}) {
    std::string Src = histSrc(W);
    Program P = compiled(Src);
    auto A = Device(Small).runMain(P, Args);
    auto B = Device(Global).runMain(P, Args);
    ASSERT_OK(A);
    ASSERT_OK(B);
    std::vector<Value> Want = reference(Src, Args);
    expectOutputsEqual(A->Outputs, Want);
    expectOutputsEqual(B->Outputs, Want);
  }
}

TEST(HistLoweringTest, StrategiesHaveDistinctCostProfiles) {
  // At and below the threshold the local strategy owns the kernel:
  // scratchpad traffic, a coalesced merge, zero conflicts.  One past it
  // the global strategy pays per-collision serialisation on this
  // three-bin-heavy input.
  DeviceParams Small = DeviceParams::gtx780();
  Small.HistLocalWidthMax = 8;

  std::vector<Value> Args = collidingArgs(256);
  for (int64_t W : {int64_t(7), int64_t(8)}) {
    Program P = compiled(histSrc(W));
    auto R = Device(Small).runMain(P, Args);
    ASSERT_OK(R);
    EXPECT_GT(R->Cost.AtomicTransactions, 0) << "merge traffic at W=" << W;
    EXPECT_EQ(R->Cost.AtomicConflicts, 0)
        << "local subhistograms must not charge global conflicts";
    EXPECT_GT(R->Cost.LocalAccesses, 0);
  }

  Program P9 = compiled(histSrc(9));
  auto G = Device(Small).runMain(P9, Args);
  ASSERT_OK(G);
  EXPECT_GT(G->Cost.AtomicConflicts, 0)
      << "colliding input under global atomics must serialise";

  // The same width under a local-capable device charges no conflicts:
  // only the threshold moved, so the profile difference is the strategy.
  DeviceParams Big = DeviceParams::gtx780();
  Big.HistLocalWidthMax = 9;
  auto L = Device(Big).runMain(P9, Args);
  ASSERT_OK(L);
  EXPECT_EQ(L->Cost.AtomicConflicts, 0);
  EXPECT_NE(L->Cost.AtomicTransactions, G->Cost.AtomicTransactions);
  expectOutputsEqual(L->Outputs, G->Outputs);
}

//===----------------------------------------------------------------------===//
// Exactly-once atomic accounting under fault-injected retries
//===----------------------------------------------------------------------===//

TEST(HistFaultsTest, FailedLaunchesChargeNoAtomics) {
  // A transient launch failure never starts the kernel, so however many
  // retries the fault stream forces, the atomic counters must equal the
  // fault-free run's.
  std::string Src = histSrc(16);
  Program P = compiled(Src);
  std::vector<Value> Args = collidingArgs(256);

  auto Clean = Device(DeviceParams::gtx780()).runMain(P, Args);
  ASSERT_OK(Clean);
  EXPECT_GT(Clean->Cost.AtomicTransactions, 0);

  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 20;
  RS.Faults.LaunchFailRate = 0.5;
  RS.Faults.Seed = 5;
  auto Faulty = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(Faulty);
  EXPECT_GT(Faulty->Cost.RetriedLaunches, 0)
      << "seed 5 must inject at least one launch failure";
  EXPECT_EQ(Faulty->Cost.AtomicTransactions, Clean->Cost.AtomicTransactions);
  EXPECT_EQ(Faulty->Cost.AtomicConflicts, Clean->Cost.AtomicConflicts);
  expectOutputsEqual(Faulty->Outputs, reference(Src, Args));
}

TEST(HistFaultsTest, CorruptedRunsChargeEveryAttemptExactlyOnce) {
  // Detected corruption runs the kernel to completion before discarding
  // the result: every attempt charges its atomic traffic exactly once, so
  // the faulted counters are an integer multiple of the clean ones —
  // clean count times (1 + retries of the single histogram kernel).  The
  // colliding input is already in range for 16 bins, so it serves as both
  // index and value and the program flattens to exactly one kernel.
  std::string Src =
      "fun main (n: i32) (xs: [n]i32): [16]i32 =\n"
      "  reduce_by_index (replicate 16 0) (+) 0 xs xs\n";
  Program P = compiled(Src);
  std::vector<Value> Args = collidingArgs(256);

  auto Clean = Device(DeviceParams::gtx780()).runMain(P, Args);
  ASSERT_OK(Clean);
  ASSERT_GT(Clean->Cost.AtomicTransactions, 0);
  ASSERT_EQ(Clean->Cost.KernelLaunches, 1)
      << "one SegHist kernel, so every retry below belongs to it";

  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 20;
  RS.Faults.CorruptRate = 0.5;
  RS.Faults.Seed = 3;
  auto Faulty = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(Faulty);
  ASSERT_GT(Faulty->Cost.RetriedLaunches, 0)
      << "seed 3 must corrupt at least one result";
  int64_t Attempts = 1 + Faulty->Cost.RetriedLaunches;
  EXPECT_EQ(Faulty->Cost.AtomicTransactions,
            Clean->Cost.AtomicTransactions * Attempts);
  EXPECT_EQ(Faulty->Cost.AtomicConflicts,
            Clean->Cost.AtomicConflicts * Attempts);
  expectOutputsEqual(Faulty->Outputs, reference(Src, Args));
}

TEST(HistFaultsTest, AtomicCountersAreDeterministic) {
  std::string Src = histSrc(16);
  Program P = compiled(Src);
  std::vector<Value> Args = collidingArgs(256);
  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 20;
  RS.Faults.CorruptRate = 0.5;
  RS.Faults.Seed = 3;
  auto A = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  auto B = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(A);
  ASSERT_OK(B);
  EXPECT_EQ(A->Cost.AtomicTransactions, B->Cost.AtomicTransactions);
  EXPECT_EQ(A->Cost.AtomicConflicts, B->Cost.AtomicConflicts);
  EXPECT_EQ(A->Cost.TotalCycles, B->Cost.TotalCycles);
}
