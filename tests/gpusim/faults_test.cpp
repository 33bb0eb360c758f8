//===- faults_test.cpp - Fault injection and resilient-runtime tests --------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The failure paths of the device model and the host runtime: device
// memory accounting at the exact capacity threshold, deterministic
// watchdog kills, transient-fault retry with simulated-cycle backoff, and
// graceful degradation to the reference interpreter on persistent device
// failure.  Everything is seeded, so every failure is reproducible.
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

const char *MapSrc = "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs";

const char *LoopSrc =
    "fun main (n: i32) (xs: [n]i32) (iters: i32): [n]i32 =\n"
    "  loop (a = xs) for t < iters do map (+2) a";

/// Compiles through the full pipeline.
Program compiled(const std::string &Src) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  return C ? std::move(C->P) : Program();
}

/// The fault-free oracle: the reference interpretation of the unoptimised
/// program.
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
    EXPECT_TRUE(Got[I].approxEqual(Want[I]))
        << "result " << I << ":\ngot:  " << Got[I].str()
        << "\nwant: " << Want[I].str();
}

} // namespace

//===----------------------------------------------------------------------===//
// FaultPlan determinism
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, SameSeedSameSequence) {
  FaultConfig C;
  C.LaunchFailRate = 0.37;
  C.Seed = 9001;
  FaultPlan A(C), B(C);
  std::vector<bool> SeqA, SeqB;
  for (int I = 0; I < 200; ++I)
    SeqA.push_back(A.nextLaunchFails());
  for (int I = 0; I < 200; ++I)
    SeqB.push_back(B.nextLaunchFails());
  EXPECT_EQ(SeqA, SeqB);
  A.reset();
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(A.nextLaunchFails(), SeqA[I]);
}

TEST(FaultPlanTest, RateExtremes) {
  FaultConfig Never;
  Never.LaunchFailRate = 0.0;
  Never.Seed = 7;
  FaultPlan N(Never);
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(N.nextLaunchFails());

  FaultConfig Always;
  Always.LaunchFailRate = 1.0;
  Always.Seed = 7;
  FaultPlan Y(Always);
  for (int I = 0; I < 100; ++I)
    EXPECT_TRUE(Y.nextLaunchFails());
}

TEST(FaultPlanTest, RateRoughlyHonoured) {
  FaultConfig C;
  C.LaunchFailRate = 0.25;
  C.Seed = 123;
  FaultPlan P(C);
  int Fails = 0;
  for (int I = 0; I < 4000; ++I)
    Fails += P.nextLaunchFails();
  EXPECT_GT(Fails, 800);
  EXPECT_LT(Fails, 1200);
}

//===----------------------------------------------------------------------===//
// Device memory accounting
//===----------------------------------------------------------------------===//

TEST(FaultsTest, OOMExactThreshold) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 1))};
  // One kernel: 256 x i32 input uploaded (1024 bytes) + 256 x i32 output
  // (1024 bytes) live simultaneously.
  const int64_t Needed = 2048;

  ResilienceParams NoFallback;
  NoFallback.InterpFallback = false;

  DeviceParams Fits = DeviceParams::gtx780();
  Fits.DeviceMemBytes = Needed;
  auto Ok = Device(Fits, NoFallback).runMain(P, Args);
  ASSERT_OK(Ok);
  EXPECT_FALSE(Ok->InterpFallback);

  DeviceParams Tight = Fits;
  Tight.DeviceMemBytes = Needed - 1;
  auto Oom = Device(Tight, NoFallback).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(Oom)) << "expected device OOM";
  EXPECT_EQ(Oom.getError().Kind, ErrorKind::DeviceOOM);
  EXPECT_NE(Oom.getError().Message.find("out of memory"), std::string::npos)
      << Oom.getError().Message;
}

TEST(FaultsTest, OOMOnUploadIsTyped) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 2))};
  ResilienceParams NoFallback;
  NoFallback.InterpFallback = false;
  DeviceParams Tiny = DeviceParams::gtx780();
  Tiny.DeviceMemBytes = 512; // smaller than the input alone
  auto Oom = Device(Tiny, NoFallback).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(Oom));
  EXPECT_EQ(Oom.getError().Kind, ErrorKind::DeviceOOM);
}

TEST(FaultsTest, OOMFallsBackToInterpreter) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 3))};
  DeviceParams Tight = DeviceParams::gtx780();
  Tight.DeviceMemBytes = 2047;
  auto R = Device(Tight).runMain(P, Args); // fallback on by default
  ASSERT_OK(R);
  EXPECT_TRUE(R->InterpFallback);
  EXPECT_EQ(R->FallbackError.Kind, ErrorKind::DeviceOOM);
  expectOutputsEqual(R->Outputs, reference(MapSrc, Args));
}

TEST(FaultsTest, ZeroCapacityMeansUnlimited) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 4))};
  ResilienceParams NoFallback;
  NoFallback.InterpFallback = false;
  DeviceParams Unlimited = DeviceParams::gtx780();
  Unlimited.DeviceMemBytes = 0;
  auto R = Device(Unlimited, NoFallback).runMain(P, Args);
  ASSERT_OK(R);
}

//===----------------------------------------------------------------------===//
// Watchdog
//===----------------------------------------------------------------------===//

TEST(FaultsTest, WatchdogKillsRunawayKernel) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 5))};
  ResilienceParams NoFallback;
  NoFallback.InterpFallback = false;
  DeviceParams DP = DeviceParams::gtx780();
  DP.WatchdogKernelCycles = 100; // below even the launch overhead
  auto R = Device(DP, NoFallback).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(R)) << "expected a watchdog kill";
  EXPECT_EQ(R.getError().Kind, ErrorKind::Watchdog);
}

TEST(FaultsTest, WatchdogKillFallsBackWithCounter) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 6))};
  DeviceParams DP = DeviceParams::gtx780();
  DP.WatchdogKernelCycles = 100;
  auto R = Device(DP).runMain(P, Args);
  ASSERT_OK(R);
  EXPECT_TRUE(R->InterpFallback);
  EXPECT_EQ(R->FallbackError.Kind, ErrorKind::Watchdog);
  EXPECT_EQ(R->Cost.WatchdogKills, 1);
  expectOutputsEqual(R->Outputs, reference(MapSrc, Args));
}

TEST(FaultsTest, TotalCycleBudgetKillsRun) {
  Program P = compiled(LoopSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 7)), iv(5)};
  ResilienceParams NoFallback;
  NoFallback.InterpFallback = false;
  DeviceParams DP = DeviceParams::gtx780();
  // Five kernel launches at >= 5000 cycles each; a 5500-cycle run budget
  // dies partway through.
  DP.WatchdogTotalCycles = 5500;
  auto R = Device(DP, NoFallback).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(R)) << "expected a watchdog kill";
  EXPECT_EQ(R.getError().Kind, ErrorKind::Watchdog);
}

//===----------------------------------------------------------------------===//
// Transient faults: retry, backoff, determinism
//===----------------------------------------------------------------------===//

TEST(FaultsTest, RetryThenSucceedMatchesReference) {
  Program P = compiled(LoopSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 8)), iv(6)};

  ResilienceParams RS;
  RS.InterpFallback = false; // force completion on the device itself
  RS.MaxRetries = 20;
  RS.Faults.LaunchFailRate = 0.5;
  RS.Faults.Seed = 1;
  auto R = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(R);
  EXPECT_FALSE(R->InterpFallback);

  // Six launches at a 50% transient failure rate: this seed must inject
  // at least one fault (the stream is deterministic, so this is stable).
  EXPECT_GT(R->Cost.FaultsInjected, 0);
  EXPECT_GT(R->Cost.RetriedLaunches, 0);
  EXPECT_GT(R->Cost.RetryCycles, 0);
  EXPECT_GE(R->Cost.FaultsInjected, R->Cost.RetriedLaunches);

  // The retried run still computes exactly the fault-free answer.
  expectOutputsEqual(R->Outputs, reference(LoopSrc, Args));

  // Retry cycles are part of the total: the backoff barriers serialise
  // the device, so overlap never hides them behind engine busy time.
  EXPECT_GE(R->Cost.TotalCycles,
            R->Cost.ComputeEngineBusy + R->Cost.RetryCycles);
}

TEST(FaultsTest, SameSeedReproducesSameCounters) {
  Program P = compiled(LoopSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 8)), iv(6)};
  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 20;
  RS.Faults.LaunchFailRate = 0.5;
  RS.Faults.Seed = 1;

  auto A = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  auto B = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(A);
  ASSERT_OK(B);
  EXPECT_EQ(A->Cost.FaultsInjected, B->Cost.FaultsInjected);
  EXPECT_EQ(A->Cost.RetriedLaunches, B->Cost.RetriedLaunches);
  EXPECT_EQ(A->Cost.RetryCycles, B->Cost.RetryCycles);
  EXPECT_EQ(A->Cost.TotalCycles, B->Cost.TotalCycles);

  // A different seed draws a different decision stream.  (Aggregate
  // counters can collide between seeds, so compare the streams directly.)
  FaultConfig C1 = RS.Faults, C2 = RS.Faults;
  C2.Seed = 2;
  FaultPlan P1(C1), P2(C2);
  bool Differ = false;
  for (int I = 0; I < 64 && !Differ; ++I)
    Differ = P1.nextLaunchFails() != P2.nextLaunchFails();
  EXPECT_TRUE(Differ);
}

TEST(FaultsTest, DetectedCorruptionIsRecomputed) {
  Program P = compiled(LoopSrc);
  std::vector<Value> Args = {iv(256), ivec(randomInts(256, 9)), iv(6)};
  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 20;
  RS.Faults.CorruptRate = 0.5;
  RS.Faults.Seed = 3;
  auto R = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(R);
  EXPECT_GT(R->Cost.FaultsInjected, 0);
  EXPECT_GT(R->Cost.RetryCycles, 0);
  // Corrupted kernels ran (and are charged) before being recomputed.
  EXPECT_GT(R->Cost.KernelLaunches, 6);
  expectOutputsEqual(R->Outputs, reference(LoopSrc, Args));
}

//===----------------------------------------------------------------------===//
// Persistent failure: interpreter fallback
//===----------------------------------------------------------------------===//

TEST(FaultsTest, PersistentFaultFallsBackToInterpreter) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(64), ivec(randomInts(64, 10))};
  ResilienceParams RS;
  RS.MaxRetries = 3;
  RS.Faults.LaunchFailRate = 1.0; // every launch fails: persistent
  RS.Faults.Seed = 4;
  auto R = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_OK(R);
  EXPECT_TRUE(R->InterpFallback);
  EXPECT_EQ(R->FallbackError.Kind, ErrorKind::TransientFault);
  EXPECT_EQ(R->Cost.RetriedLaunches, 3);
  EXPECT_EQ(R->Cost.FaultsInjected, 4); // initial attempt + three retries
  expectOutputsEqual(R->Outputs, reference(MapSrc, Args));
}

TEST(FaultsTest, PersistentFaultWithoutFallbackIsTyped) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(64), ivec(randomInts(64, 11))};
  ResilienceParams RS;
  RS.InterpFallback = false;
  RS.MaxRetries = 2;
  RS.Faults.LaunchFailRate = 1.0;
  RS.Faults.Seed = 5;
  auto R = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Kind, ErrorKind::TransientFault);
  EXPECT_NE(R.getError().Message.find("retries exhausted"),
            std::string::npos)
      << R.getError().Message;
}

TEST(FaultsTest, FallbackThatAlsoFailsNamesBothErrors) {
  // Every launch fails, so the run falls back; the interpreter then hits
  // the program's own division by zero after the kernel.
  const char *Src = "fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  let ys = map (+1) xs in ys[0] / (n - n)";
  Program P = compiled(Src);
  std::vector<Value> Args = {iv(64), ivec(randomInts(64, 13))};
  ResilienceParams RS;
  RS.MaxRetries = 1;
  RS.Faults.LaunchFailRate = 1.0;
  RS.Faults.Seed = 6;
  auto R = Device(DeviceParams::gtx780(), RS).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Kind, ErrorKind::FallbackExhausted);
  auto Want = fuzz::referenceRun(Src, Args);
  ASSERT_FALSE(static_cast<bool>(Want));
  const std::string &Msg = R.getError().Message;
  EXPECT_EQ(Msg.rfind("device failed (", 0), 0u) << Msg;
  EXPECT_NE(Msg.find(") and the interpreter fallback also failed: " +
                     Want.getError().Message),
            std::string::npos)
      << Msg;
}

TEST(FaultsTest, CompileStyleErrorsDoNotFallBack) {
  // A genuine runtime error (index out of bounds) fails identically on the
  // interpreter, so the runtime must not mask it behind a fallback.
  Program P = compiled("fun main (n: i32) (xs: [n]i32): i32 = xs[n]");
  std::vector<Value> Args = {iv(8), ivec(randomInts(8, 12))};
  auto R = Device(DeviceParams::gtx780()).runMain(P, Args);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().Kind, ErrorKind::FallbackExhausted);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

TEST(FaultsTest, CostReportPrintsResilienceCounters) {
  CostReport C;
  C.RetriedLaunches = 2;
  C.RetryCycles = 6000;
  C.FaultsInjected = 3;
  C.WatchdogKills = 1;
  std::string S = C.str();
  EXPECT_NE(S.find("retries=2"), std::string::npos) << S;
  EXPECT_NE(S.find("retrycycles=6000"), std::string::npos) << S;
  EXPECT_NE(S.find("faults=3"), std::string::npos) << S;
  EXPECT_NE(S.find("wdkills=1"), std::string::npos) << S;
}

TEST(FaultsTest, RunOnDeviceHelperThreadsPolicyThrough) {
  Program P = compiled(MapSrc);
  std::vector<Value> Args = {iv(64), ivec(randomInts(64, 13))};
  DeviceRunOptions RO;
  RO.Resilience.Faults.LaunchFailRate = 1.0;
  RO.Resilience.Faults.Seed = 6;
  auto R = runOnDevice(P, Args, RO);
  ASSERT_OK(R);
  EXPECT_TRUE(R->InterpFallback);
  expectOutputsEqual(R->Outputs, reference(MapSrc, Args));
}
