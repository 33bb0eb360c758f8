//===- timeline_test.cpp - Two-engine timeline and buffer-manager tests -----===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The asynchronous device model: EngineTimeline scheduling rules (overlap,
// launch pipelining, barriers, the makespan <= serial-sum invariant), the
// --sync ablation reproducing the historical serial cycle counts bit for
// bit, and regressions for the three accounting bugs the timeline work
// exposed — the device-memory leak across loop iterations, the per-result-
// position double charge for final downloads, and the hard-coded 4-byte
// element width in tiled-traffic costing.
//
//===----------------------------------------------------------------------===//

#include "gpusim/BufferManager.h"
#include "gpusim/Device.h"
#include "gpusim/Timeline.h"

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

using namespace fut;
using namespace fut::test;
using namespace fut::gpusim;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }

std::vector<Value> i32Args(int N) {
  std::vector<PrimValue> E;
  for (int I = 0; I < N; ++I)
    E.push_back(PrimValue::makeI32(I * 3 - 190));
  std::vector<Value> A;
  A.push_back(iv(N));
  A.push_back(Value::array(ScalarKind::I32, {N}, std::move(E)));
  return A;
}

std::vector<Value> f32Args2(int N) {
  std::vector<PrimValue> E1, E2;
  for (int I = 0; I < N; ++I) {
    E1.push_back(PrimValue::makeF32(0.5f * I));
    E2.push_back(PrimValue::makeF32(1.0f / (I + 1)));
  }
  std::vector<Value> A;
  A.push_back(iv(N));
  A.push_back(Value::array(ScalarKind::F32, {N}, std::move(E1)));
  A.push_back(Value::array(ScalarKind::F32, {N}, std::move(E2)));
  return A;
}

Program compiled(const std::string &Src) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  return C ? std::move(C->P) : Program();
}

ErrorOr<RunResult> run(const std::string &Src, const std::vector<Value> &Args,
                       DeviceParams DP = DeviceParams::gtx780()) {
  Program P = compiled(Src);
  return Device(DP).runMain(P, Args);
}

double serialSum(const CostReport &C) {
  return C.KernelCycles + C.HostCycles + C.TransferCycles + C.RetryCycles;
}

// The three pinned programs whose pre-async TotalCycles the --sync
// ablation must reproduce exactly (constants captured at the commit that
// introduced the timeline).
const char *kTraceSrc =
    "fun main (n: i32) (xs: [n]i32): ([n]i32, i32) =\n"
    "  let ys = map (\\(x: i32): i32 -> x * 3 + 1) xs\n"
    "  let zs = scan (+) 0 ys\n"
    "  let s = reduce max (0 - 1000000) zs\n"
    "  in (zs, s)\n";

const char *kLoopSrc =
    "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
    "  loop (ys = xs) for i < 5 do\n"
    "    map (\\(y: i32): i32 -> y + i) ys\n";

const char *kPipeSrc =
    "fun main (n: i32) (xs: [n]f32) (ws: [n]f32): f32 =\n"
    "  let a = map (\\(x: f32) (w: f32): f32 -> x * w + 0.5) xs ws\n"
    "  let b = scan (+) 0.0 a\n"
    "  let c = map (\\(x: f32): f32 -> x * 0.25) b\n"
    "  in reduce (+) 0.0 c\n";

} // namespace

//===----------------------------------------------------------------------===//
// EngineTimeline scheduling rules
//===----------------------------------------------------------------------===//

TEST(EngineTimelineTest, UploadOverlapsInFlightKernel) {
  EngineTimeline TL;
  ScheduledCmd K = TL.kernel(/*DepsReady=*/0, /*LaunchCycles=*/10,
                             /*PipelineFrac=*/0.5, /*ExecCycles=*/100);
  // First kernel on an idle device pays the full launch cost.
  EXPECT_DOUBLE_EQ(K.Start, 10);
  EXPECT_DOUBLE_EQ(K.End, 110);

  // An independent upload issued while the kernel is in flight runs on
  // the copy engine from host time 0.
  ScheduledCmd U = TL.upload(50);
  EXPECT_DOUBLE_EQ(U.Start, 0);
  EXPECT_DOUBLE_EQ(U.End, 50);
  EXPECT_TRUE(U.OverlappedOtherEngine);

  // Makespan is the kernel's end, not the serial sum 110 + 50.
  EXPECT_DOUBLE_EQ(TL.makespan(), 110);
  EXPECT_DOUBLE_EQ(TL.copyBusy(), 50);
}

TEST(EngineTimelineTest, DownloadOfEarlyResultOverlapsLaterKernel) {
  EngineTimeline TL;
  ScheduledCmd K1 = TL.kernel(0, 10, 0.5, 100); // ends at 110
  TL.kernel(K1.End, 10, 0.5, 200);              // in flight until ~315
  // K1's buffer is ready at 110; the host blocks on the download while
  // the second kernel keeps computing.
  ScheduledCmd D = TL.download(40, K1.End);
  EXPECT_DOUBLE_EQ(D.Start, 110);
  EXPECT_DOUBLE_EQ(D.End, 150);
  EXPECT_TRUE(D.OverlappedOtherEngine);
  // The second kernel, not the download, determines the makespan.
  EXPECT_GT(TL.makespan(), D.End);
}

TEST(EngineTimelineTest, BackToBackKernelsPipelineTheLaunch) {
  EngineTimeline TL;
  ScheduledCmd K1 = TL.kernel(0, 10, 0.5, 100);
  ScheduledCmd K2 = TL.kernel(K1.End, 10, 0.5, 100);
  // The second kernel only serialises the un-pipelined launch residue:
  // (1 - 0.5) * 10 cycles after the engine frees, not the full 10.
  EXPECT_DOUBLE_EQ(K2.Start, K1.End + 5);
  // Serial model would charge 2 * (10 + 100) = 220.
  EXPECT_DOUBLE_EQ(TL.makespan(), 215);
}

TEST(EngineTimelineTest, BarrierSerialisesBothEngines) {
  EngineTimeline TL;
  TL.kernel(0, 10, 0.5, 100);
  TL.upload(500); // copy engine busy past the kernel
  double Before = TL.makespan();
  TL.barrier(64);
  EXPECT_DOUBLE_EQ(TL.makespan(), Before + 64);
  // Nothing issued after the barrier can start before it.
  ScheduledCmd U = TL.upload(1);
  EXPECT_GE(U.Start, Before + 64);
  ScheduledCmd K = TL.kernel(0, 10, 0.5, 1);
  EXPECT_GE(K.Start, Before + 64);
}

TEST(EngineTimelineTest, RecvWaitsForCrossDeviceDependencyNotTheHost) {
  EngineTimeline TL;
  // The producing device finishes the block at cycle 300 (on its own
  // timeline); this device's copy engine and host are both idle at 0.
  ScheduledCmd R = TL.recv(40, /*SrcReady=*/300);
  EXPECT_DOUBLE_EQ(R.Start, 300);
  EXPECT_DOUBLE_EQ(R.End, 340);
  // Non-blocking: the receiving host does not advance — only the copy
  // engine is committed.
  EXPECT_DOUBLE_EQ(TL.hostClock(), 0);
  EXPECT_DOUBLE_EQ(TL.makespan(), 340);
  EXPECT_DOUBLE_EQ(TL.copyBusy(), 40);

  // A ready source (SrcReady in the past) degenerates to upload timing:
  // the in-order copy queue, not the dependency, decides the start.
  ScheduledCmd R2 = TL.recv(10, /*SrcReady=*/50);
  EXPECT_DOUBLE_EQ(R2.Start, R.End);
  EXPECT_DOUBLE_EQ(R2.End, R.End + 10);
  EXPECT_DOUBLE_EQ(TL.hostClock(), 0);
}

TEST(EngineTimelineTest, RecvOrderingOnTheCopyEngine) {
  EngineTimeline TL;
  // An upload occupies the copy engine first; the receive queues behind
  // it in order even though its cross-device dependency was ready long
  // before.
  ScheduledCmd U = TL.upload(100);
  ScheduledCmd R = TL.recv(30, /*SrcReady=*/20);
  EXPECT_DOUBLE_EQ(R.Start, U.End);
  EXPECT_DOUBLE_EQ(R.End, U.End + 30);

  // And a later blocking download queues behind the receive: the host
  // finally synchronises at its end.
  ScheduledCmd D = TL.download(5, /*SrcReady=*/0);
  EXPECT_DOUBLE_EQ(D.Start, R.End);
  EXPECT_DOUBLE_EQ(TL.hostClock(), D.End);
}

TEST(EngineTimelineTest, RecvOverlapsInFlightKernel) {
  EngineTimeline TL;
  ScheduledCmd K = TL.kernel(0, 10, 0.5, 200); // in flight until 210
  ScheduledCmd R = TL.recv(50, /*SrcReady=*/0);
  EXPECT_DOUBLE_EQ(R.Start, 0);
  EXPECT_TRUE(R.OverlappedOtherEngine);
  // The kernel, not the inter-device copy, determines the makespan.
  EXPECT_DOUBLE_EQ(TL.makespan(), K.End);
}

TEST(EngineTimelineTest, RecvRespectsBarriers) {
  EngineTimeline TL;
  TL.kernel(0, 10, 0.5, 100);
  double Before = TL.makespan();
  TL.barrier(64);
  // A receive issued after a retry barrier cannot start before it, even
  // with an immediately-ready source block.
  ScheduledCmd R = TL.recv(8, /*SrcReady=*/0);
  EXPECT_GE(R.Start, Before + 64);
  // And a receive whose dependency lands beyond the barrier waits for
  // the dependency, not the barrier.
  ScheduledCmd R2 = TL.recv(8, /*SrcReady=*/R.End + 500);
  EXPECT_DOUBLE_EQ(R2.Start, R.End + 500);
}

TEST(EngineTimelineTest, HostClockSyncAcrossPeerTimelines) {
  // Two devices share one logical host: before issuing on B, the driver
  // syncs B's host clock forward to A's (DeviceGroup's rule, "no device
  // launches work the host has not reached yet").
  EngineTimeline A, B;
  A.host(120); // host-side work accounted on A's timeline
  EXPECT_DOUBLE_EQ(A.hostClock(), 120);
  EXPECT_DOUBLE_EQ(B.hostClock(), 0);

  B.syncHost(A.hostClock());
  EXPECT_DOUBLE_EQ(B.hostClock(), 120);
  // Monotone: syncing to an older time never moves the clock backwards.
  B.syncHost(60);
  EXPECT_DOUBLE_EQ(B.hostClock(), 120);

  // A non-blocking receive starts no earlier than the synced host time,
  // and still leaves the host clock untouched.
  ScheduledCmd R = B.recv(10, /*SrcReady=*/0);
  EXPECT_DOUBLE_EQ(R.Start, 120);
  EXPECT_DOUBLE_EQ(B.hostClock(), 120);
  // A blocking download is what finally advances the shared host.
  ScheduledCmd D = B.download(10, R.End);
  EXPECT_DOUBLE_EQ(B.hostClock(), D.End);
  EXPECT_GT(B.hostClock(), 120);
}

TEST(EngineTimelineTest, MakespanNeverExceedsSerialSum) {
  // A deterministic mixed command sequence; after every command the
  // makespan stays bounded by the sum of the serial charges.
  EngineTimeline TL;
  double Serial = 0;
  double Ready = 0;
  for (int I = 0; I < 64; ++I) {
    switch (I % 5) {
    case 0: {
      double C = 10 + (I % 7) * 3;
      TL.host(C);
      Serial += C;
      break;
    }
    case 1: {
      double C = 20 + (I % 11) * 5;
      ScheduledCmd U = TL.upload(C);
      Ready = U.End;
      Serial += C;
      break;
    }
    case 2:
    case 3: {
      double L = 10, Exec = 50 + (I % 13) * 9;
      ScheduledCmd K = TL.kernel(Ready, L, 0.5, Exec);
      Ready = K.End;
      Serial += L + Exec;
      break;
    }
    case 4: {
      double C = 15 + (I % 3) * 4;
      TL.download(C, Ready);
      Serial += C;
      break;
    }
    }
    EXPECT_LE(TL.makespan(), Serial + 1e-9) << "command " << I;
    EXPECT_LE(TL.copyBusy(), TL.makespan() + 1e-9);
    EXPECT_LE(TL.computeBusy(), TL.makespan() + 1e-9);
  }
}

//===----------------------------------------------------------------------===//
// --sync ablation: the pre-async serial model, bit for bit
//===----------------------------------------------------------------------===//

TEST(SyncAblationTest, ReproducesHistoricalTotalsBitForBit) {
  DeviceParams GTX = DeviceParams::gtx780();
  GTX.AsyncTimeline = false;
  DeviceParams AMD = DeviceParams::w8100();
  AMD.AsyncTimeline = false;

  struct Pin {
    const char *Src;
    std::vector<Value> Args;
    double TotalGTX, TotalAMD;
  };
  const Pin Pins[] = {
      {kTraceSrc, i32Args(128), 15032.4, 66033.130434782608},
      {kLoopSrc, i32Args(64), 25056.0, 110056.69565217392},
      {kPipeSrc, f32Args2(256), 20066.0, 88068.260869565216},
  };
  for (const Pin &Pn : Pins) {
    auto G = run(Pn.Src, Pn.Args, GTX);
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().str();
    EXPECT_DOUBLE_EQ(G->Cost.TotalCycles, Pn.TotalGTX);
    EXPECT_DOUBLE_EQ(G->Cost.TotalCycles, serialSum(G->Cost));
    auto A = run(Pn.Src, Pn.Args, AMD);
    ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
    EXPECT_DOUBLE_EQ(A->Cost.TotalCycles, Pn.TotalAMD);
  }

  // Component pins for one program, so a compensating error inside the
  // serial sum cannot slip through.
  auto G = run(kTraceSrc, i32Args(128), GTX);
  ASSERT_TRUE(static_cast<bool>(G));
  EXPECT_DOUBLE_EQ(G->Cost.KernelCycles, 15008.4);
  EXPECT_DOUBLE_EQ(G->Cost.HostCycles, 24.0);
  EXPECT_DOUBLE_EQ(G->Cost.TransferCycles, 0.0);
  EXPECT_DOUBLE_EQ(G->Cost.ExcludedTransferCycles, 128.0);
}

//===----------------------------------------------------------------------===//
// Asynchronous-mode invariants and savings
//===----------------------------------------------------------------------===//

TEST(AsyncTimelineTest, TotalBoundedByBusyAndSerial) {
  const std::pair<const char *, std::vector<Value>> Cases[] = {
      {kTraceSrc, i32Args(128)},
      {kLoopSrc, i32Args(64)},
      {kPipeSrc, f32Args2(256)},
  };
  for (const auto &[Src, Args] : Cases) {
    auto R = run(Src, Args);
    ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
    const CostReport &C = R->Cost;
    EXPECT_GE(C.TotalCycles, std::max(C.CopyEngineBusy, C.ComputeEngineBusy));
    EXPECT_LE(C.TotalCycles, serialSum(C));
    EXPECT_DOUBLE_EQ(C.OverlapSavedCycles, serialSum(C) - C.TotalCycles);
  }
}

TEST(AsyncTimelineTest, AsyncBeatsSyncOnKernelPipelines) {
  // Back-to-back dependent kernels pipeline part of the launch cost, so
  // the async makespan is strictly below the serial total.
  DeviceParams Sync = DeviceParams::gtx780();
  Sync.AsyncTimeline = false;
  for (const char *Src : {kTraceSrc, kLoopSrc, kPipeSrc}) {
    std::vector<Value> Args =
        Src == kPipeSrc ? f32Args2(256) : i32Args(Src == kLoopSrc ? 64 : 128);
    auto A = run(Src, Args);
    auto S = run(Src, Args, Sync);
    ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
    ASSERT_TRUE(static_cast<bool>(S)) << S.getError().str();
    EXPECT_LT(A->Cost.TotalCycles, S->Cost.TotalCycles) << Src;
    // The schedule changes the clock, never the answer.
    EXPECT_EQ(firstDifference(A->Outputs, S->Outputs), "") << Src;
  }
}

//===----------------------------------------------------------------------===//
// Bugfix regressions
//===----------------------------------------------------------------------===//

TEST(BufferManagerTest, PlannedLoopUsesHoistedDoubleBuffer) {
  // Five loop iterations over a 1024-byte array: the serial model leaked
  // every iteration's output (kernel results were only released by a host
  // readback), so a 3072-byte device OOMed on iteration 3.  Under the
  // static memory plan the carried array and the merge parameter share
  // one hoisted double-buffered slab, so per-iteration rebinds are
  // hoisted-slab flips that release the superseded generation, and the
  // run fits.
  DeviceParams DP = DeviceParams::gtx780();
  DP.DeviceMemBytes = 3072;
  Program P = compiled(kLoopSrc);
  ResilienceParams RS;
  RS.InterpFallback = false; // an OOM must fail, not degrade
  auto R = Device(DP, RS).runMain(P, i32Args(256));
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_FALSE(R->InterpFallback);
  EXPECT_LE(R->Cost.PeakDeviceBytes, 3072);
  // At least the four superseded iteration outputs were freed.
  EXPECT_GE(R->Cost.FreedBytes, 4 * 1024);
  // Observed residency stays within the plan-derived bound — a genuine
  // cross-check of the static layout against what the run charged, not a
  // copy of the same counter.
  EXPECT_GT(R->Cost.PlannedPeakBytes, 0);
  EXPECT_LE(R->Cost.PeakDeviceBytes, R->Cost.PlannedPeakBytes);
  EXPECT_GT(R->Cost.HoistedAllocs, 0);

  // The fault-free answer is unchanged by memory management.
  auto Want = fuzz::referenceRun(kLoopSrc, i32Args(256));
  ASSERT_TRUE(static_cast<bool>(Want));
  EXPECT_EQ(firstDifference(R->Outputs, *Want), "");
}

TEST(BufferManagerTest, WithoutPlanEveryNameGetsItsOwnSlot) {
  // A null plan gives every name an implicit slot of its own: bytes are
  // charged per allocation, shared by aliases, and released with the last
  // reference.  There is no plan bound to report.
  DeviceBufferManager M(0, nullptr);
  VName A("a", 1), B("b", 2), C("c", 3);
  EXPECT_TRUE(M.bind(A, 512, 0));
  EXPECT_TRUE(M.bind(B, 512, 0));
  EXPECT_EQ(M.liveBytes(), 1024);
  M.alias(C, A);
  M.release(A);
  EXPECT_EQ(M.liveBytes(), 1024) << "the alias keeps the block alive";
  M.release(C);
  EXPECT_EQ(M.liveBytes(), 512);
  EXPECT_EQ(M.freedBytes(), 512);
  EXPECT_EQ(M.peakBytes(), 1024);
  EXPECT_EQ(M.reusedBlocks(), 0);
  EXPECT_EQ(M.plannedPeakBytes(), 0);

  // At capacity a bind that does not fit changes nothing, while rebinding
  // a name releases its previous block first.
  DeviceBufferManager Cap(1024, nullptr);
  EXPECT_TRUE(Cap.bind(A, 1024, 0));
  EXPECT_FALSE(Cap.bind(B, 1, 0));
  EXPECT_FALSE(Cap.tracked(B));
  EXPECT_EQ(Cap.liveBytes(), 1024);
  EXPECT_TRUE(Cap.bind(A, 1024, 0));
  EXPECT_EQ(Cap.liveBytes(), 1024);
  EXPECT_EQ(Cap.freedBytes(), 1024);
}

TEST(BufferManagerTest, PlanSlabsShareStorageAndDoubleBuffer) {
  // A hand-built plan: slab 0 is a hoisted 2 x 1024-byte double buffer for
  // a loop-carried x and its merge parameter p; slab 1 is one 512-byte
  // block that a and then b occupy.
  mem::FunPlan Plan;
  Plan.Fun = "main";
  Plan.Slabs = {{0, 2048, "", /*Hoisted=*/true}, {1, 512, "", false}};
  VName X("x", 1), Pm("p", 2), A("a", 3), B("b", 4), Z("z", 5);
  auto Add = [&](const VName &N, int Slab, bool Hoisted, int Half) {
    mem::PlanEntry E;
    E.Name = N;
    E.Slab = Slab;
    E.Hoisted = Hoisted;
    E.BufferIndex = Half;
    Plan.EntryIndex[N] = static_cast<int>(Plan.Entries.size());
    Plan.Entries.push_back(E);
  };
  Add(X, 0, true, 0);
  Add(Pm, 0, true, 1);
  Add(A, 1, false, 0);
  Add(B, 1, false, 0);

  DeviceBufferManager M(2560, &Plan);
  // Both halves of the hoisted slab are charged at once.
  EXPECT_TRUE(M.bind(X, 1024, 0));
  EXPECT_TRUE(M.bind(Pm, 1024, 0));
  EXPECT_EQ(M.liveBytes(), 2048);
  // Rebinding x replaces its own half in place; it is a hoisted flip.
  EXPECT_TRUE(M.bind(X, 1024, 0));
  EXPECT_EQ(M.liveBytes(), 2048);
  EXPECT_EQ(M.hoistedAllocs(), 1);
  EXPECT_EQ(M.freedBytes(), 1024);

  // b takes over a's block: the stale occupant is evicted, not
  // double-charged, and releasing a afterwards frees nothing twice.
  EXPECT_TRUE(M.bind(A, 512, 0));
  EXPECT_EQ(M.liveBytes(), 2560);
  EXPECT_TRUE(M.bind(B, 512, 0));
  EXPECT_EQ(M.liveBytes(), 2560);
  EXPECT_EQ(M.reusedBlocks(), 1);
  M.release(A);
  EXPECT_EQ(M.liveBytes(), 2560);

  // The device is full: a name the plan does not cover gets an implicit
  // slot of its own and does not fit.
  EXPECT_FALSE(M.bind(Z, 1, 0));
  EXPECT_EQ(M.liveBytes(), 2560);

  // Releasing p vacates its half; the next generation lands there.
  M.release(Pm);
  EXPECT_EQ(M.liveBytes(), 1536);
  EXPECT_TRUE(M.bind(Pm, 1024, 0));
  EXPECT_EQ(M.hoistedAllocs(), 2);
  EXPECT_EQ(M.peakBytes(), 2560);
  // Every materialised slab half at its planned extent: 2 x 1024 + 512.
  EXPECT_EQ(M.plannedPeakBytes(), 2560);
}

TEST(BufferManagerTest, SameVariableReturnedTwiceDownloadsOnce) {
  // The final-download loop used to charge ExcludedTransferCycles once
  // per result position; (ys, ys) is one buffer and one download.
  const char *Src = "fun main (n: i32) (xs: [n]i32): ([n]i32, [n]i32) =\n"
                    "  let ys = map (\\(x: i32): i32 -> x + 1) xs\n"
                    "  in (ys, ys)\n";
  DeviceParams DP = DeviceParams::gtx780();
  auto R = run(Src, i32Args(64), DP);
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  const int64_t Bytes = 64 * 4;
  // One excluded upload of xs, one excluded download of ys.
  EXPECT_EQ(R->Cost.TransferredBytes, 2 * Bytes);
  EXPECT_DOUBLE_EQ(R->Cost.ExcludedTransferCycles,
                   2 * Bytes / DP.TransferBytesPerCycle);
}

TEST(TiledCostTest, ElementWidthReachesTiledTraffic) {
  // The N-body pattern triggers one-dimensional tiling.  The old formula
  // charged tiled traffic as TiledElementTouches * 4 bytes regardless of
  // the element kind, undercharging f64 tiles by half.
  const char *F32Src =
      "fun main (n: i32) (bodies: [n]f32): [n]f32 =\n"
      "  map (\\(p: f32): f32 ->\n"
      "         reduce (+) 0.0 (map (\\(q: f32): f32 -> q - p) bodies))\n"
      "      bodies";
  const char *F64Src =
      "fun main (n: i32) (bodies: [n]f64): [n]f64 =\n"
      "  map (\\(p: f64): f64 ->\n"
      "         reduce (+) 0.0f64 (map (\\(q: f64): f64 -> q - p) bodies))\n"
      "      bodies";

  auto MakeArgs = [](ScalarKind K, int N) {
    std::vector<PrimValue> E;
    for (int I = 0; I < N; ++I)
      E.push_back(K == ScalarKind::F32 ? PrimValue::makeF32(0.25f * I)
                                       : PrimValue::makeF64(0.25 * I));
    std::vector<Value> A;
    A.push_back(iv(N));
    A.push_back(Value::array(K, {N}, std::move(E)));
    return A;
  };

  auto RF = run(F32Src, MakeArgs(ScalarKind::F32, 128));
  auto RD = run(F64Src, MakeArgs(ScalarKind::F64, 128));
  ASSERT_TRUE(static_cast<bool>(RF)) << RF.getError().str();
  ASSERT_TRUE(static_cast<bool>(RD)) << RD.getError().str();

  ASSERT_GT(RF->Cost.TiledElementTouches, 0) << "tiling did not fire";
  EXPECT_EQ(RF->Cost.TiledElementTouches, RD->Cost.TiledElementTouches);
  // Byte totals carry the real element widths.
  EXPECT_EQ(RF->Cost.TiledElementBytes, 4 * RF->Cost.TiledElementTouches);
  EXPECT_EQ(RD->Cost.TiledElementBytes, 8 * RD->Cost.TiledElementTouches);
  // Transaction pins: 16512 touches through a 256-thread workgroup over
  // 128-byte segments is 2 tiled transactions at 4 bytes/element and 4 at
  // 8 bytes/element, on top of 4 (f32) / 8 (f64) output-write
  // transactions.  The old width-blind formula charged the f64 run only 2
  // tiled transactions (a total of 10, not 12); the f32 charge is
  // bit-identical under both formulas.
  EXPECT_EQ(RF->Cost.GlobalTransactions, 6);
  EXPECT_EQ(RD->Cost.GlobalTransactions, 12);
}

TEST(BufferManagerTest, ReadbackKeepsDeviceCopyValid) {
  // Dual residency: a host reduce over a kernel result forces a readback,
  // but a later kernel re-using the same array must not re-upload it.
  // (In --sync mode the historical phantom re-upload is reproduced.)
  const char *Src =
      "fun main (n: i32) (xs: [n]i32): ([n]i32, i32) =\n"
      "  let ys = map (\\(x: i32): i32 -> x * 3) xs\n"
      "  let s = ys[0]\n"
      "  let zs = map (\\(y: i32): i32 -> y + s) ys\n"
      "  in (zs, s)\n";
  DeviceParams Sync = DeviceParams::gtx780();
  Sync.AsyncTimeline = false;
  auto A = run(Src, i32Args(64));
  auto S = run(Src, i32Args(64), Sync);
  ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
  ASSERT_TRUE(static_cast<bool>(S)) << S.getError().str();
  // Sync pays readback + re-upload of ys; async only the readback.
  EXPECT_EQ(S->Cost.TransferredBytes - A->Cost.TransferredBytes, 64 * 4);
  EXPECT_GT(S->Cost.TransferCycles, A->Cost.TransferCycles);
}
