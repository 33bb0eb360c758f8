//===- trace_export_test.cpp - Chrome-trace schema and cost-audit tests ------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the trace layer's Chrome trace_event export end to end: the
/// JSON parses, spans nest properly on the timeline, every kernel span
/// carries simulated cycles and the coalesced/scattered transaction
/// breakdown, and the trace composes with fault injection — retry events
/// appear, and no simulated cycle is double-counted: the per-kernel span
/// cycles sum exactly to CostReport::KernelCycles, the retry instants sum
/// to RetryCycles, and TotalCycles obeys the two-engine invariants —
/// bounded above by the serial sum
/// KernelCycles + HostCycles + TransferCycles + RetryCycles (to which the
/// --sync ablation pins it exactly) and below by each engine's busy time.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Compiler.h"
#include "support/Json.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fut;

namespace {

const char *kProgram =
    "fun main (n: i32) (xs: [n]i32): ([n]i32, i32) =\n"
    "  let ys = map (\\(x: i32): i32 -> x * 3 + 1) xs\n"
    "  let zs = scan (+) 0 ys\n"
    "  let s = reduce max (0 - 1000000) zs\n"
    "  in (zs, s)\n";

std::vector<Value> programArgs() {
  std::vector<PrimValue> Elems;
  for (int I = 0; I < 128; ++I)
    Elems.push_back(PrimValue::makeI32(I * 3 - 190));
  std::vector<Value> Args;
  Args.push_back(Value::scalar(PrimValue::makeI32(128)));
  Args.push_back(Value::array(ScalarKind::I32, {128}, std::move(Elems)));
  return Args;
}

/// Compiles and runs kProgram under a fresh enabled trace session and
/// returns the device result; the session stays enabled for inspection
/// (callers clear it).  With \p Devices > 1 the program runs with its
/// shard plan on that many devices, and with its memory plan.
ErrorOr<gpusim::RunResult>
runTraced(const gpusim::ResilienceParams &RP = gpusim::ResilienceParams(),
          gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780(),
          int Devices = 1) {
  auto &TS = trace::TraceSession::global();
  TS.clear();
  TS.setEnabled(true);
  NameSource Names;
  auto C = compileSource(kProgram, Names);
  if (!C)
    return C.getError();
  DeviceRunOptions RO;
  RO.Device = DP;
  RO.Resilience = RP;
  if (Devices > 1) {
    RO.MemPlan = &C->MemPlan;
    RO.Shards = &C->Shards;
    RO.Devices = Devices;
  }
  return runOnDevice(C->P, programArgs(), RO);
}

void endSession() {
  trace::TraceSession::global().setEnabled(false);
  trace::TraceSession::global().clear();
}

double sumKernelSpanCycles() {
  double Sum = 0;
  for (const trace::TraceEvent &E : trace::TraceSession::global().events())
    if (!E.Instant && E.Name.rfind("kernel:", 0) == 0) {
      const trace::TraceArg *A = E.findArg("cycles");
      EXPECT_NE(A, nullptr) << "kernel span without cycles: " << E.Name;
      if (A)
        Sum += A->Num;
    }
  return Sum;
}

double sumRetryInstantCycles(int *Count = nullptr) {
  double Sum = 0;
  for (const trace::TraceEvent &E : trace::TraceSession::global().events())
    if (E.Instant && E.Name == "retry-backoff") {
      if (Count)
        ++*Count;
      const trace::TraceArg *A = E.findArg("cycles");
      EXPECT_NE(A, nullptr) << "retry instant without cycles";
      if (A)
        Sum += A->Num;
    }
  return Sum;
}

TEST(TraceExport, ChromeTraceParsesWithExpectedSchema) {
  auto R = runTraced();
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();

  auto Doc = json::parse(trace::TraceSession::global().chromeTraceJson());
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().str();
  ASSERT_TRUE(Doc->isObject());
  const json::Value *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_FALSE(Events->Arr.empty());

  int PassSpans = 0, KernelSpans = 0;
  std::vector<std::string> ThreadNames;
  for (const json::Value &E : Events->Arr) {
    ASSERT_TRUE(E.isObject());
    std::string Ph = E.getString("ph");
    EXPECT_TRUE(Ph == "X" || Ph == "i" || Ph == "C" || Ph == "M")
        << "ph=" << Ph;
    EXPECT_FALSE(E.getString("name").empty());
    if (Ph == "M") {
      // Thread-name metadata announcing the per-engine tracks.
      EXPECT_EQ(E.getString("name"), "thread_name");
      const json::Value *Args = E.get("args");
      ASSERT_NE(Args, nullptr);
      ThreadNames.push_back(Args->getString("name"));
      continue;
    }
    if (Ph == "X") {
      EXPECT_NE(E.get("ts"), nullptr);
      EXPECT_NE(E.get("dur"), nullptr);
      EXPECT_GE(E.getNumber("dur", -1), 0);
    }
    std::string Name = E.getString("name");
    if (Name.rfind("pass:", 0) == 0)
      ++PassSpans;
    if (Name.rfind("kernel:", 0) == 0) {
      ++KernelSpans;
      const json::Value *Args = E.get("args");
      ASSERT_NE(Args, nullptr) << Name;
      EXPECT_GT(Args->getNumber("cycles", -1), 0);
      double Tx = Args->getNumber("global_tx", -1);
      double Co = Args->getNumber("coalesced_tx", -1);
      double Sc = Args->getNumber("scattered_tx", -1);
      EXPECT_GE(Tx, 0);
      EXPECT_GE(Co, 0);
      EXPECT_GE(Sc, 0);
      EXPECT_EQ(Tx, Co + Sc) << "transaction breakdown must partition";
    }
  }
  // One span per compiler pass, one per kernel launch.
  EXPECT_GE(PassSpans, 5); // frontend, uniqueness, inline, simplify x3, ...
  EXPECT_GE(KernelSpans, 2);
  // Both device engines register their tracks.
  EXPECT_NE(std::find(ThreadNames.begin(), ThreadNames.end(), "copy-engine"),
            ThreadNames.end());
  EXPECT_NE(std::find(ThreadNames.begin(), ThreadNames.end(),
                      "compute-engine"),
            ThreadNames.end());
  endSession();
}

TEST(TraceExport, SpansNestOnTheTimeline) {
  auto R = runTraced();
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();

  auto Doc = json::parse(trace::TraceSession::global().chromeTraceJson());
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().str();
  const json::Value *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);

  struct Span {
    std::string Name;
    double Start, End;
  };
  std::vector<Span> Spans;
  for (const json::Value &E : Events->Arr)
    if (E.getString("ph") == "X")
      Spans.push_back({E.getString("name"), E.getNumber("ts"),
                       E.getNumber("ts") + E.getNumber("dur")});

  // Spans must form a forest: any two either nest or are disjoint.
  const double Eps = 0.5; // µs slack for clock granularity
  for (size_t A = 0; A < Spans.size(); ++A)
    for (size_t B = A + 1; B < Spans.size(); ++B) {
      const Span &X = Spans[A], &Y = Spans[B];
      bool Disjoint =
          X.End <= Y.Start + Eps || Y.End <= X.Start + Eps;
      bool XinY = X.Start >= Y.Start - Eps && X.End <= Y.End + Eps;
      bool YinX = Y.Start >= X.Start - Eps && Y.End <= X.End + Eps;
      EXPECT_TRUE(Disjoint || XinY || YinX)
          << X.Name << " [" << X.Start << "," << X.End << ") overlaps "
          << Y.Name << " [" << Y.Start << "," << Y.End << ")";
    }

  // Kernel spans must sit inside the device-run span.
  const Span *DeviceRun = nullptr;
  for (const Span &S : Spans)
    if (S.Name == "device-run")
      DeviceRun = &S;
  ASSERT_NE(DeviceRun, nullptr);
  for (const Span &S : Spans)
    if (S.Name.rfind("kernel:", 0) == 0) {
      EXPECT_GE(S.Start, DeviceRun->Start - Eps);
      EXPECT_LE(S.End, DeviceRun->End + Eps);
    }
  endSession();
}

TEST(TraceExport, KernelSpanCyclesSumToCostReport) {
  auto R = runTraced();
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  double SpanSum = sumKernelSpanCycles();
  EXPECT_NEAR(SpanSum, R->Cost.KernelCycles,
              1e-6 * std::max(1.0, R->Cost.KernelCycles));
  endSession();
}

TEST(TraceExport, CostTotalsArePinnedFaultFree) {
  // Asynchronous (default) mode: TotalCycles is the two-engine makespan,
  // bounded above by the serial sum and below by each engine's busy time.
  auto R = runTraced();
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  const gpusim::CostReport &C = R->Cost;
  double Serial =
      C.KernelCycles + C.HostCycles + C.TransferCycles + C.RetryCycles;
  EXPECT_LE(C.TotalCycles, Serial);
  EXPECT_GE(C.TotalCycles, std::max(C.CopyEngineBusy, C.ComputeEngineBusy));
  EXPECT_DOUBLE_EQ(C.OverlapSavedCycles, Serial - C.TotalCycles);
  EXPECT_EQ(C.RetryCycles, 0);
  EXPECT_EQ(C.FaultsInjected, 0);
  EXPECT_EQ(C.GlobalTransactions,
            C.CoalescedTransactions + C.ScatteredTransactions);
  endSession();

  // --sync ablation: the serial accounting of the pre-async model, exact
  // to the bit (the pinned constant is the historical TotalCycles for
  // this program on gtx780).
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();
  DP.AsyncTimeline = false;
  auto RSync = runTraced(gpusim::ResilienceParams(), DP);
  ASSERT_TRUE(static_cast<bool>(RSync)) << RSync.getError().str();
  const gpusim::CostReport &CS = RSync->Cost;
  EXPECT_DOUBLE_EQ(CS.TotalCycles, CS.KernelCycles + CS.HostCycles +
                                       CS.TransferCycles + CS.RetryCycles);
  EXPECT_DOUBLE_EQ(CS.TotalCycles, 15032.4);
  EXPECT_DOUBLE_EQ(CS.CopyEngineBusy, 0);
  EXPECT_DOUBLE_EQ(CS.ComputeEngineBusy, 0);
  EXPECT_DOUBLE_EQ(CS.OverlapSavedCycles, 0);
  endSession();
}

TEST(TraceExport, FaultInjectionComposesWithoutDoubleCounting) {
  // Find a fault seed whose run both injects faults and succeeds; the
  // stream is deterministic per seed, so the scan itself is deterministic.
  bool Found = false;
  for (uint64_t Seed = 1; Seed <= 50 && !Found; ++Seed) {
    gpusim::ResilienceParams RP;
    RP.Faults.LaunchFailRate = 0.25;
    RP.Faults.CorruptRate = 0.1;
    RP.Faults.Seed = Seed;
    RP.MaxRetries = 8;
    auto R = runTraced(RP);
    if (!R || R->InterpFallback || R->Cost.FaultsInjected == 0) {
      endSession();
      continue;
    }
    Found = true;

    int RetryInstants = 0;
    double RetrySum = sumRetryInstantCycles(&RetryInstants);
    EXPECT_GT(RetryInstants, 0) << "retried run must emit retry instants";
    EXPECT_EQ(RetryInstants, R->Cost.RetriedLaunches);
    EXPECT_NEAR(RetrySum, R->Cost.RetryCycles,
                1e-6 * std::max(1.0, R->Cost.RetryCycles));

    int FaultInstants = 0;
    for (const trace::TraceEvent &E :
         trace::TraceSession::global().events())
      if (E.Instant && (E.Name == "fault:launch-failed" ||
                        E.Name == "fault:result-corrupted"))
        ++FaultInstants;
    EXPECT_EQ(FaultInstants, R->Cost.FaultsInjected);

    // Retried kernels appear once per actual execution, and their span
    // cycles still sum exactly to KernelCycles — nothing double-counted.
    double SpanSum = sumKernelSpanCycles();
    EXPECT_NEAR(SpanSum, R->Cost.KernelCycles,
                1e-6 * std::max(1.0, R->Cost.KernelCycles));

    const gpusim::CostReport &C = R->Cost;
    double Serial =
        C.KernelCycles + C.HostCycles + C.TransferCycles + C.RetryCycles;
    EXPECT_LE(C.TotalCycles, Serial);
    // Retry backoffs serialise the device, so they are never hidden by
    // engine overlap.
    EXPECT_GE(C.TotalCycles,
              std::max(C.CopyEngineBusy, C.ComputeEngineBusy) +
                  C.RetryCycles);
    EXPECT_GT(C.RetryCycles, 0);
    endSession();
  }
  EXPECT_TRUE(Found)
      << "no seed in 1..50 produced a faulty-but-successful run";
}

TEST(TraceExport, WatchdogFallbackKeepsTotalsAndEmitsInstant) {
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();
  DP.WatchdogKernelCycles = 1; // every kernel is killed immediately
  gpusim::ResilienceParams RP;
  RP.InterpFallback = true;
  auto R = runTraced(RP, DP);
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  ASSERT_TRUE(R->InterpFallback);

  // The killed kernel's span records the cycles actually charged.
  double SpanSum = sumKernelSpanCycles();
  EXPECT_NEAR(SpanSum, R->Cost.KernelCycles, 1e-9);
  EXPECT_EQ(R->Cost.WatchdogKills, 1);

  bool SawKill = false, SawFallback = false;
  for (const trace::TraceEvent &E : trace::TraceSession::global().events()) {
    if (E.Instant && E.Name == "watchdog-kill")
      SawKill = true;
    if (E.Instant && E.Name == "interp-fallback")
      SawFallback = true;
  }
  EXPECT_TRUE(SawKill);
  EXPECT_TRUE(SawFallback);

  const gpusim::CostReport &C = R->Cost;
  EXPECT_DOUBLE_EQ(C.TotalCycles, C.KernelCycles + C.HostCycles +
                                      C.TransferCycles + C.RetryCycles);
  endSession();
}

TEST(TraceExport, ShardedWatchdogKillKeepsSpanSum) {
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();
  DP.WatchdogKernelCycles = 1; // every kernel is killed immediately
  gpusim::ResilienceParams RP;
  RP.InterpFallback = true;
  auto R = runTraced(RP, DP, /*Devices=*/2);
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  ASSERT_TRUE(R->InterpFallback);
  EXPECT_EQ(R->Cost.WatchdogKills, 1);

  // The killed sharded launch emits a span carrying the charged budget,
  // exactly like a killed single-device launch.
  EXPECT_NEAR(sumKernelSpanCycles(), R->Cost.KernelCycles, 1e-9);
  bool SawKilledSpan = false;
  for (const trace::TraceEvent &E : trace::TraceSession::global().events())
    if (!E.Instant && E.Name.rfind("kernel:", 0) == 0 && E.findArg("killed"))
      SawKilledSpan = true;
  EXPECT_TRUE(SawKilledSpan);
  endSession();
}

} // namespace
