//===- bench_histogram.cpp - Generalized-histogram benchmarks --------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The CGO'20 generalized-histogram evaluation shapes, ported to
// reduce_by_index: the CUDA-SDK 256-bin byte histogram, the Parboil histo
// (wide, saturating), and the k-means accumulation step phrased as a
// histogram of per-cluster partial sums.  Each shape carries a
// hand-written reference-implementation model (RefConfig) and the compiled
// program must stay within its baseline.
//
// A second section sweeps histogram width at fixed input size under the
// forced-global lowering to expose the atomic-contention model: narrower
// histograms concentrate updates on fewer 128-byte segments, so
// AtomicConflicts must peak at the narrowest width and fall monotonically
// as the width grows.  A final two-row comparison shows the
// local-subhistogram vs global-atomics switch at the HistLocalWidthMax
// threshold.  All counters land in BENCH_trace.json.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "bench_suite/Benchmarks.h"
#include "support/Utils.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace fut;
using namespace fut::bench;

namespace {

/// Deterministic inputs: n plus a pseudo-random non-negative [n]i32.
std::vector<Value> makeData(int64_t N, uint64_t Salt, int64_t Range) {
  SplitMix64 Rng(0x9157a6 + Salt);
  std::vector<PrimValue> Elems;
  for (int64_t I = 0; I < N; ++I)
    Elems.push_back(PrimValue::makeI32(
        static_cast<int32_t>(Rng.nextBelow(static_cast<uint64_t>(Range)))));
  return {Value::scalar(PrimValue::makeI32(static_cast<int32_t>(N))),
          Value::array(ScalarKind::I32, {N}, std::move(Elems))};
}

std::vector<BenchmarkDef> histogramSuite() {
  std::vector<BenchmarkDef> Suite;

  // CUDA-SDK histogram: 256 counting bins over byte-valued data.  The
  // SDK reference keeps per-warp subhistograms in shared memory and is
  // heavily hand-tuned, which the calibration factor models; its
  // structural model runs one combinator at a time (bin computation not
  // fused into the update pass).
  {
    BenchmarkDef B;
    B.Name = "histogram-sdk";
    B.Suite = "cgo20";
    B.Source =
        "fun main (n: i32) (xs: [n]i32): [256]i32 =\n"
        "  let bins = map (\\(x: i32): i32 -> x % 256) xs\n"
        "  let ones = map (\\(x: i32): i32 -> 1) xs\n"
        "  in reduce_by_index (replicate 256 0) (+) 0 bins ones\n";
    B.MakeInputs = [] { return makeData(1 << 17, 1, 1 << 20); };
    B.Ref.Fusion = false;
    B.Ref.HandTuningGTX = 1.1;
    B.Ref.HandTuningW8100 = 1.1;
    Suite.push_back(B);
  }

  // Parboil histo: a wide histogram (beyond the local-memory threshold,
  // so the global-atomic lowering fires) whose counts saturate at 255.
  // Saturation is a post-pass min — the accumulation operator itself must
  // stay commutative.  The Parboil reference is uncoalesced scatter code.
  {
    BenchmarkDef B;
    B.Name = "histogram-parboil";
    B.Suite = "cgo20";
    B.Source =
        "fun main (n: i32) (xs: [n]i32): [8192]i32 =\n"
        "  let bins = map (\\(x: i32): i32 -> x % 8192) xs\n"
        "  let ones = map (\\(x: i32): i32 -> 1) xs\n"
        "  let h = reduce_by_index (replicate 8192 0) (+) 0 bins ones\n"
        "  in map (\\(c: i32): i32 -> if c < 255 then c else 255) h\n";
    B.MakeInputs = [] { return makeData(1 << 17, 2, 1 << 22); };
    B.Ref.Fusion = false;
    B.Ref.Coalescing = false;
    Suite.push_back(B);
  }

  // k-means accumulation: per-cluster partial sums of the point values,
  // i.e. the histogram phrasing of the kmeans update step (CGO'20's
  // motivating application).  Narrow (k = 32), so contention is maximal
  // and the local-subhistogram lowering carries it.  The reference model
  // mirrors the Rodinia kmeans baseline: reductions on the host.
  {
    BenchmarkDef B;
    B.Name = "histogram-kmeans";
    B.Suite = "cgo20";
    B.Source =
        "fun main (n: i32) (xs: [n]i32): i32 =\n"
        "  let cs = map (\\(x: i32): i32 -> x % 32) xs\n"
        "  let vs = map (\\(x: i32): i32 -> x / 32) xs\n"
        "  let sums = reduce_by_index (replicate 32 0) (+) 0 cs vs\n"
        "  let cnts = reduce_by_index (replicate 32 0) (+) 0 cs\n"
        "                             (map (\\(x: i32): i32 -> 1) xs)\n"
        "  let upd = map (\\(s: i32) (c: i32): i32 ->\n"
        "                   if c == 0 then 0 else s / c) sums cnts\n"
        "  in reduce (+) 0 upd\n";
    B.MakeInputs = [] { return makeData(1 << 16, 3, 1 << 18); };
    B.Ref.ReduceOnHost = true;
    B.Ref.Fusion = false;
    Suite.push_back(B);
  }

  return Suite;
}

/// One width of the contention sweep: same input, different bin count.
std::string sweepSource(int64_t W) {
  std::string Ws = std::to_string(W);
  return "fun main (n: i32) (xs: [n]i32): [" + Ws + "]i32 =\n"
         "  let bins = map (\\(x: i32): i32 -> x % " + Ws + ") xs\n"
         "  let ones = map (\\(x: i32): i32 -> 1) xs\n"
         "  in reduce_by_index (replicate " + Ws + " 0) (+) 0 bins ones\n";
}

ErrorOr<gpusim::CostReport> runSweep(int64_t W,
                                     const gpusim::DeviceParams &DP,
                                     const std::vector<Value> &Inputs) {
  NameSource NS;
  auto C = compileSource(sweepSource(W), NS, CompilerOptions());
  if (!C)
    return C.getError();
  DeviceRunOptions RO;
  RO.Device = DP;
  RO.MemPlan = &C->MemPlan;
  auto R = runOnDevice(C->P, Inputs, RO);
  if (!R)
    return R.getError();
  return R->Cost;
}

} // namespace

int main(int Argc, char **Argv) {
  printf("Generalized histograms: CGO'20 shapes + atomic-contention "
         "curves\n\n");

  BenchTraceWriter Trace(traceOutPath(Argc, Argv));
  bool Ok = true;

  // --- Part 1: the CGO'20 benchmark shapes vs their reference models ---
  printf("%-18s | %10s %10s %7s | %9s %9s\n", "benchmark", "fut(gtx)",
         "ref(gtx)", "spdup", "atomic_tx", "conflicts");
  gpusim::DeviceParams GTX = gpusim::DeviceParams::gtx780();
  GTX.AsyncTimeline = false;

  for (const BenchmarkDef &B : histogramSuite()) {
    // Value transparency first: the compiled program must agree with the
    // reference interpreter before any timing is reported.
    auto V = runBenchmark(B, CompilerOptions(),
                          gpusim::DeviceParams::gtx780(), /*Verify=*/true);
    if (!V) {
      printf("%-18s FAILED verification: %s\n", B.Name.c_str(),
             V.getError().Message.c_str());
      return 1;
    }
    auto S = measureSpeedup(B, GTX);
    if (!S) {
      printf("%-18s FAILED: %s\n", B.Name.c_str(),
             S.getError().Message.c_str());
      return 1;
    }
    printf("%-18s | %10.0f %10.0f %6.2fx | %9lld %9lld\n", B.Name.c_str(),
           S->FutharkCycles, S->RefCycles, S->Speedup,
           static_cast<long long>(S->FutharkCost.AtomicTransactions),
           static_cast<long long>(S->FutharkCost.AtomicConflicts));
    Trace.beginRun();
    Trace.record(B.Name, "gtx780",
                 {{"fut_cycles", S->FutharkCycles},
                  {"ref_cycles", S->RefCycles},
                  {"speedup", S->Speedup},
                  {"atomic_tx",
                   static_cast<double>(S->FutharkCost.AtomicTransactions)},
                  {"atomic_conflicts",
                   static_cast<double>(S->FutharkCost.AtomicConflicts)}});
    // The compiled program fuses the bin computation into the update pass
    // and picks the lowering per width; it must stay within the reference
    // baseline (speedup >= 1 after hand-tuning calibration).
    if (S->Speedup < 1.0) {
      printf("%-18s REGRESSION: slower than its reference baseline\n",
             B.Name.c_str());
      Ok = false;
    }
  }

  // --- Part 2: contention curve under the forced-global lowering ---
  // One input, shrinking bin count: fewer 128-byte destination segments
  // per warp batch means more lanes collide on one segment, so conflicts
  // rise as the width narrows while issued transactions fall.
  printf("\ncontention sweep (forced global atomics, n = 2^17):\n");
  printf("%8s | %10s %10s %12s\n", "width", "atomic_tx", "conflicts",
         "makespan");
  gpusim::DeviceParams Global = gpusim::DeviceParams::gtx780();
  Global.HistLocalWidthMax = 0; // force the global-atomic strategy
  std::vector<Value> SweepIn = makeData(1 << 17, 7, 1 << 22);
  const int64_t Widths[] = {16, 128, 1024, 8192, 65536};
  int64_t PrevConflicts = -1;
  int64_t FirstConflicts = 0, LastConflicts = 0;
  for (int64_t W : Widths) {
    auto C = runSweep(W, Global, SweepIn);
    if (!C) {
      printf("width %lld FAILED: %s\n", static_cast<long long>(W),
             C.getError().Message.c_str());
      return 1;
    }
    printf("%8lld | %10lld %10lld %12.0f\n", static_cast<long long>(W),
           static_cast<long long>(C->AtomicTransactions),
           static_cast<long long>(C->AtomicConflicts), C->TotalCycles);
    Trace.beginRun();
    Trace.record("hist-contention", "width=" + std::to_string(W),
                 {{"width", static_cast<double>(W)},
                  {"atomic_tx", static_cast<double>(C->AtomicTransactions)},
                  {"atomic_conflicts",
                   static_cast<double>(C->AtomicConflicts)},
                  {"makespan", C->TotalCycles}});
    if (PrevConflicts >= 0 && C->AtomicConflicts > PrevConflicts) {
      printf("width %lld REGRESSION: conflicts rose as width grew\n",
             static_cast<long long>(W));
      Ok = false;
    }
    if (PrevConflicts < 0)
      FirstConflicts = C->AtomicConflicts;
    LastConflicts = C->AtomicConflicts;
    PrevConflicts = C->AtomicConflicts;
  }
  if (FirstConflicts <= LastConflicts) {
    printf("REGRESSION: narrowest width is not the conflict worst case\n");
    Ok = false;
  }

  // --- Part 3: the lowering switch at HistLocalWidthMax ---
  // Same program either side of the threshold: below it the local
  // strategy runs conflict-free (subhistogram merges only); above it the
  // global strategy pays per-collision serialisation.
  printf("\nlowering switch (default threshold %lld):\n",
         static_cast<long long>(gpusim::DeviceParams::gtx780()
                                    .HistLocalWidthMax));
  printf("%8s %8s | %10s %10s\n", "width", "strategy", "atomic_tx",
         "conflicts");
  gpusim::DeviceParams Default = gpusim::DeviceParams::gtx780();
  for (int64_t W : {int64_t(4096), int64_t(8192)}) {
    auto C = runSweep(W, Default, SweepIn);
    if (!C) {
      printf("width %lld FAILED: %s\n", static_cast<long long>(W),
             C.getError().Message.c_str());
      return 1;
    }
    bool Local = W <= Default.HistLocalWidthMax;
    printf("%8lld %8s | %10lld %10lld\n", static_cast<long long>(W),
           Local ? "local" : "global",
           static_cast<long long>(C->AtomicTransactions),
           static_cast<long long>(C->AtomicConflicts));
    Trace.beginRun();
    Trace.record("hist-switch", std::string(Local ? "local" : "global"),
                 {{"width", static_cast<double>(W)},
                  {"atomic_tx", static_cast<double>(C->AtomicTransactions)},
                  {"atomic_conflicts",
                   static_cast<double>(C->AtomicConflicts)}});
    if (Local && C->AtomicConflicts != 0) {
      printf("REGRESSION: local strategy charged global conflicts\n");
      Ok = false;
    }
    if (!Local && C->AtomicConflicts == 0) {
      printf("REGRESSION: global strategy saw no contention\n");
      Ok = false;
    }
  }

  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("\nhistogram counters written to %s\n", Trace.path().c_str());
  return Ok ? 0 : 1;
}
