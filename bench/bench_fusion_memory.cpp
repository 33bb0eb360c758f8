//===- bench_fusion_memory.cpp - Figure 10's streaming fusion ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Regenerates the OptionPricing fusion story of Fig 10: the stream_map
// producer fuses with the consuming reduce into a stream_red (rule F6), and
// the per-thread memory footprint of the fused form is compared against the
// unfused pipeline (the paper's point is that fusion + sequentialisation
// shrinks the footprint from O(chunk) arrays to scalars).
//
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "driver/Compiler.h"
#include "gpusim/Device.h"
#include "ir/Traversal.h"

#include <cstdio>

using namespace fut;

namespace {

const char *Fig10 =
    "fun main (n: i32): f32 =\n"
    "  let ys = stream_map (\\(iss: [m]i32): [m]f32 ->\n"
    "        let seed = if m > 0 then iss[0] else 0\n"
    "        let a = loop (a = f32 seed) for q < 30 do a * 0.9 + 0.1\n"
    "        let t = map (\\(i: i32): f32 -> a + f32 i * 0.001) iss\n"
    "        in scan (+) 0.0 t)\n"
    "      (iota n)\n"
    "  in reduce (+) 0.0 ys";

int countStreams(const Body &B, StreamExp::FormKind Form, bool &Found) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (const auto *St = expDynCast<StreamExp>(S.E.get()))
      if (St->Form == Form) {
        ++N;
        Found = true;
      }
    forEachChildBody(*S.E, [&](const Body &Inner) {
      N += countStreams(Inner, Form, Found);
    });
  }
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  printf("Figure 10: fusion of streaming operators (OptionPricing "
         "skeleton)\n\n");

  int64_t N = 16384;
  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(
      static_cast<int32_t>(N)))};

  fut::bench::BenchTraceWriter Trace(fut::bench::traceOutPath(Argc, Argv));

  // Fused pipeline.
  Trace.beginRun();
  NameSource NS1;
  CompilerOptions Fused;
  auto CF = compileSource(Fig10, NS1, Fused);
  if (!CF) {
    fprintf(stderr, "compile failed: %s\n", CF.getError().Message.c_str());
    return 1;
  }
  printf("stream fusions performed (F6): %d (stream_map + reduce -> "
         "stream_red, Fig 10a -> 10b)\n",
         CF->Fusion.StreamFusions);

  gpusim::Device D;
  auto RF = D.runMain(CF->P, Args);
  if (RF)
    Trace.record("fig10-optionpricing", "gtx780",
                 {{"variant_fused", 1},
                  {"total_cycles", RF->Cost.TotalCycles},
                  {"global_tx", (double)RF->Cost.GlobalTransactions},
                  {"private_accesses", (double)RF->Cost.PrivateAccesses},
                  {"kernel_launches", (double)RF->Cost.KernelLaunches},
                  {"overlap_saved", RF->Cost.OverlapSavedCycles},
                  {"peak_device_bytes", (double)RF->Cost.PeakDeviceBytes},
                  {"planned_peak_bytes", (double)RF->Cost.PlannedPeakBytes},
                  {"freed_bytes", (double)RF->Cost.FreedBytes}});

  // Unfused pipeline.
  Trace.beginRun();
  NameSource NS2;
  CompilerOptions Unfused;
  Unfused.EnableFusion = false;
  auto CU = compileSource(Fig10, NS2, Unfused);
  if (!CU) {
    fprintf(stderr, "compile failed: %s\n", CU.getError().Message.c_str());
    return 1;
  }

  auto RU = D.runMain(CU->P, Args);
  if (RU)
    Trace.record("fig10-optionpricing", "gtx780",
                 {{"variant_fused", 0},
                  {"total_cycles", RU->Cost.TotalCycles},
                  {"global_tx", (double)RU->Cost.GlobalTransactions},
                  {"private_accesses", (double)RU->Cost.PrivateAccesses},
                  {"kernel_launches", (double)RU->Cost.KernelLaunches},
                  {"overlap_saved", RU->Cost.OverlapSavedCycles},
                  {"peak_device_bytes", (double)RU->Cost.PeakDeviceBytes},
                  {"planned_peak_bytes", (double)RU->Cost.PlannedPeakBytes},
                  {"freed_bytes", (double)RU->Cost.FreedBytes}});
  if (!RF || !RU) {
    fprintf(stderr, "run failed\n");
    return 1;
  }

  printf("\n%-24s %14s %14s\n", "", "fused (10c)", "unfused (10a)");
  printf("%-24s %14.0f %14.0f\n", "total cycles", RF->Cost.TotalCycles,
         RU->Cost.TotalCycles);
  printf("%-24s %14lld %14lld\n", "global transactions",
         (long long)RF->Cost.GlobalTransactions,
         (long long)RU->Cost.GlobalTransactions);
  printf("%-24s %14lld %14lld\n", "private accesses",
         (long long)RF->Cost.PrivateAccesses,
         (long long)RU->Cost.PrivateAccesses);
  printf("%-24s %14lld %14lld\n", "kernel launches",
         (long long)RF->Cost.KernelLaunches,
         (long long)RU->Cost.KernelLaunches);
  printf("%-24s %14lld %14lld\n", "peak device bytes",
         (long long)RF->Cost.PeakDeviceBytes,
         (long long)RU->Cost.PeakDeviceBytes);
  printf("\nfusion speedup: %.2fx; the fused form runs the whole pipeline "
         "in one kernel\nwithout materialising the intermediate [n] "
         "array.\n",
         RU->Cost.TotalCycles / RF->Cost.TotalCycles);

  // Static memory planning on a loop-heavy in-place pipeline: each
  // iteration materialises a large matrix, row-updates it in place, and
  // folds it into a small carried accumulator.  The planner proves the
  // update consumes its input and aliases both into one slab, so the run
  // peaks at a single large block rather than holding the consumed input
  // and the fresh output at once (EXPERIMENTS.md E13).
  const char *LoopHeavy =
      "fun main (n: i32): [64]f32 =\n"
      "  loop (acc = replicate 64 0.0) for i < 8 do\n"
      "    let big = map (\\(j: i32): [256]f32 ->\n"
      "                     map (\\(k: i32): f32 -> f32 (j + k + i) * 0.001)\n"
      "                         (iota 256))\n"
      "                  (iota 64)\n"
      "    let big2 = map (\\(r: [256]f32): [256]f32 -> r with [0] <- 1.0)\n"
      "                   big\n"
      "    in map (\\(j: i32): f32 -> acc[j] + big2[j, 0] + big2[j, 1])\n"
      "           (iota 64)";
  std::vector<Value> LArgs = {Value::scalar(PrimValue::makeI32(8))};
  NameSource NS3;
  auto CL = compileSource(LoopHeavy, NS3);
  if (!CL) {
    fprintf(stderr, "compile failed: %s\n", CL.getError().Message.c_str());
    return 1;
  }
  Trace.beginRun();
  auto RP = gpusim::Device().runMain(CL->P, LArgs);
  if (!RP) {
    fprintf(stderr, "loop-heavy run failed\n");
    return 1;
  }
  Trace.record("memplan-loop-inplace", "gtx780",
               {{"planned_peak_bytes", (double)RP->Cost.PlannedPeakBytes},
                {"peak_device_bytes_plan", (double)RP->Cost.PeakDeviceBytes},
                {"hoisted_allocs", (double)RP->Cost.HoistedAllocs},
                {"reused_blocks", (double)RP->Cost.ReusedBlocks},
                {"total_cycles", RP->Cost.TotalCycles}});
  printf("\nstatic memory planning (loop-heavy in-place pipeline, 8 "
         "iterations):\n");
  printf("%-24s %14lld\n", "planned peak (bound)",
         (long long)RP->Cost.PlannedPeakBytes);
  printf("%-24s %14lld\n", "peak bytes",
         (long long)RP->Cost.PeakDeviceBytes);
  printf("%-24s %14lld\n", "reused blocks",
         (long long)RP->Cost.ReusedBlocks);

  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("\nfused/unfused trace counters written to %s\n",
           Trace.path().c_str());
  return 0;
}
