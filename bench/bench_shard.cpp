//===- bench_shard.cpp - Multi-device sharding scaling curves --------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Strong-scaling curves for the shard planner: each benchmark is compiled
// once and run at 1, 2, 4 and 8 simulated devices, and the makespan speedup
// over the single-device baseline is reported per device count.  The
// suite is map-pipeline-heavy by design — flat kernels whose aligned
// producer/consumer chains stay block-partitioned end to end, which is
// exactly the shape Section 5's flattening guarantees and the shape that
// should scale; a reduction-tailed member is included to show the
// all-gather + unsharded-kernel tax.  Outputs at every device count are
// checked bit-identical to the 1-device run before any timing is
// reported, and all counters land in BENCH_trace.json.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "driver/Compiler.h"
#include "support/Utils.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace fut;
using namespace fut::bench;

namespace {

struct ScalingBench {
  std::string Name;
  std::string Source;
  int64_t N; ///< outer width; every kernel shards along it
  /// True for the aligned-chain members that must scale (the regression
  /// gate and the 1.5x@4 expectation apply); false for the reduce-tail
  /// anti-pattern member, whose all-gather tax is the point being shown.
  bool ExpectScaling = true;
};

/// Deterministic inputs: n plus a pseudo-random [n]i32.
std::vector<Value> makeInputs(int64_t N) {
  SplitMix64 Rng(0x5ca11ab1eULL);
  std::vector<PrimValue> Elems;
  for (int64_t I = 0; I < N; ++I)
    Elems.push_back(PrimValue::makeI32(
        static_cast<int32_t>(Rng.nextBelow(2001)) - 1000));
  return {Value::scalar(PrimValue::makeI32(static_cast<int32_t>(N))),
          Value::array(ScalarKind::I32, {N}, std::move(Elems))};
}

std::vector<ScalingBench> scalingSuite() {
  std::vector<ScalingBench> Suite;

  // A deep chain of cheap maps: every kernel is sharded, every
  // producer/consumer edge is aligned, no inter-device traffic at all.
  Suite.push_back(
      {"map-chain",
       "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
       "  let a = map (\\(x: i32): i32 -> x * 3 + 1) xs\n"
       "  let b = map (\\(x: i32): i32 -> x - x / 7) a\n"
       "  let c = map (\\(x: i32): i32 -> x * x + 13) b\n"
       "  let d = map (\\(x: i32): i32 -> x % 1000003) c\n"
       "  let e = map (\\(x: i32): i32 -> x * 5 - 7) d\n"
       "  let f = map (\\(x: i32): i32 -> x + x / 3) e\n"
       "  in map (\\(x: i32): i32 -> x * 2 + 1) f\n",
       1 << 19});

  // Compute-dense threads: an inner reduction over a thread-private iota
  // gives each row real arithmetic, so kernel time dwarfs launch cost.
  Suite.push_back(
      {"inner-reduce",
       "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
       "  map (\\(x: i32): i32 -> reduce (+) x (iota 1024)) xs\n",
       1 << 14});

  // A sequential loop in every thread (k-means / nbody inner-loop shape).
  Suite.push_back(
      {"thread-loop",
       "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
       "  map (\\(x: i32): i32 ->\n"
       "         loop (acc = x) for i < 1024 do acc + i * 3 - acc / 5)\n"
       "      xs\n",
       1 << 14});

  // The anti-pattern member: a reduction tail forces an all-gather of the
  // partitioned chain output into an unsharded segmented reduction, so
  // scaling flattens — the curve documents the decomposition tax.
  Suite.push_back(
      {"reduce-tail",
       "fun main (n: i32) (xs: [n]i32): i32 =\n"
       "  let a = map (\\(x: i32): i32 -> x * x + 1) xs\n"
       "  let b = map (\\(x: i32): i32 -> x - x / 9) a\n"
       "  in reduce (+) 0 b\n",
       1 << 15, /*ExpectScaling=*/false});

  return Suite;
}

} // namespace

int main(int Argc, char **Argv) {
  printf("Multi-device sharding: strong scaling at 1/2/4/8 devices\n");
  printf("(simulated makespan cycles; speedup vs the 1-device run)\n\n");
  printf("%-14s %8s | %12s %8s | %10s %10s %8s\n", "benchmark", "devices",
         "makespan", "speedup", "interdev_B", "shard_lnch", "peak0_B");

  BenchTraceWriter Trace(traceOutPath(Argc, Argv));
  const int DeviceCounts[] = {1, 2, 4, 8};
  int FourDeviceWins = 0;
  bool Ok = true;

  for (const ScalingBench &B : scalingSuite()) {
    std::vector<Value> Inputs = makeInputs(B.N);
    double Baseline = 0;
    std::vector<Value> BaseOutputs;

    // One artifact runs at every device count.
    NameSource NS;
    auto C = compileSource(B.Source, NS);
    if (!C) {
      printf("%-14s FAILED to compile: %s\n", B.Name.c_str(),
             C.getError().Message.c_str());
      return 1;
    }
    for (int Devices : DeviceCounts) {
      DeviceRunOptions RO;
      RO.MemPlan = &C->MemPlan;
      if (Devices > 1) {
        RO.Shards = &C->Shards;
        RO.Devices = Devices;
      }
      auto R = runOnDevice(C->P, Inputs, RO);
      if (!R) {
        printf("%-14s FAILED at %d devices: %s\n", B.Name.c_str(), Devices,
               R.getError().Message.c_str());
        return 1;
      }

      // Value transparency first, timing second: every device count must
      // reproduce the 1-device outputs bit-for-bit.
      if (Devices == 1) {
        Baseline = R->Cost.TotalCycles;
        BaseOutputs = R->Outputs;
      } else {
        std::string Diff = firstDifference(R->Outputs, BaseOutputs);
        if (!Diff.empty()) {
          printf("%-14s result drift at %d devices: %s\n", B.Name.c_str(),
                 Devices, Diff.c_str());
          return 1;
        }
      }

      double Speedup =
          R->Cost.TotalCycles > 0 ? Baseline / R->Cost.TotalCycles : 0;
      int64_t Peak0 = R->Cost.PerDevicePeakBytes.empty()
                          ? R->Cost.PeakDeviceBytes
                          : R->Cost.PerDevicePeakBytes[0];
      printf("%-14s %8d | %12.0f %7.2fx | %10lld %10lld %8lld\n",
             B.Name.c_str(), Devices, R->Cost.TotalCycles, Speedup,
             static_cast<long long>(R->Cost.InterDeviceBytes),
             static_cast<long long>(R->Cost.ShardedLaunches),
             static_cast<long long>(Peak0));

      Trace.beginRun();
      Trace.record(B.Name, "devices=" + std::to_string(Devices),
                   {{"devices", static_cast<double>(Devices)},
                    {"makespan", R->Cost.TotalCycles},
                    {"speedup", Speedup},
                    {"kernel_cycles", R->Cost.KernelCycles},
                    {"interdev_bytes",
                     static_cast<double>(R->Cost.InterDeviceBytes)},
                    {"interdev_cycles", R->Cost.InterDeviceCycles},
                    {"sharded_launches",
                     static_cast<double>(R->Cost.ShardedLaunches)},
                    {"peak_dev0_bytes", static_cast<double>(Peak0)}});

      if (Devices == 4 && B.ExpectScaling && Speedup >= 1.5)
        ++FourDeviceWins;
      // Aligned chains have no inter-device traffic, so more devices can
      // only shrink the makespan; the reduce-tail member is exempt — its
      // all-gather tax exceeding the kernel saving is the result.
      if (B.ExpectScaling && Devices > 1 &&
          R->Cost.TotalCycles > Baseline * 1.0001) {
        printf("%-14s REGRESSION: %d devices slower than 1\n",
               B.Name.c_str(), Devices);
        Ok = false;
      }
    }
    printf("\n");
  }

  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("shard scaling counters written to %s\n", Trace.path().c_str());

  printf("benchmarks with >= 1.5x makespan speedup at 4 devices: %d\n",
         FourDeviceWins);
  if (FourDeviceWins < 2) {
    printf("FAILED: expected at least 2 scaling-suite members to reach "
           "1.5x at 4 devices\n");
    return 1;
  }
  return Ok ? 0 : 1;
}
