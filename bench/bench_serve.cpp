//===- bench_serve.cpp - Serving throughput and resilience (E14) ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E14: the economics of compile-once/serve-many.  Two legs:
///
///  * throughput — a repeated-program workload (four programs, three
///    argument sizes, 120 requests) through one server; reports the
///    cache hit rate (misses are exactly the distinct programs), the
///    sustained request rate over the simulated timeline, and the
///    hit-vs-miss service latency gap the artifact cache buys;
///
///  * soak — the same workload with a 40% injected launch-failure rate
///    and 10% corruption per request; every request must still complete
///    (retried, quarantine-recompiled, or degraded to the interpreter),
///    which is the serving layer's robustness headline.
///
/// Both legs record their counters into BENCH_trace.json (consumed by
/// the CI serve leg and EXPERIMENTS.md E14).
///
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "serve/Serve.h"

#include <cstdio>
#include <vector>

using namespace fut;

namespace {

/// Simulated device clock for converting cycles to wall-time-equivalent
/// rates: ~1 GHz, the order of the GTX 780's boost clock.
constexpr double kCyclesPerSecond = 1e9;

struct Program {
  const char *Name;
  const char *Source;
};

const Program kPrograms[] = {
    {"sumsq",
     "fun main (n: i32): i32 =\n"
     "  reduce (+) 0 (map (\\(i: i32): i32 -> i * i) (iota n))\n"},
    {"polyfold",
     "fun main (n: i32): i32 =\n"
     "  reduce (+) 0 (map (\\(i: i32): i32 -> (i * 3 + 1) * (i % 7))\n"
     "                    (iota n))\n"},
    {"scanlast",
     "fun main (n: i32): i32 =\n"
     "  let s = scan (+) 0 (iota n)\n"
     "  in s[n - 1]\n"},
    {"maskedsum",
     "fun main (n: i32): i32 =\n"
     "  reduce (+) 0 (map (\\(i: i32): i32 -> if i % 3 == 0 then i else 0)\n"
     "                    (iota n))\n"},
};
constexpr int kNumPrograms =
    static_cast<int>(sizeof(kPrograms) / sizeof(kPrograms[0]));
constexpr int kRequests = 120;
constexpr double kArrivalGap = 20000;

struct LegResult {
  serve::ServerStats Stats;
  int Ok = 0, Failed = 0;
  double HitServiceAvg = 0, MissServiceAvg = 0;
  double Makespan = 0;
};

LegResult runLeg(double FaultRate, double CorruptRate) {
  serve::Server S;
  const int32_t Sizes[] = {256, 512, 1024};
  for (int I = 0; I < kRequests; ++I) {
    serve::ServeRequest R;
    R.Source = kPrograms[I % kNumPrograms].Source;
    R.Args.push_back(Value::scalar(
        PrimValue::makeI32(Sizes[(I / kNumPrograms) % 3])));
    R.ArrivalCycle = I * kArrivalGap;
    R.Limits.LaunchFailRate = FaultRate;
    R.Limits.CorruptRate = CorruptRate;
    R.Limits.FaultSeed = 0x5eedULL + I;
    S.submit(std::move(R));
  }

  LegResult L;
  double HitSum = 0, MissSum = 0;
  int Hits = 0, Misses = 0;
  for (const serve::ServeResponse &R : S.drain()) {
    if (R.Ok)
      ++L.Ok;
    else
      ++L.Failed;
    if (R.CacheHit) {
      HitSum += R.serviceCycles();
      ++Hits;
    } else {
      MissSum += R.serviceCycles();
      ++Misses;
    }
  }
  L.Stats = S.stats();
  L.HitServiceAvg = Hits ? HitSum / Hits : 0;
  L.MissServiceAvg = Misses ? MissSum / Misses : 0;
  L.Makespan = L.Stats.LastCompletionCycle;
  return L;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchTraceWriter Trace(bench::traceOutPath(Argc, Argv));

  printf("E14: compile-once/serve-many (%d requests, %d programs x 3 "
         "sizes)\n\n",
         kRequests, kNumPrograms);

  // Leg 1: fault-free throughput.
  Trace.beginRun();
  LegResult T = runLeg(0, 0);
  double HitRate = T.Stats.cacheHitRate();
  double ReqPerSec =
      T.Makespan > 0 ? kRequests / (T.Makespan / kCyclesPerSecond) : 0;
  printf("throughput leg:\n");
  printf("  completed            %d/%d\n", T.Ok, kRequests);
  printf("  cache                %lld hits / %lld misses (%.1f%% hit "
         "rate)\n",
         static_cast<long long>(T.Stats.CacheHits),
         static_cast<long long>(T.Stats.CacheMisses), 100 * HitRate);
  printf("  sustained rate       %.0f requests/sec (simulated, %.2fM "
         "cycles makespan)\n",
         ReqPerSec, T.Makespan / 1e6);
  printf("  service cycles       hit avg %.0f vs miss avg %.0f (%.1fx "
         "cheaper)\n",
         T.HitServiceAvg, T.MissServiceAvg,
         T.HitServiceAvg > 0 ? T.MissServiceAvg / T.HitServiceAvg : 0);
  printf("  admission            %lld solo + %lld packed, peak %lld "
         "tenants, peak reserved %lld bytes\n\n",
         static_cast<long long>(T.Stats.SoloRuns),
         static_cast<long long>(T.Stats.PackedRuns),
         static_cast<long long>(T.Stats.PeakResidentTenants),
         static_cast<long long>(T.Stats.PeakReservedBytes));
  Trace.record("serve_throughput", "gtx780",
               {{"requests", kRequests},
                {"completed", T.Ok},
                {"cache_hit_rate", HitRate},
                {"requests_per_sec", ReqPerSec},
                {"makespan_cycles", T.Makespan},
                {"hit_service_cycles", T.HitServiceAvg},
                {"miss_service_cycles", T.MissServiceAvg},
                {"peak_reserved_bytes",
                 static_cast<double>(T.Stats.PeakReservedBytes)}});

  // Leg 2: the 40% fault soak.
  Trace.beginRun();
  LegResult F = runLeg(0.4, 0.1);
  printf("soak leg (40%% launch faults, 10%% corruption):\n");
  printf("  completed            %d/%d (%d device failures absorbed)\n",
         F.Ok, kRequests, static_cast<int>(F.Stats.DeviceFailures));
  printf("  recovery             %lld quarantined, %lld recompiles, %lld "
         "interpreter fallbacks\n",
         static_cast<long long>(F.Stats.Quarantined),
         static_cast<long long>(F.Stats.Recompiles),
         static_cast<long long>(F.Stats.Fallbacks));
  printf("  cache                %.1f%% hit rate (fault recovery does not "
         "evict good artifacts)\n",
         100 * F.Stats.cacheHitRate());
  Trace.record("serve_soak", "gtx780",
               {{"requests", kRequests},
                {"completed", F.Ok},
                {"fault_rate", 0.4},
                {"device_failures",
                 static_cast<double>(F.Stats.DeviceFailures)},
                {"quarantined", static_cast<double>(F.Stats.Quarantined)},
                {"fallbacks", static_cast<double>(F.Stats.Fallbacks)},
                {"cache_hit_rate", F.Stats.cacheHitRate()}});

  bool Pass = T.Ok == kRequests && F.Ok == kRequests && HitRate >= 0.9;
  printf("\n%s: throughput %d/%d, soak %d/%d, hit rate %.1f%% (>= 90%% "
         "required)\n",
         Pass ? "PASS" : "FAIL", T.Ok, kRequests, F.Ok, kRequests,
         100 * HitRate);

  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("serve trace counters written to %s\n", Trace.path().c_str());
  return Pass ? 0 : 1;
}
