//===- serve_test.cpp - The serving layer's robustness contracts ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts of futharkcc-serve, each as a test: artifact caching
/// (hit/miss, options keying, LRU bounds), bounded-queue load shedding
/// with typed Overload errors, deadlines (queued expiry and completion
/// overrun), per-request fault isolation (one tenant's injected faults
/// never poison the cache or another tenant), quarantine-recompile of
/// persistently failing artifacts, graceful degradation to the reference
/// interpreter, capacity-aware admission (summed reservations never
/// exceed device memory), and drain completeness (every submission gets
/// exactly one response — never a hang, never a drop).
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace fut;
using namespace fut::serve;

namespace {

const char *kSumSq = "fun main (n: i32): i32 =\n"
                     "  reduce (+) 0 (map (\\(i: i32): i32 -> i * i) "
                     "(iota n))\n";

const char *kScan = "fun main (n: i32): i32 =\n"
                    "  let s = scan (+) 0 (iota n)\n"
                    "  in s[n - 1]\n";

ServeRequest request(const char *Source, int32_t N, double Arrival = 0) {
  ServeRequest R;
  R.Source = Source;
  R.Args.push_back(Value::scalar(PrimValue::makeI32(N)));
  R.ArrivalCycle = Arrival;
  return R;
}

/// Drains and indexes responses by id.
std::map<uint64_t, ServeResponse> drainById(Server &S) {
  std::map<uint64_t, ServeResponse> ById;
  for (ServeResponse &R : S.drain())
    ById.emplace(R.Id, std::move(R));
  return ById;
}

TEST(ServeCache, RepeatedProgramHitsAfterFirstMiss) {
  Server S;
  S.submit(request(kSumSq, 64, 0));
  S.submit(request(kSumSq, 64, 1000));
  S.submit(request(kSumSq, 64, 2000));
  auto R = drainById(S);
  ASSERT_EQ(R.size(), 3u);
  for (uint64_t Id : {1u, 2u, 3u})
    ASSERT_EQ(R.count(Id), 1u) << "missing response id " << Id;
  EXPECT_FALSE(R.at(1).CacheHit);
  EXPECT_TRUE(R.at(2).CacheHit);
  EXPECT_TRUE(R.at(3).CacheHit);
  for (auto &KV : R) {
    EXPECT_TRUE(KV.second.Ok) << KV.second.Message;
    EXPECT_FALSE(KV.second.InterpFallback);
  }
  EXPECT_EQ(S.cacheSize(), 1u);
  EXPECT_EQ(S.stats().Compiles, 1);
  EXPECT_EQ(S.stats().CacheHits, 2);
  EXPECT_EQ(S.stats().CacheMisses, 1);
  // Hits must be visibly cheaper on the simulated timeline: they skip
  // the CompileCycles charge.
  EXPECT_LT(R.at(2).serviceCycles(), R.at(1).serviceCycles());
}

TEST(ServeCache, CompilerOptionsKeyTheArtifact) {
  Server S;
  ServeRequest A = request(kSumSq, 64, 0);
  ServeRequest B = request(kSumSq, 64, 1000);
  B.Compile.EnableFusion = false;
  S.submit(std::move(A));
  S.submit(std::move(B));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_FALSE(R.at(1).CacheHit);
  EXPECT_FALSE(R.at(2).CacheHit) << "different options must not share an "
                                    "artifact";
  EXPECT_EQ(S.cacheSize(), 2u);
  EXPECT_EQ(S.stats().Compiles, 2);
}

TEST(ServeCache, LruEvictionBoundsTheCache) {
  ServerConfig C;
  C.MaxCacheEntries = 1;
  Server S(C);
  S.submit(request(kSumSq, 64, 0));
  S.submit(request(kScan, 64, 100000));
  S.submit(request(kSumSq, 64, 200000));
  auto R = drainById(S);
  for (auto &KV : R)
    EXPECT_TRUE(KV.second.Ok) << KV.second.Message;
  EXPECT_EQ(S.cacheSize(), 1u);
  // The third request re-compiles: its entry was the one evicted.
  ASSERT_EQ(R.count(3), 1u);
  EXPECT_FALSE(R.at(3).CacheHit);
  EXPECT_EQ(S.stats().Compiles, 3);
}

TEST(ServeQueue, OverloadIsShedTyped) {
  ServerConfig C;
  C.MaxQueueDepth = 2;
  Server S(C);
  // Five simultaneous arrivals into a depth-2 queue: the first is
  // admitted immediately (it goes queue -> device within the same
  // instant), two wait, and the rest must be shed as Overload.
  for (int I = 0; I < 5; ++I)
    S.submit(request(kSumSq, 64, 0));
  auto R = drainById(S);
  ASSERT_EQ(R.size(), 5u);
  int Ok = 0, Shed = 0;
  for (auto &KV : R) {
    if (KV.second.Ok)
      ++Ok;
    else {
      EXPECT_EQ(KV.second.Error, ErrorKind::Overload) << KV.second.Message;
      ++Shed;
    }
  }
  EXPECT_EQ(Shed, S.stats().ShedOverload);
  EXPECT_GT(Shed, 0);
  EXPECT_GT(Ok, 0);
  EXPECT_EQ(Ok + Shed, 5);
}

TEST(ServeDeadline, QueuedExpiryIsShedTyped) {
  Server S;
  // First request occupies the device (compile + run); the second's
  // deadline expires while it waits behind it.
  S.submit(request(kSumSq, 64, 0));
  ServeRequest Late = request(kScan, 64, 1);
  Late.Limits.DeadlineCycles = 10; // far less than CompileCycles
  S.submit(std::move(Late));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_TRUE(R.at(1).Ok);
  EXPECT_FALSE(R.at(2).Ok);
  EXPECT_EQ(R.at(2).Error, ErrorKind::Deadline);
  EXPECT_EQ(R.at(2).Attempts, 0) << "expired requests must not run";
  EXPECT_EQ(S.stats().ShedDeadline, 1);
}

TEST(ServeDeadline, CompletionOverrunIsReported) {
  Server S;
  ServeRequest Rq = request(kSumSq, 64, 0);
  Rq.Limits.DeadlineCycles = 1; // admitted instantly, but any run overruns
  S.submit(std::move(Rq));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  EXPECT_FALSE(R.at(1).Ok);
  EXPECT_EQ(R.at(1).Error, ErrorKind::Deadline);
  EXPECT_GE(R.at(1).Attempts, 1)
      << "the run happened; only the contract broke";
  EXPECT_TRUE(R.at(1).Outputs.empty());
  EXPECT_EQ(S.stats().DeadlineMissed, 1);
}

TEST(ServeIsolation, OneTenantsFaultsNeverPoisonAnother) {
  Server S;
  // Tenant A: every launch fails, no fallback allowed -> typed failure.
  ServeRequest A = request(kSumSq, 64, 0);
  A.Limits.LaunchFailRate = 1.0;
  A.Limits.FaultSeed = 7;
  A.Limits.AllowFallback = false;
  // Tenant B: same program, clean limits, arrives later.
  ServeRequest B = request(kSumSq, 64, 1);
  S.submit(std::move(A));
  S.submit(std::move(B));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_FALSE(R.at(1).Ok);
  EXPECT_TRUE(R.at(1).Error == ErrorKind::TransientFault ||
              R.at(1).Error == ErrorKind::Watchdog ||
              R.at(1).Error == ErrorKind::DeviceOOM)
      << R.at(1).Message;
  // B is served from the same cache entry, cleanly, on the device.
  EXPECT_TRUE(R.at(2).Ok) << R.at(2).Message;
  EXPECT_TRUE(R.at(2).CacheHit);
  EXPECT_FALSE(R.at(2).InterpFallback);
  ASSERT_EQ(R.at(2).Outputs.size(), 1u);
}

TEST(ServeIsolation, PerRequestLimitsAreIndependent) {
  Server S;
  // A watchdog budget only request 1 carries: it kills request 1's
  // kernels, and must not leak into request 2 (same program, no budget).
  ServeRequest A = request(kSumSq, 4096, 0);
  A.Limits.WatchdogKernelCycles = 1; // every kernel overruns this
  A.Limits.AllowFallback = false;
  ServeRequest B = request(kSumSq, 4096, 1);
  S.submit(std::move(A));
  S.submit(std::move(B));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_FALSE(R.at(1).Ok);
  EXPECT_EQ(R.at(1).Error, ErrorKind::Watchdog) << R.at(1).Message;
  EXPECT_TRUE(R.at(2).Ok) << R.at(2).Message;
  EXPECT_FALSE(R.at(2).InterpFallback);
}

TEST(ServeDegradation, FallbackThatAlsoFailsIsTyped) {
  // Every launch fails, so the request degrades; the interpreter then hits
  // the program's own division by zero.
  Server S;
  ServeRequest A = request("fun main (n: i32): i32 =\n"
                           "  let xs = map (\\(i: i32): i32 -> i * i) (iota n)\n"
                           "  in xs[1] / (n - n)",
                           64, 0);
  A.Limits.LaunchFailRate = 1.0;
  A.Limits.FaultSeed = 3;
  S.submit(std::move(A));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  EXPECT_FALSE(R.at(1).Ok);
  EXPECT_EQ(R.at(1).Error, ErrorKind::FallbackExhausted);
  const std::string &Msg = R.at(1).Message;
  EXPECT_EQ(Msg.rfind("device failed (", 0), 0u) << Msg;
  EXPECT_NE(Msg.find(") and the interpreter fallback also failed: "),
            std::string::npos)
      << Msg;
  EXPECT_EQ(S.stats().Fallbacks, 1);
}

TEST(ServeDegradation, PersistentFaultsFallBackToInterpreter) {
  Server S;
  ServeRequest A = request(kSumSq, 64, 0);
  A.Limits.LaunchFailRate = 1.0;
  A.Limits.FaultSeed = 3;
  S.submit(std::move(A));
  // A clean request afterwards: the artifact (possibly recompiled by
  // quarantine) still serves from the device.
  S.submit(request(kSumSq, 64, 1));
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_TRUE(R.at(1).Ok) << R.at(1).Message;
  EXPECT_TRUE(R.at(1).InterpFallback) << "100% launch failures must degrade";
  EXPECT_TRUE(R.at(1).Recompiled) << "quarantine must have recompiled first";
  EXPECT_TRUE(R.at(2).Ok) << R.at(2).Message;
  EXPECT_FALSE(R.at(2).InterpFallback);
  ASSERT_EQ(R.at(1).Outputs.size(), R.at(2).Outputs.size());
  ASSERT_FALSE(R.at(1).Outputs.empty());
  EXPECT_TRUE(R.at(1).Outputs[0] == R.at(2).Outputs[0])
      << "degraded and device results must agree";
  EXPECT_EQ(S.stats().Quarantined, 1);
  EXPECT_EQ(S.stats().Recompiles, 1);
  EXPECT_EQ(S.stats().Fallbacks, 1);
}

TEST(ServeDegradation, QuarantineRecompilesAtMostOnce) {
  Server S;
  // Two independent all-faulty requests against one artifact: the first
  // quarantine-recompiles it; the second must not recompile again.
  for (int I = 0; I < 2; ++I) {
    ServeRequest A = request(kSumSq, 64, I * 1000000.0);
    A.Limits.LaunchFailRate = 1.0;
    A.Limits.FaultSeed = 11 + I;
    S.submit(std::move(A));
  }
  auto R = drainById(S);
  ASSERT_EQ(R.count(1), 1u);
  ASSERT_EQ(R.count(2), 1u);
  EXPECT_TRUE(R.at(1).Ok && R.at(1).InterpFallback);
  EXPECT_TRUE(R.at(2).Ok && R.at(2).InterpFallback);
  EXPECT_EQ(S.stats().Quarantined, 1);
  EXPECT_EQ(S.stats().Recompiles, 1);
}

TEST(ServeAdmission, ReservationsNeverExceedCapacity) {
  ServerConfig C;
  // Capacity just over two sumsq reservations (~1 KiB each plus the
  // launch-transient margin): at most two tenants pack at once.
  C.Device.DeviceMemBytes = 4096;
  Server S(C);
  // Solo-profile first, then a burst of identical requests to pack.
  S.submit(request(kSumSq, 64, 0));
  for (int I = 0; I < 8; ++I)
    S.submit(request(kSumSq, 64, 1000000.0 + I));
  auto R = drainById(S);
  ASSERT_EQ(R.size(), 9u);
  for (auto &KV : R) {
    EXPECT_TRUE(KV.second.Ok) << KV.second.Message;
    EXPECT_FALSE(KV.second.InterpFallback) << KV.second.Message;
  }
  const ServerStats &St = S.stats();
  EXPECT_GT(St.PackedRuns, 0) << "profiled requests should pack";
  EXPECT_GT(St.PeakResidentTenants, 1);
  EXPECT_LE(St.PeakReservedBytes, C.Device.DeviceMemBytes)
      << "admission must never oversubscribe the device";
  EXPECT_GT(St.PeakReservedBytes, 0);
}

TEST(ServeAdmission, PackedTenantsCarryTheirReservation) {
  Server S;
  S.submit(request(kSumSq, 64, 0));
  S.submit(request(kSumSq, 64, 1000000.0));
  S.submit(request(kSumSq, 64, 1000001.0));
  auto R = drainById(S);
  for (uint64_t Id : {1u, 2u, 3u})
    ASSERT_EQ(R.count(Id), 1u) << "missing response id " << Id;
  EXPECT_TRUE(R.at(1).Solo) << "first run of a signature profiles solo";
  EXPECT_EQ(R.at(1).ReservedBytes, 0);
  for (uint64_t Id : {2u, 3u}) {
    EXPECT_FALSE(R.at(Id).Solo);
    EXPECT_GT(R.at(Id).ReservedBytes, 0)
        << "packed tenants run against an explicit reservation";
    EXPECT_TRUE(R.at(Id).Ok) << R.at(Id).Message;
  }
}

TEST(ServeDrain, EverySubmissionGetsExactlyOneResponse) {
  ServerConfig C;
  C.MaxQueueDepth = 3;
  Server S(C);
  const int N = 20;
  std::set<uint64_t> Ids;
  for (int I = 0; I < N; ++I) {
    ServeRequest Rq = request(I % 2 ? kSumSq : kScan, 64, I * 500.0);
    Rq.Limits.LaunchFailRate = I % 3 == 0 ? 0.5 : 0.0;
    Rq.Limits.FaultSeed = I;
    Ids.insert(S.submit(std::move(Rq)));
  }
  std::vector<ServeResponse> R = S.drain();
  EXPECT_EQ(R.size(), static_cast<size_t>(N));
  std::set<uint64_t> Seen;
  for (const ServeResponse &Resp : R)
    EXPECT_TRUE(Seen.insert(Resp.Id).second) << "duplicate response";
  EXPECT_EQ(Seen, Ids);
  // The queue drained: a second drain has nothing to do.
  EXPECT_TRUE(S.drain().empty());
}

TEST(ServeFingerprint, StableAcrossServersAndRecompiles) {
  CompilerOptions Opts;
  Server A, B;
  A.submit(request(kSumSq, 64, 0));
  B.submit(request(kSumSq, 64, 0));
  A.drain();
  B.drain();
  uint64_t FA = A.cachedFingerprint(kSumSq, Opts);
  uint64_t FB = B.cachedFingerprint(kSumSq, Opts);
  EXPECT_NE(FA, 0u);
  EXPECT_EQ(FA, FB) << "compilation must be deterministic";
}

TEST(ServeConfig, OverReservedDeviceIsRejectedBeforeLaunch) {
  // Regression: a server configured with ReservedBytes at (or above) the
  // card's capacity used to run every request against a silently clamped
  // 1-byte device.  Now the materialised per-request DeviceParams fail
  // validation and the request is rejected with a typed Config error
  // before any launch — and explicitly without degrading to the
  // interpreter, which would mask the operator mistake.
  ServerConfig C;
  C.Device.ReservedBytes = C.Device.DeviceMemBytes;
  Server S(C);
  S.submit(request(kSumSq, 64, 0));
  auto R = drainById(S);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_FALSE(R.at(1).Ok);
  EXPECT_EQ(R.at(1).Error, ErrorKind::Config);
  EXPECT_NE(R.at(1).Message.find("over-reserved"), std::string::npos)
      << R.at(1).Message;
  EXPECT_FALSE(R.at(1).InterpFallback);
  EXPECT_EQ(R.at(1).Attempts, 0);
  EXPECT_EQ(S.stats().ConfigRejected, 1);
  EXPECT_EQ(S.stats().Fallbacks, 0);
}

TEST(ServeConfig, SaneReservationStillServes) {
  // A reservation below capacity is a legitimate configuration (some of
  // the card belongs to another process): requests still complete.
  ServerConfig C;
  C.Device.ReservedBytes = C.Device.DeviceMemBytes / 4;
  Server S(C);
  S.submit(request(kSumSq, 64, 0));
  auto R = drainById(S);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.at(1).Ok) << R.at(1).Message;
  EXPECT_EQ(S.stats().ConfigRejected, 0);
}

} // namespace
