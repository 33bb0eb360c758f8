//===- Serve.cpp - Compile-once/serve-many request service ----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "serve/ArtifactStore.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace fut;
using namespace fut::serve;

uint64_t fut::serve::argSignature(const std::vector<Value> &Args) {
  uint64_t H = fnv1a64("args");
  for (const Value &V : Args) {
    H = fnv1a64(V.str(), H);
    H = fnv1a64(std::string(1, '\0'), H);
  }
  return H;
}

Server::Server(ServerConfig C) : Config(std::move(C)) {
  trace::TraceSession::global().setThreadName(trace::kServeTid, "serve");
}

uint64_t Server::submit(ServeRequest R) {
  uint64_t Id = NextId++;
  Submissions.push_back({Id, std::move(R)});
  ++Stats.Submitted;
  return Id;
}

uint64_t Server::cachedFingerprint(const std::string &Source,
                                   const CompilerOptions &Opts) const {
  auto It = Cache.find(artifactCacheKey(Source, Opts));
  return It == Cache.end() ? 0 : It->second.Fingerprint;
}

CacheEntry *Server::lookupOrCompile(const ServeRequest &Req, bool &Hit,
                                    CompilerError &Err) {
  uint64_t Key = artifactCacheKey(Req.Source, Req.Compile);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    Hit = true;
    It->second.LastUse = ++UseClock;
    ++It->second.Hits;
    return &It->second;
  }
  Hit = false;
  // A memory miss consults the on-disk store before paying for a compile:
  // this is the warm-restart path.  A served load *is* a cache hit — the
  // caller charges no compile cycles and the response reports CacheHit.
  if (!Config.ArtifactDir.empty()) {
    ArtifactStore Store(Config.ArtifactDir);
    if (Store.exists(Key)) {
      auto Loaded = Store.load(Key);
      if (Loaded) {
        Hit = true;
        ++Stats.DiskHits;
        trace::counter("serve.disk_hits");
        CacheEntry E;
        E.Artifact = std::make_shared<const CompileResult>(Loaded.take());
        E.Fingerprint = E.Artifact->fingerprint();
        E.LastUse = ++UseClock;
        E.Hits = 1;
        auto Ins = Cache.emplace(Key, std::move(E));
        evictIfOverCapacity();
        return &Ins.first->second;
      }
      // Truncated, bit-flipped or stale-format file: fall through to a
      // fresh compile, whose save below overwrites the bad artifact.
      ++Stats.DiskCorrupt;
      trace::counter("serve.disk_corrupt");
    }
  }
  NameSource Names;
  trace::ScopedSpan Span("serve:compile", "serve", trace::kServeTid);
  auto C = compileSource(Req.Source, Names, Req.Compile);
  ++Stats.Compiles;
  trace::counter("serve.compiles");
  if (!C) {
    Err = C.getError();
    return nullptr;
  }
  CacheEntry E;
  E.Artifact = std::make_shared<const CompileResult>(C.take());
  E.Fingerprint = E.Artifact->fingerprint();
  E.LastUse = ++UseClock;
  if (!Config.ArtifactDir.empty() &&
      ArtifactStore(Config.ArtifactDir).save(Key, *E.Artifact)) {
    ++Stats.DiskStores;
    trace::counter("serve.disk_stores");
  }
  auto Ins = Cache.emplace(Key, std::move(E));
  evictIfOverCapacity();
  return &Ins.first->second;
}

void Server::evictIfOverCapacity() {
  while (Cache.size() > Config.MaxCacheEntries) {
    auto Victim = Cache.end();
    for (auto It = Cache.begin(); It != Cache.end(); ++It)
      if (Victim == Cache.end() || It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    trace::counter("serve.cache_evictions");
    Cache.erase(Victim);
  }
}

DeviceRunOptions Server::makeRunOptions(const ServeRequest &Req,
                                                int64_t Reservation,
                                                bool Solo) const {
  const ServeLimits &L = Req.Limits;
  DeviceRunOptions RO;
  RO.Device = Config.Device;
  RO.Device.WatchdogKernelCycles = L.WatchdogKernelCycles;
  RO.Device.WatchdogTotalCycles = L.WatchdogTotalCycles;
  // A packed tenant's sandbox is exactly its reservation: everything else
  // on the device is marked reserved, so outgrowing the profiled bound
  // OOMs this request without touching a co-tenant's bytes.  A solo run
  // sees the whole device.
  if (!Solo && Config.Device.DeviceMemBytes > 0 && Reservation > 0)
    RO.Device.ReservedBytes = Config.Device.DeviceMemBytes - Reservation;
  RO.Resilience.MaxRetries = L.MaxRetries;
  RO.Resilience.Faults.LaunchFailRate = L.LaunchFailRate;
  RO.Resilience.Faults.CorruptRate = L.CorruptRate;
  RO.Resilience.Faults.Seed = L.FaultSeed;
  // The serving layer owns graceful degradation: device failures must
  // surface here so the quarantine/recompile/fallback ladder can react.
  RO.Resilience.InterpFallback = false;
  return RO;
}

ServeResponse Server::execute(const ServeRequest &Req, uint64_t Id,
                              int64_t Reservation, bool Solo,
                              double &DurationOut) {
  ServeResponse Resp;
  Resp.Id = Id;
  Resp.ArrivalCycle = Req.ArrivalCycle;
  Resp.Solo = Solo;
  Resp.ReservedBytes = Reservation;
  double Duration = 0;

  trace::ScopedSpan Span("serve:request", "serve", trace::kServeTid);
  Span.arg("id", static_cast<int64_t>(Id));

  // Admission sanity: an inconsistent device configuration — most notably
  // a reservation at or above the card's capacity, which the old
  // effectiveMemBytes() clamp used to shrink to a pathological 1-byte
  // device — is a typed Config error surfaced before any compile or
  // launch.  It is the server's fault, not the program's, and never
  // degrades to the interpreter.
  if (auto CfgErr = makeRunOptions(Req, Solo ? 0 : Reservation, Solo)
                        .Device.validate()) {
    ++Stats.ConfigRejected;
    trace::counter("serve.config_rejected");
    Resp.Ok = false;
    Resp.Error = CfgErr.getError().Kind;
    Resp.Message = CfgErr.getError().str();
    Span.arg("outcome", "config-error");
    DurationOut = 0;
    return Resp;
  }

  bool Hit = false;
  CompilerError CErr;
  CacheEntry *E = lookupOrCompile(Req, Hit, CErr);
  Resp.CacheHit = Hit;
  if (Hit) {
    ++Stats.CacheHits;
    trace::counter("serve.cache_hits");
  } else {
    ++Stats.CacheMisses;
    trace::counter("serve.cache_misses");
    Duration += Config.CompileCycles;
  }
  Span.arg("cache", Hit ? "hit" : "miss");
  if (!E) {
    Resp.Ok = false;
    Resp.Error = CErr.Kind;
    Resp.Message = CErr.str();
    Span.arg("outcome", "compile-error");
    DurationOut = Duration;
    return Resp;
  }

  const ServeLimits &L = Req.Limits;
  CompilerError LastErr;
  constexpr int kMaxAttempts = 3;
  for (int Attempt = 1; Attempt <= kMaxAttempts; ++Attempt) {
    Resp.Attempts = Attempt;
    // Pin the artifact for the duration of the run: quarantine (or LRU
    // eviction on behalf of another request) can drop the cache entry,
    // never the memory an in-flight run reads.
    std::shared_ptr<const CompileResult> Artifact = E->Artifact;
    DeviceRunOptions RO = makeRunOptions(Req, Reservation, Solo);
    RO.MemPlan = &Artifact->MemPlan;
    auto R = runOnDevice(Artifact->P, Req.Args, RO, Req.Fun);
    if (R) {
      Duration += R->Cost.TotalCycles;
      Resp.Ok = true;
      Resp.Outputs = std::move(R->Outputs);
      Resp.Cost = R->Cost;
      E->ConsecutiveDeviceFailures = 0;
      // Profile the residency bound for this argument signature: future
      // identical requests can be packed by it.  The demand peak covers
      // the launch-time overlap of live inputs with materialising
      // results, which the plain residency peaks miss.
      int64_t Bound = std::max(
          {R->Cost.PlannedPeakBytes, R->Cost.PeakDeviceBytes,
           R->Cost.PeakDemandBytes});
      if (Bound > 0)
        E->BoundByArgs[argSignature(Req.Args)] = Bound;
      Span.arg("outcome", "ok");
      Span.arg("cycles", R->Cost.TotalCycles);
      DurationOut = Duration;
      return Resp;
    }

    LastErr = R.getError();
    if (!gpusim::isDeviceFailure(LastErr)) {
      // The program's own fault (bad index, shape mismatch): surfaces
      // directly and does not count against the artifact.
      Resp.Ok = false;
      Resp.Error = LastErr.Kind;
      Resp.Message = LastErr.str();
      Span.arg("outcome", "runtime-error");
      DurationOut = Duration;
      return Resp;
    }

    ++Stats.DeviceFailures;
    trace::counter("serve.device_failures");
    ++E->ConsecutiveDeviceFailures;
    if (Attempt == kMaxAttempts)
      break;

    // Serve-level backoff before the next attempt (on top of the
    // device's own per-kernel retry backoff, which is inside TotalCycles
    // of successful attempts only).
    Duration += Config.RequestRetryBackoffCycles * std::ldexp(1.0, Attempt - 1);

    // Quarantine: a persistently failing artifact is evicted and
    // recompiled once.  The fresh artifact must reproduce the original
    // fingerprint (compilation is deterministic) — this is defence
    // against a corrupted cached artifact, and the fingerprint check
    // would catch nondeterministic compilation.
    if (E->ConsecutiveDeviceFailures >= Config.QuarantineThreshold &&
        !E->Recompiled) {
      ++Stats.Quarantined;
      trace::counter("serve.quarantined");
      trace::TraceSession::global().instant("serve:quarantine", "serve",
                                            trace::kServeTid);
      NameSource Names;
      auto C = compileSource(Req.Source, Names, Req.Compile);
      ++Stats.Compiles;
      ++Stats.Recompiles;
      trace::counter("serve.compiles");
      trace::counter("serve.recompiles");
      Duration += Config.CompileCycles;
      if (C) {
        E->Artifact = std::make_shared<const CompileResult>(C.take());
        E->Fingerprint = E->Artifact->fingerprint();
        E->Recompiled = true;
        E->ConsecutiveDeviceFailures = 0;
        Resp.Recompiled = true;
        // The quarantine hypothesis is a corrupted artifact; refresh the
        // on-disk copy too so the next cold start gets the clean one.
        if (!Config.ArtifactDir.empty() &&
            ArtifactStore(Config.ArtifactDir)
                .save(artifactCacheKey(Req.Source, Req.Compile),
                      *E->Artifact)) {
          ++Stats.DiskStores;
          trace::counter("serve.disk_stores");
        }
      }
    }
  }

  // Device attempts exhausted: graceful degradation to the reference
  // interpreter, unless this request opted out.
  if (!L.AllowFallback) {
    Resp.Ok = false;
    Resp.Error = LastErr.Kind;
    Resp.Message = LastErr.str();
    Span.arg("outcome", "device-error");
    DurationOut = Duration;
    return Resp;
  }
  ++Stats.Fallbacks;
  trace::counter("serve.fallbacks");
  trace::TraceSession::global().instant("serve:fallback", "serve",
                                        trace::kServeTid);
  std::shared_ptr<const CompileResult> Artifact = E->Artifact;
  int64_t HostOps = 0;
  auto Out = gpusim::runInterpFallback(Artifact->P, Req.Fun, Req.Args,
                                       LastErr, HostOps);
  if (!Out) {
    Resp.Ok = false;
    Resp.Error = Out.getError().Kind;
    Resp.Message = Out.getError().Message;
    Span.arg("outcome", "fallback-exhausted");
    DurationOut = Duration;
    return Resp;
  }
  Duration += static_cast<double>(HostOps) * Config.Device.HostCyclesPerOp;
  Resp.Ok = true;
  Resp.InterpFallback = true;
  Resp.Outputs = Out.take();
  Span.arg("outcome", "interp-fallback");
  DurationOut = Duration;
  return Resp;
}

std::vector<ServeResponse> Server::drain() {
  trace::TraceSession::global().setThreadName(trace::kServeTid, "serve");
  std::stable_sort(Submissions.begin(), Submissions.end(),
                   [](const Submission &A, const Submission &B) {
                     return A.Req.ArrivalCycle < B.Req.ArrivalCycle;
                   });

  const int64_t Capacity = Config.Device.DeviceMemBytes;
  std::deque<Submission> Queue;
  std::vector<Resident> Residents;
  std::vector<ServeResponse> Responses;
  size_t NextArrival = 0;
  double SimNow = 0;
  int64_t Reserved = 0;
  bool SoloActive = false;

  auto Shed = [&](const Submission &S, ErrorKind Kind,
                  const std::string &Msg) {
    ServeResponse Resp;
    Resp.Id = S.Id;
    Resp.Ok = false;
    Resp.Error = Kind;
    Resp.Message = Msg;
    Resp.ArrivalCycle = S.Req.ArrivalCycle;
    Resp.StartCycle = SimNow;
    Resp.CompletionCycle = SimNow;
    if (Kind == ErrorKind::Overload) {
      ++Stats.ShedOverload;
      trace::counter("serve.shed_overload");
      trace::TraceSession::global().instant("serve:shed-overload", "serve",
                                            trace::kServeTid);
    } else {
      ++Stats.ShedDeadline;
      trace::counter("serve.shed_deadline");
      trace::TraceSession::global().instant("serve:shed-deadline", "serve",
                                            trace::kServeTid);
    }
    Responses.push_back(std::move(Resp));
  };

  auto IngestArrivals = [&] {
    while (NextArrival < Submissions.size() &&
           Submissions[NextArrival].Req.ArrivalCycle <= SimNow) {
      Submission &S = Submissions[NextArrival++];
      if (Queue.size() >= Config.MaxQueueDepth) {
        Shed(S, ErrorKind::Overload,
             "request shed: queue full (" +
                 std::to_string(Config.MaxQueueDepth) + " pending)");
        continue;
      }
      Queue.push_back(std::move(S));
      Stats.PeakQueueDepth = std::max(Stats.PeakQueueDepth, Queue.size());
      trace::counter("serve.enqueued");
    }
  };

  auto Retire = [&](double UpTo) {
    for (size_t I = 0; I < Residents.size();) {
      if (Residents[I].CompletionCycle <= UpTo) {
        Resident R = std::move(Residents[I]);
        Residents.erase(Residents.begin() + I);
        Reserved -= R.Reservation;
        if (R.Solo)
          SoloActive = false;
        if (R.Response.Ok) {
          ++Stats.Completed;
          trace::counter("serve.completed");
        } else {
          ++Stats.Failed;
          trace::counter("serve.failed");
        }
        Stats.LastCompletionCycle =
            std::max(Stats.LastCompletionCycle, R.Response.CompletionCycle);
        Responses.push_back(std::move(R.Response));
      } else {
        ++I;
      }
    }
  };

  auto KnownBound = [&](const Submission &S) -> int64_t {
    auto It = Cache.find(artifactCacheKey(S.Req.Source, S.Req.Compile));
    if (It == Cache.end())
      return -1;
    auto B = It->second.BoundByArgs.find(argSignature(S.Req.Args));
    return B == It->second.BoundByArgs.end() ? -1 : B->second;
  };

  auto Admit = [&](Submission S, int64_t Reservation, bool Solo) {
    ++Stats.Admitted;
    trace::counter("serve.admitted");
    if (Solo) {
      ++Stats.SoloRuns;
      SoloActive = true;
    } else {
      ++Stats.PackedRuns;
      Reserved += Reservation;
      Stats.PeakReservedBytes = std::max(Stats.PeakReservedBytes, Reserved);
    }
    Stats.PeakResidentTenants = std::max(
        Stats.PeakResidentTenants, static_cast<int64_t>(Residents.size() + 1));

    double Duration = 0;
    ServeResponse Resp =
        execute(S.Req, S.Id, Solo ? 0 : Reservation, Solo, Duration);
    Resp.StartCycle = SimNow;
    Resp.CompletionCycle = SimNow + Duration;

    // A run that finished past its deadline is a typed Deadline failure:
    // the latency contract was broken even though the work completed.
    const double DL = S.Req.Limits.DeadlineCycles;
    if (Resp.Ok && DL > 0 && Resp.CompletionCycle - Resp.ArrivalCycle > DL) {
      ++Stats.DeadlineMissed;
      trace::counter("serve.deadline_missed");
      Resp.Ok = false;
      Resp.Error = ErrorKind::Deadline;
      Resp.Message =
          "completed past deadline: " +
          std::to_string(
              static_cast<int64_t>(Resp.CompletionCycle - Resp.ArrivalCycle)) +
          " cycles elapsed, deadline " +
          std::to_string(static_cast<int64_t>(DL));
      Resp.Outputs.clear();
    }

    Resident R;
    R.CompletionCycle = Resp.CompletionCycle;
    R.Reservation = Solo ? 0 : Reservation;
    R.Solo = Solo;
    R.Response = std::move(Resp);
    Residents.push_back(std::move(R));
  };

  while (NextArrival < Submissions.size() || !Queue.empty() ||
         !Residents.empty()) {
    IngestArrivals();

    // Admit from the queue front (FIFO; no reordering, so admission is
    // starvation-free by construction).
    while (!Queue.empty()) {
      Submission &S = Queue.front();
      const double DL = S.Req.Limits.DeadlineCycles;
      if (DL > 0 && SimNow - S.Req.ArrivalCycle > DL) {
        Shed(S, ErrorKind::Deadline,
             "request shed: deadline expired after " +
                 std::to_string(
                     static_cast<int64_t>(SimNow - S.Req.ArrivalCycle)) +
                 " queued cycles (deadline " +
                 std::to_string(static_cast<int64_t>(DL)) + ")");
        Queue.pop_front();
        continue;
      }
      int64_t Bound = KnownBound(S);
      bool Packable = Bound >= 0 && (Capacity <= 0 || Bound <= Capacity);
      if (Packable && !SoloActive &&
          (Capacity <= 0 || Reserved + Bound <= Capacity)) {
        Submission Own = std::move(S);
        Queue.pop_front();
        Admit(std::move(Own), Bound, /*Solo=*/false);
        continue;
      }
      if (Residents.empty()) {
        // No profiled bound yet (or the bound exceeds the device): run
        // exclusively.  An oversized program OOMs inside the run and
        // degrades to the interpreter, so even it completes.
        Submission Own = std::move(S);
        Queue.pop_front();
        Admit(std::move(Own), 0, /*Solo=*/true);
        continue;
      }
      break; // Wait for capacity.
    }

    // Advance simulated time to the next event.
    double NextT = std::numeric_limits<double>::infinity();
    for (const Resident &R : Residents)
      NextT = std::min(NextT, R.CompletionCycle);
    if (Queue.empty() && NextArrival < Submissions.size())
      NextT = std::min(NextT, Submissions[NextArrival].Req.ArrivalCycle);
    if (!std::isfinite(NextT))
      break; // Nothing in flight and nothing to arrive.
    SimNow = std::max(SimNow, NextT);
    Retire(SimNow);
  }

  Retire(std::numeric_limits<double>::infinity());
  Submissions.clear();
  NextArrival = 0;
  return Responses;
}
