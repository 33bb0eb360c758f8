//===- Workloads.cpp - The benchmark's three workloads --------------------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Spans.h"
#include "Speed.h"
#include "Stats.h"

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "serve/ArtifactStore.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace fut;
namespace fs = std::filesystem;

namespace {

/// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupReps = 3;

/// The suite programs suite-sim runs on the device: every kernel kind the
/// suite has (threadbody, segreduce, segscan, transpose) and a host
/// readback, at about 2.7 s of KernelSim per pass.  The other ten take
/// 0.7-6.6 s each and would not fit one run.
const std::vector<std::string> kSuiteSimPrograms = {
    "cfd", "kmeans", "nn", "fluid", "srad", "locvolcalib"};

/// The one suite-sim also serves, so that the serve metrics exist there
/// too: the cheapest of the six, served often enough that its median is
/// steady.
const char *const kSuiteServed = "cfd";
constexpr size_t kSuiteServeReps = 40;

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The simulated quantities of one device run; they must repeat exactly.
struct SimCounts {
  double Total = 0, Kernel = 0, Host = 0, Transfer = 0;
  int64_t Launches = 0, ComputeOps = 0, GlobalTx = 0;

  static SimCounts of(const gpusim::CostReport &C) {
    SimCounts S;
    S.Total = C.TotalCycles;
    S.Kernel = C.KernelCycles;
    S.Host = C.HostCycles;
    S.Transfer = C.TransferCycles;
    S.Launches = C.KernelLaunches;
    S.ComputeOps = C.ComputeOps;
    S.GlobalTx = C.GlobalTransactions;
    return S;
  }
  bool operator==(const SimCounts &) const = default;
};

/// Wall-time samples, calibrated (see Speed.h), and the raw ones behind
/// them.
struct Series {
  std::vector<double> Cal, Raw;
  void add(double RawValue, double Factor) {
    Raw.push_back(RawValue);
    Cal.push_back(RawValue * Factor);
  }
  size_t size() const { return Cal.size(); }
};

/// Static counts of one compiled program.
struct CompileCounts {
  int64_t FusionApplied = 0, FlattenKernels = 0, CoalescedTiled = 0,
          ProgramBytes = 0;
};

/// A program, its arguments and its reference outputs.
struct Case {
  std::string Key;
  std::string Source;
  CompilerOptions Opts;
  std::vector<Value> Args;
  std::vector<Value> Want;
  Compare How = Compare::Exact;
};

std::vector<size_t> permutation(size_t N, SplitMix64 &Rng) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[Rng.nextBelow(I)]);
  return P;
}

/// Measurement state of one run: the samples behind every metric, the
/// correctness gate, and (traced runs) the harvested span totals.
class Recorder {
public:
  explicit Recorder(const RunOptions &O) : O(O) {}

  const RunOptions &O;
  Gate Checks;
  SpeedTracker Speed;

  Series SetupS, CompileUs, ServeUs, HitUs, MissUs, InterpMs;
  /// Seconds of each step of the client's serve loop: its own work, the
  /// submit and the drain.
  Series ServeLoopS;
  std::map<std::string, Series> DeviceMs;
  std::map<std::string, SimCounts> Sim;
  std::map<std::string, CompileCounts> Counts;
  std::map<std::string, uint64_t> Fingerprints;

  // Serving counters, summed over server instances.
  int64_t Requests = 0, Hits = 0, Retries = 0, Recompiles = 0, Fallbacks = 0,
          DiskHits = 0, DiskStores = 0;
  std::vector<double> ServiceCycles;
  Series StoreSaveUs, StoreLoadUs;
  double StoreBytes = 0;

  // Traced runs.
  LayerTotals Layers;
  double DirectKernelUs = 0, DirectOps = 0;
  std::vector<SpanSelf> KeptSpans;
  /// Wall time per operation kind and key: {untraced, traced} samples.
  std::map<std::string,
           std::map<std::string, std::pair<std::vector<double>,
                                           std::vector<double>>>>
      Overhead;

  /// Traced runs trace every other operation of a kind and key, so the
  /// untraced half gives the overhead baseline.  \p TracedFirst traces the
  /// first one, which for a request is the one that compiles.
  bool traceNext(const std::string &Kind, const std::string &Key,
                 bool TracedFirst = false) {
    if (!O.Trace)
      return false;
    return OpCount[Kind + "/" + Key]++ % 2 == (TracedFirst ? 0 : 1);
  }

  void noteOverhead(const std::string &Kind, const std::string &Key,
                    bool Traced, double Secs) {
    if (!O.Trace)
      return;
    auto &Pair = Overhead[Kind][Key];
    (Traced ? Pair.second : Pair.first).push_back(Secs);
  }

  /// Runs \p Fn, traced when \p Traced, and returns its wall seconds.
  template <class F>
  double timed(bool Traced, F &&Fn, LayerTotals *Extra = nullptr) {
    auto &TS = trace::TraceSession::global();
    if (Traced) {
      TS.clear();
      TS.setEnabled(true);
    }
    double T0 = nowS();
    Fn();
    LastEnd = nowS();
    double Secs = LastEnd - T0;
    Speed.tick();
    if (Traced) {
      TS.setEnabled(false);
      Layers.add(TS.events());
      if (Extra)
        Extra->add(TS.events());
      if (KeptSpans.size() < 50000)
        for (SpanSelf &S : selfTimes(TS.events()))
          KeptSpans.push_back(std::move(S));
      TS.clear();
    }
    return Secs;
  }

  /// Adds a wall time to \p S, calibrated by the current speed factor.
  void add(Series &S, double Value) { S.add(Value, Speed.factor()); }

  std::shared_ptr<CompileResult> compile(const Case &C) {
    bool Traced = traceNext("compile", C.Key);
    std::optional<ErrorOr<CompileResult>> R;
    double Secs = timed(
        Traced,
        [&] {
          NameSource Names;
          R.emplace(compileSource(C.Source, Names, C.Opts));
        });
    noteOverhead("compile", C.Key, Traced, Secs);
    if (!Checks.check(static_cast<bool>(*R),
                      "compile " + C.Key + ": " +
                          (*R ? "" : R->getError().Message)))
      return nullptr;
    if (!Traced)
      add(CompileUs, Secs * 1e6);
    auto Res = std::make_shared<CompileResult>(R->take());
    uint64_t FP = Res->fingerprint();
    auto [It, New] = Fingerprints.emplace(C.Key, FP);
    if (New) {
      CompileCounts &K = Counts[C.Key];
      K.FusionApplied = Res->Fusion.total();
      K.FlattenKernels = Res->Flatten.kernels();
      K.CoalescedTiled =
          Res->Locality.CoalescedInputs + Res->Locality.TiledInputs;
      K.ProgramBytes = static_cast<int64_t>(Res->P.str().size());
    } else {
      Checks.check(It->second == FP,
                   "fingerprint of " + C.Key + " did not reproduce");
    }
    return Res;
  }

  void deviceRun(const Case &C, const CompileResult &Compiled) {
    bool Traced = traceNext("device", C.Key);
    DeviceRunOptions RO;
    RO.MemPlan = &Compiled.MemPlan;
    std::optional<ErrorOr<gpusim::RunResult>> R;
    LayerTotals Run;
    double Secs = timed(
        Traced, [&] { R.emplace(runOnDevice(Compiled.P, C.Args, RO)); },
        &Run);
    noteOverhead("device", C.Key, Traced, Secs);
    if (!Checks.check(static_cast<bool>(*R),
                      "device run " + C.Key + ": " +
                          (*R ? "" : R->getError().Message)))
      return;
    const gpusim::RunResult &RR = **R;
    if (Traced) {
      DirectKernelUs += Run.selfWithPrefix("kernelsim.");
      DirectOps += static_cast<double>(RR.Cost.ComputeOps);
    } else {
      add(DeviceMs[C.Key], Secs * 1e3);
    }
    SimCounts SC = SimCounts::of(RR.Cost);
    auto [It, New] = Sim.emplace(C.Key, SC);
    if (!New)
      Checks.check(It->second == SC, "simulated counts of " + C.Key +
                                         " changed between repetitions");
    Checks.check(!RR.InterpFallback &&
                     sameOutputs(RR.Outputs, C.Want, C.How),
                 "device output of " + C.Key + " differs from the reference");
  }

  /// Serves \p C as one step of the client loop, which began at
  /// \p StepT0.
  void serveOne(serve::Server &Srv, const Case &C,
                const serve::ServeLimits &Limits, double StepT0) {
    bool Traced = traceNext("serve", C.Key, /*TracedFirst=*/true);
    serve::ServeRequest Req;
    Req.Source = C.Source;
    Req.Args = C.Args;
    Req.Compile = C.Opts;
    Req.Limits = Limits;
    std::vector<serve::ServeResponse> Rs;
    double Secs = timed(
        Traced,
        [&] {
          Srv.submit(std::move(Req));
          Rs = Srv.drain();
        });
    ++Requests;
    if (!Traced)
      add(ServeLoopS, LastEnd - StepT0);
    if (!Checks.check(Rs.size() == 1 && Rs[0].Ok,
                      "serve " + C.Key + ": " +
                          (Rs.empty() ? "no response" : Rs[0].Message)))
      return;
    const serve::ServeResponse &Resp = Rs[0];
    Checks.check(sameOutputs(Resp.Outputs, C.Want, C.How),
                 "served output of " + C.Key + " differs from the reference");
    Hits += Resp.CacheHit ? 1 : 0;
    Retries += std::max(0, Resp.Attempts - 1);
    ServiceCycles.push_back(Resp.serviceCycles());
    // Overhead compares like with like: clean hits only.
    if (Resp.CacheHit && Resp.Attempts == 1 && !Resp.InterpFallback)
      noteOverhead("serve", C.Key, Traced, Secs);
    if (!Traced)
      add(ServeUs, Secs * 1e6);
    add(Resp.CacheHit ? HitUs : MissUs, Secs * 1e6);
  }

  void absorb(const serve::ServerStats &St) {
    Recompiles += St.Recompiles;
    Fallbacks += St.Fallbacks;
    DiskHits += St.DiskHits;
    DiskStores += St.DiskStores;
  }

  /// Reference outputs from the interpreter on the unoptimised frontend
  /// output; it shares no code with KernelSim.
  ErrorOr<std::vector<Value>> reference(const std::string &Source,
                                        const std::vector<Value> &Args,
                                        const InterpOptions &IO) {
    NameSource Names;
    auto P = frontend(Source, Names);
    if (!P)
      return P.getError();
    Program Prog = P.take();
    Interpreter I(Prog, IO);
    double T0 = nowS();
    auto R = I.run(Args);
    double Secs = nowS() - T0;
    Speed.tick();
    add(InterpMs, Secs * 1e3);
    return R;
  }

  /// Repeats \p Build kSetupReps times, recording each one's wall time.
  template <class F> void setup(F &&Build) {
    for (int Rep = 0; Rep < kSetupReps; ++Rep) {
      size_t From = Speed.samples();
      double T0 = nowS();
      Build();
      double Secs = nowS() - T0;
      Speed.tick();
      SetupS.add(Secs, Speed.factorSince(From));
    }
  }

private:
  std::map<std::string, int64_t> OpCount;
  double LastEnd = 0; ///< When the last timed operation returned.
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Paces a fixed number of operations evenly over a window: one is due
/// whenever the share done lags the share of the window elapsed.
class Pacer {
  double T0, Len;
  size_t Total, Done = 0;

public:
  Pacer(double T0, double Len, size_t Total) : T0(T0), Len(Len), Total(Total) {}
  bool due() const {
    return Done < Total && static_cast<double>(Done) <
                               static_cast<double>(Total) * (nowS() - T0) / Len;
  }
  bool finished() const { return Done >= Total; }
  size_t next() { return Done++; }
};

/// A fixed number of operations to spread over the window.
struct Queue {
  size_t Count;
  std::function<void(size_t)> Op;
};

/// Runs \p Primary until \p Seconds have passed, interleaving each queue's
/// operations as they fall due, then finishes whatever is still queued.
/// The machine's speed drifts in bursts; pacing makes every metric sample
/// the whole window rather than a short phase of its own.
void runWindow(double Seconds, const std::vector<Queue> &Queues,
               const std::function<void()> &Primary) {
  double T0 = nowS();
  std::vector<Pacer> Ps;
  for (const Queue &Q : Queues)
    Ps.emplace_back(T0, Seconds, Q.Count);
  while (nowS() < T0 + Seconds) {
    auto Due = std::find_if(Ps.begin(), Ps.end(),
                            [](const Pacer &P) { return P.due(); });
    if (Due == Ps.end())
      Primary();
    else
      Queues[Due - Ps.begin()].Op(Due->next());
  }
  for (size_t I = 0; I < Ps.size(); ++I)
    while (!Ps[I].finished())
      Queues[I].Op(Ps[I].next());
}

/// Cycles through seeded permutations of [0, N).
class Rounds {
  size_t N;
  SplitMix64 &Rng;
  std::vector<size_t> Order;
  size_t Next = 0;

public:
  Rounds(size_t N, SplitMix64 &Rng) : N(N), Rng(Rng) {}
  size_t next() {
    if (Next == Order.size()) {
      Order = permutation(N, Rng);
      Next = 0;
    }
    return Order[Next++];
  }
  bool midRound() const { return Next != Order.size(); }
};

/// Paper benchmarks, compiled in set-up and run on the simulated gtx780
/// through runOnDevice, with one of them also served so that the serve
/// metrics exist here too.  The set-ups compile the whole suite three
/// times, so its fingerprints must reproduce.  The seed only permutes
/// program order.
void suiteSim(Recorder &S) {
  std::vector<Case> Cases;
  std::map<std::string, std::shared_ptr<CompileResult>> Compiled;
  S.setup([&] {
    Cases.clear();
    for (const bench::BenchmarkDef &B : bench::allBenchmarks()) {
      Case C;
      C.Key = B.Name;
      C.Source = B.Source;
      C.How = Compare::Tolerant;
      Compiled[B.Name] = S.compile(C);
      if (std::find(kSuiteSimPrograms.begin(), kSuiteSimPrograms.end(),
                    B.Name) == kSuiteSimPrograms.end())
        continue;
      C.Args = B.MakeInputs();
      InterpOptions IO;
      IO.StreamInterleave = B.VerifyInterleave;
      auto Want = S.reference(B.Source, C.Args, IO);
      if (S.Checks.check(static_cast<bool>(Want), "reference " + B.Name))
        C.Want = Want.take();
      Cases.push_back(std::move(C));
    }
  });

  SplitMix64 Rng(S.O.Seed);
  Rounds Direct(Cases.size(), Rng);
  auto RunNext = [&] {
    const Case &C = Cases[Direct.next()];
    if (const auto &R = Compiled[C.Key])
      S.deviceRun(C, *R);
  };
  auto Served = std::find_if(Cases.begin(), Cases.end(), [](const Case &C) {
    return C.Key == kSuiteServed;
  });
  serve::Server Srv;
  runWindow(S.O.Seconds,
            {{Served == Cases.end() ? 0 : kSuiteServeReps,
              [&](size_t) { S.serveOne(Srv, *Served, {}, nowS()); }}},
            RunNext);
  // Finish the round, so every program has as many direct runs.
  while (Direct.midRound())
    RunNext();
  S.absorb(Srv.stats());
}

/// The fuzz cases of seeds 1..\p Seeds whose reference run succeeds.
template <class Gen>
std::vector<Case> fuzzCases(Recorder &S, uint64_t Seeds, const char *Prefix,
                            Gen &&Generate, const CompilerOptions &Opts,
                            Compare How) {
  std::vector<Case> Out;
  InterpOptions IO;
  IO.ConsumeOnUpdate = true;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    fuzz::FuzzCase FC = Generate(Seed);
    auto Want = S.reference(FC.Source, FC.Args, IO);
    if (!Want)
      continue; // e.g. a generated division by zero: not a workload op
    Case C;
    C.Key = std::string(Prefix) + std::to_string(Seed);
    C.Source = FC.Source;
    C.Opts = Opts;
    C.Args = FC.Args;
    C.Want = Want.take();
    C.How = How;
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Compiles fuzz programs, VJP fuzz programs and the suite sources over
/// and over.  The fuzz programs are those of scripts/ci.sh's differential
/// sweep (seeds 1..300) and gradient sweep (--vjp, seeds 1..150), so the
/// corpus is fixed and the seed only permutes order.  Each fuzz program
/// also runs twice on the device (bit for bit against the reference, and
/// the determinism check), and some are served once cold and three times
/// warm so that the serve metrics exist here too.
void compileCorpus(Recorder &S) {
  constexpr uint64_t kPlainSeeds = 300, kGradSeeds = 150;
  constexpr size_t kServed = 192, kServeReps = 4;
  std::vector<Case> Corpus;
  size_t NumFuzz = 0, NumPlain = 0;
  S.setup([&] {
    CompilerOptions Plain, Grad;
    Grad.VJP = "main";
    Corpus = fuzzCases(S, kPlainSeeds, "fuzz/", fuzz::generate, Plain,
                       Compare::Exact);
    NumPlain = Corpus.size();
    auto G = fuzzCases(S, kGradSeeds, "vjp/", fuzz::generateGrad, Grad,
                       Compare::Tolerant);
    Corpus.insert(Corpus.end(), G.begin(), G.end());
    NumFuzz = Corpus.size();
    for (const bench::BenchmarkDef &B : bench::allBenchmarks()) {
      Case C;
      C.Key = B.Name;
      C.Source = B.Source;
      Corpus.push_back(std::move(C));
    }
  });

  SplitMix64 Rng(S.O.Seed);
  std::vector<std::shared_ptr<CompileResult>> Last(Corpus.size());
  auto Compile = [&](size_t I) { Last[I] = S.compile(Corpus[I]); };
  Rounds Order(Corpus.size(), Rng);
  std::vector<size_t> DevOrder = permutation(NumFuzz, Rng);
  std::vector<size_t> ServeOrder = permutation(NumPlain, Rng);
  size_t Served = std::min(kServed, NumPlain);
  serve::Server Srv;
  runWindow(S.O.Seconds,
            {{2 * NumFuzz,
              [&](size_t J) {
                size_t I = DevOrder[J / 2];
                if (!Last[I])
                  Compile(I);
                if (Last[I])
                  S.deviceRun(Corpus[I], *Last[I]);
              }},
             {Served * kServeReps,
              [&](size_t J) {
                S.serveOne(Srv, Corpus[ServeOrder[J / kServeReps]], {},
                           nowS());
              }}},
            [&] { Compile(Order.next()); });
  S.absorb(Srv.stats());
}

/// Times ArtifactStore::save and load of every compiled artifact in a
/// scratch directory \p Dir, which is removed afterwards.
void timeStore(
    Recorder &S,
    const std::map<std::string, std::shared_ptr<CompileResult>> &BySource,
    const fs::path &Dir) {
  serve::ArtifactStore Store(Dir.string());
  for (const auto &[Source, R] : BySource) {
    if (!R)
      continue;
    uint64_t Key = artifactCacheKey(Source, {});
    double T0 = nowS();
    bool Saved = Store.save(Key, *R);
    double T1 = nowS();
    auto Loaded = Store.load(Key);
    double T2 = nowS();
    S.Speed.tick();
    S.add(S.StoreSaveUs, (T1 - T0) * 1e6);
    S.add(S.StoreLoadUs, (T2 - T1) * 1e6);
    S.Checks.check(Saved && Loaded && Loaded->fingerprint() == R->fingerprint(),
                   "artifact store round trip changed an artifact");
  }
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

/// A closed loop of one client against one server: a skewed popularity
/// draw over fuzz programs at three argument sizes, a small share of
/// requests with injected launch faults, and a restart halfway through on
/// the same artifact directory.  Every pool entry is also compiled twice
/// and run twice on the device, paced through the window.  The pool and
/// its popularity ranking are fixed; the seed draws the request stream,
/// the faults and the order.
///
/// Where each traffic parameter comes from:
///  * programs: the fuzz plans of seeds 1..200, the start of
///    scripts/ci.sh's differential sweep;
///  * sizes: bench_serve's 1x/2x/4x argument-size ladder (256/512/1024);
///  * cache: ServerConfig's default capacity;
///  * Zipf exponent 0.8: inside the 0.64-0.83 Breslau et al. measured on
///    web proxy traces ("Web Caching and Zipf-like Distributions",
///    INFOCOM 1999) -- an assumption, since no request trace of a
///    compile service exists to fit;
///  * fault rate 0.4 per launch: the serve soak of scripts/ci.sh and
///    bench_serve;
///  * fault share 0.5% of requests: an assumption; the workload only
///    needs the retry, quarantine and fallback paths to run.
void serveMix(Recorder &S) {
  constexpr uint64_t kPrograms = 200;
  constexpr int64_t kSizes[] = {1, 2, 4};
  constexpr double kZipf = 0.8, kFaultShare = 0.005, kFaultRate = 0.4;
  std::vector<Case> Pool;
  fs::path ArtifactDir =
      fs::path(S.O.OutDir) / ("artifacts-" + std::to_string(S.O.Seed));
  S.setup([&] {
    fs::remove_all(ArtifactDir);
    InterpOptions IO;
    IO.ConsumeOnUpdate = true;
    Pool.clear();
    for (uint64_t Seed = 1; Seed <= kPrograms; ++Seed) {
      fuzz::Plan P = fuzz::samplePlan(Seed);
      SplitMix64 Inputs(Seed);
      std::vector<Case> Sizes;
      for (int64_t Mult : kSizes) {
        fuzz::Plan Q = P;
        Q.N = P.N * Mult;
        while (static_cast<int64_t>(Q.Input.size()) < Q.N)
          Q.Input.push_back(static_cast<int32_t>(Inputs.nextBelow(101)) - 50);
        fuzz::FuzzCase FC = fuzz::renderPlan(Q, Seed);
        auto Want = S.reference(FC.Source, FC.Args, IO);
        if (!Want)
          break; // e.g. a generated division by zero: not a workload op
        Case C;
        C.Key = "fuzz/" + std::to_string(Seed) + "/n" + std::to_string(Q.N);
        C.Source = FC.Source;
        C.Args = FC.Args;
        C.Want = Want.take();
        Sizes.push_back(std::move(C));
      }
      if (Sizes.size() == std::size(kSizes))
        for (Case &C : Sizes)
          Pool.push_back(std::move(C));
    }
  });

  // Zipf popularity over a fixed ranking of the pool.
  SplitMix64 Fixed(1);
  std::vector<size_t> Rank = permutation(Pool.size(), Fixed);
  std::vector<double> Cum;
  double Total = 0;
  for (size_t I = 0; I < Pool.size(); ++I)
    Cum.push_back(Total += 1.0 / std::pow(static_cast<double>(I + 1), kZipf));

  SplitMix64 Rng(S.O.Seed);
  serve::ServerConfig Cfg;
  Cfg.ArtifactDir = ArtifactDir.string();
  auto Srv = std::make_unique<serve::Server>(Cfg);
  double Start = nowS();
  bool Restarted = false;
  auto Request = [&] {
    double StepT0 = nowS();
    if (!Restarted && StepT0 - Start >= S.O.Seconds / 2) {
      S.absorb(Srv->stats());
      Srv = std::make_unique<serve::Server>(Cfg);
      Restarted = true;
    }
    double U = Rng.nextDouble(0, Total);
    size_t Pick =
        Rank[std::min<size_t>(std::upper_bound(Cum.begin(), Cum.end(), U) -
                                  Cum.begin(),
                              Rank.size() - 1)];
    serve::ServeLimits L;
    if (Rng.nextDouble(0, 1) < kFaultShare)
      L.LaunchFailRate = kFaultRate;
    L.FaultSeed = Rng.next();
    S.serveOne(*Srv, Pool[Pick], L, StepT0);
  };

  std::map<std::string, std::shared_ptr<CompileResult>> BySource;
  auto CompileEntry = [&](const Case &C) {
    return BySource[C.Source] = S.compile(C);
  };
  std::vector<size_t> CompileOrder = permutation(Pool.size(), Rng);
  std::vector<size_t> DevOrder = permutation(Pool.size(), Rng);
  runWindow(S.O.Seconds,
            {{2 * Pool.size(),
              [&](size_t J) { CompileEntry(Pool[CompileOrder[J / 2]]); }},
             {2 * Pool.size(),
              [&](size_t J) {
                const Case &C = Pool[DevOrder[J / 2]];
                auto It = BySource.find(C.Source);
                auto R = It != BySource.end() ? It->second : CompileEntry(C);
                if (R)
                  S.deviceRun(C, *R);
              }}},
            Request);
  S.absorb(Srv->stats());

  // What the server holds must be what a fresh compile produces.
  for (const auto &[Source, R] : BySource) {
    uint64_t Held = Srv->cachedFingerprint(Source, {});
    if (R && Held)
      S.Checks.check(Held == R->fingerprint(),
                     "a served artifact differs from a fresh compile");
  }

  std::error_code EC;
  if (S.O.Trace) {
    for (const auto &E : fs::directory_iterator(ArtifactDir, EC))
      S.StoreBytes += static_cast<double>(E.file_size());
    timeStore(S, BySource, fs::path(S.O.OutDir) / "store-timing");
  }
  fs::remove_all(ArtifactDir, EC);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

std::string countNote(size_t N) { return "n=" + std::to_string(N); }

std::string tailNote(const Tail &T) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "p%g of n=%zu", T.Percentile, T.Count);
  return Buf;
}

double peakRssMb() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// The median of a wall-time series, calibrated and raw.
Metric medianOf(const std::string &Name, const std::string &Unit,
                const Series &S) {
  return {Name, Unit, median(S.Cal), countNote(S.size()), median(S.Raw)};
}

Metric tailOf(const std::string &Name, const std::string &Unit,
              const Series &S) {
  Tail T = tailPercentile(S.Cal);
  return {Name, Unit, T.Value, tailNote(T), tailPercentile(S.Raw).Value};
}

double sum(const std::vector<double> &Xs) {
  double Sum = 0;
  for (double X : Xs)
    Sum += X;
  return Sum;
}

std::vector<Metric> endToEnd(const Recorder &S) {
  std::vector<double> DevCal, DevRaw, Cycles;
  for (const auto &[Key, Ms] : S.DeviceMs) {
    DevCal.push_back(median(Ms.Cal));
    DevRaw.push_back(median(Ms.Raw));
  }
  for (const auto &[Key, SC] : S.Sim)
    Cycles.push_back(SC.Total);
  auto PerSecond = [&](const std::vector<double> &Secs) {
    double Sum = sum(Secs);
    return Sum > 0 ? static_cast<double>(Secs.size()) / Sum : 0;
  };
  return {
      medianOf("setup_s", "s", S.SetupS),
      medianOf("compile_us_p50", "us", S.CompileUs),
      tailOf("compile_us_p99", "us", S.CompileUs),
      {"device_run_ms_geomean", "ms", geomean(DevCal),
       std::to_string(DevCal.size()) + " programs", geomean(DevRaw)},
      {"sim_cycles_geomean", "cycles", geomean(Cycles),
       std::to_string(Cycles.size()) + " programs, exact"},
      medianOf("serve_latency_us_p50", "us", S.ServeUs),
      tailOf("serve_latency_us_p99", "us", S.ServeUs),
      {"serve_req_per_s", "1/s", PerSecond(S.ServeLoopS.Cal),
       "requests over the client loop's own wall time, n=" +
           std::to_string(S.ServeLoopS.size()),
       PerSecond(S.ServeLoopS.Raw)},
      {"peak_rss_mb", "MB", peakRssMb(), "getrusage max RSS"},
  };
}

/// geomean over keys of median(traced) / median(untraced).
double overheadRatio(const Recorder &S, const std::string &Kind) {
  auto It = S.Overhead.find(Kind);
  if (It == S.Overhead.end())
    return 0;
  std::vector<double> Ratios;
  for (const auto &[Key, Pair] : It->second)
    if (!Pair.first.empty() && !Pair.second.empty())
      Ratios.push_back(median(Pair.second) / median(Pair.first));
  return geomean(Ratios);
}

std::vector<Metric> perLayer(const Recorder &S, const std::string &Primary) {
  const LayerTotals &L = S.Layers;
  double Compiles = static_cast<double>(L.count("compile"));
  double Runs = static_cast<double>(L.count("device-run"));
  auto PerCompile = [&](const std::string &Layer) {
    return Compiles > 0 ? L.self(Layer) / Compiles : 0;
  };
  auto PerRun = [&](const std::string &Layer) {
    return Runs > 0 ? L.self(Layer) / Runs : 0;
  };
  std::string CompileNote = std::to_string(L.count("compile")) +
                            " traced compiles, mean per compile";
  std::string RunNote = std::to_string(L.count("device-run")) +
                        " traced device runs, mean per run";

  std::vector<Metric> M;
  for (const char *Layer :
       {"frontend", "uniqueness", "inline", "ad_vjp", "simplify", "fusion",
        "flatten", "locality", "memplan", "shardplan", "verify"})
    M.push_back({std::string(Layer) + ".self_us", "us", PerCompile(Layer),
                 CompileNote});
  M.push_back({"compile.unattributed_us", "us",
               PerCompile("compile.unattributed"), CompileNote});
  M.push_back({"compile.span_us", "us",
               Compiles > 0 ? L.dur("compile") / Compiles : 0, CompileNote});

  CompileCounts Sum;
  for (const auto &[Key, K] : S.Counts) {
    Sum.FusionApplied += K.FusionApplied;
    Sum.FlattenKernels += K.FlattenKernels;
    Sum.CoalescedTiled += K.CoalescedTiled;
    Sum.ProgramBytes += K.ProgramBytes;
  }
  std::string ProgNote = std::to_string(S.Counts.size()) + " programs, summed";
  M.push_back({"fusion.applied", "count", double(Sum.FusionApplied), ProgNote});
  M.push_back({"flatten.kernels", "count", double(Sum.FlattenKernels),
               ProgNote});
  M.push_back({"locality.coalesced_tiled", "count", double(Sum.CoalescedTiled),
               ProgNote});
  M.push_back({"ir.program_bytes", "B", double(Sum.ProgramBytes), ProgNote});

  for (const char *Kind :
       {"threadbody", "segreduce", "segscan", "seghist", "transpose"})
    M.push_back({std::string("kernelsim.") + Kind + ".self_us", "us",
                 PerRun(std::string("kernelsim.") + Kind), RunNote});
  M.push_back({"kernelsim.ns_per_op", "ns",
               S.DirectOps > 0 ? S.DirectKernelUs * 1e3 / S.DirectOps : 0,
               "kernel self time over simulated compute ops"});
  M.push_back({"host_runtime.self_us", "us", PerRun("host_runtime"), RunNote});
  M.push_back({"xfer.self_us", "us", PerRun("xfer"), RunNote});
  M.push_back({"device_run.span_us", "us",
               Runs > 0 ? L.dur("device-run") / Runs : 0, RunNote});
  for (const std::string &P : kSuiteSimPrograms) {
    auto It = S.DeviceMs.find(P);
    M.push_back(medianOf("device_run_ms." + P, "ms",
                         It == S.DeviceMs.end() ? Series() : It->second));
  }

  SimCounts Sim;
  for (const auto &[Key, SC] : S.Sim) {
    Sim.Launches += SC.Launches;
    Sim.ComputeOps += SC.ComputeOps;
    Sim.GlobalTx += SC.GlobalTx;
    Sim.Kernel += SC.Kernel;
    Sim.Host += SC.Host;
    Sim.Transfer += SC.Transfer;
  }
  std::string SimNote = std::to_string(S.Sim.size()) + " programs, exact";
  M.push_back({"sim.launches", "count", double(Sim.Launches), SimNote});
  M.push_back({"sim.compute_ops", "count", double(Sim.ComputeOps), SimNote});
  M.push_back({"sim.global_tx", "count", double(Sim.GlobalTx), SimNote});
  M.push_back({"sim.kernel_cycles", "cycles", Sim.Kernel, SimNote});
  M.push_back({"sim.host_cycles", "cycles", Sim.Host, SimNote});
  M.push_back({"sim.transfer_cycles", "cycles", Sim.Transfer, SimNote});

  M.push_back({"interp.run_ms", "ms", sum(S.InterpMs.Cal) / kSetupReps,
               std::to_string(S.InterpMs.size() / kSetupReps) +
                   " reference runs per set-up",
               sum(S.InterpMs.Raw) / kSetupReps});

  M.push_back({"serve.requests", "count", double(S.Requests), "all requests"});
  M.push_back({"serve.hit_ratio", "ratio",
               S.Requests ? double(S.Hits) / double(S.Requests) : 0,
               std::to_string(S.Hits) + " of " + std::to_string(S.Requests)});
  M.push_back(medianOf("serve.hit_us_p50", "us", S.HitUs));
  M.push_back(medianOf("serve.miss_us_p50", "us", S.MissUs));
  double ServeCompiles = static_cast<double>(L.count("serve:compile"));
  M.push_back({"serve.compile_self_us", "us",
               ServeCompiles > 0 ? L.self("serve.compile") / ServeCompiles : 0,
               std::to_string(L.count("serve:compile")) +
                   " traced serve compiles, mean"});
  M.push_back({"serve.retries", "count", double(S.Retries), ""});
  M.push_back({"serve.recompiles", "count", double(S.Recompiles), ""});
  M.push_back({"serve.fallbacks", "count", double(S.Fallbacks), ""});
  M.push_back({"serve.sim_service_cycles_p50", "cycles",
               median(S.ServiceCycles), countNote(S.ServiceCycles.size())});
  M.push_back(medianOf("store.save_us", "us", S.StoreSaveUs));
  M.push_back(medianOf("store.load_us", "us", S.StoreLoadUs));
  M.push_back({"store.disk_hits", "count", double(S.DiskHits), ""});
  M.push_back({"store.disk_stores", "count", double(S.DiskStores), ""});
  M.push_back({"store.bytes", "B", S.StoreBytes, "artifact directory size"});
  M.push_back({"trace.overhead_ratio", "ratio", overheadRatio(S, Primary),
               "traced over untraced " + Primary + " wall time"});
  return M;
}

/// Writes the traced run's spans (self times included) and layer totals.
void writeSpans(const Recorder &S, const std::string &Path) {
  std::ofstream Out(Path);
  Out << "{\"workload\":\"" << json::escape(S.O.Workload)
      << "\",\"seed\":" << S.O.Seed << ",\"layer_self_us\":{";
  bool First = true;
  for (const auto &[Layer, Us] : S.Layers.SelfUs) {
    Out << (First ? "" : ",") << "\"" << json::escape(Layer)
        << "\":" << json::number(Us);
    First = false;
  }
  Out << "},\"spans\":[\n";
  First = true;
  for (const SpanSelf &Sp : S.KeptSpans) {
    Out << (First ? "" : ",\n") << "{\"name\":\"" << json::escape(Sp.Name)
        << "\",\"layer\":\"" << json::escape(Sp.Layer)
        << "\",\"start_us\":" << json::number(Sp.StartUs)
        << ",\"dur_us\":" << json::number(Sp.DurUs)
        << ",\"self_us\":" << json::number(Sp.SelfUs)
        << ",\"parent\":" << Sp.Parent << "}";
    First = false;
  }
  Out << "\n]}\n";
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"suite-sim", "compile-corpus",
                                                 "serve-mix"};
  return Names;
}

RunReport perfbench::runWorkload(const RunOptions &O) {
  Recorder S(O);
  std::string Primary;
  if (O.Workload == "suite-sim") {
    suiteSim(S);
    Primary = "device";
  } else if (O.Workload == "compile-corpus") {
    compileCorpus(S);
    Primary = "compile";
  } else {
    serveMix(S);
    Primary = "serve";
  }
  RunReport R;
  R.Checks = S.Checks;
  R.SpeedFactor = S.Speed.factorSince(0);
  R.Metrics = O.Trace ? perLayer(S, Primary) : endToEnd(S);
  if (O.Trace)
    writeSpans(S, (fs::path(O.OutDir) / (O.Workload + "-seed" +
                                          std::to_string(O.Seed) +
                                          "-spans.json"))
                      .string());
  return R;
}
