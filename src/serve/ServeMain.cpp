//===- ServeMain.cpp - The futharkcc-serve command-line service -----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end of the serving layer: builds a workload of
/// compile/run requests (from source files or from the built-in program
/// mix), drains it through serve::Server on one shared simulated device,
/// and reports per-request outcomes plus the service counters.
///
///   futharkcc-serve prog.fut --requests 16        # 16 requests, one source
///   futharkcc-serve a.fut b.fut --requests 8      # interleaved tenants
///   futharkcc-serve --builtin 32 --fault-rate 0.4 # soak the failure paths
///   futharkcc-serve --builtin 32 --check          # verify vs interpreter
///
/// --check recomputes every successful response on the reference
/// interpreter (unoptimised frontend output, no faults, no sharing) and
/// demands bit-identical results: the cross-request contamination check
/// used by the CI soak leg.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "serve/Serve.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace fut;

namespace {

void usage() {
  fprintf(stderr,
          "usage: futharkcc-serve [file.fut ...] [options]\n"
          "workload:\n"
          "  --builtin <n>      synthesise n requests over the built-in\n"
          "                     program mix instead of reading files\n"
          "  --requests <n>     requests per source file (default 8)\n"
          "  --arrival-gap <c>  simulated cycles between arrivals\n"
          "                     (default 20000)\n"
          "service:\n"
          "  --queue-depth <n>  bounded queue capacity (default 64)\n"
          "  --cache-entries <n> artifact cache capacity (default 64)\n"
          "  --compile-cycles <c> simulated cost of a cache miss\n"
          "  --device <name>    gtx780 (default) or w8100\n"
          "  --device-mem <b>   device capacity in bytes (0 = unlimited)\n"
          "  --artifact-dir <d> persist compiled artifacts to directory d;\n"
          "                     a restarted server serves them as cache\n"
          "                     hits without recompiling\n"
          "per-request limits:\n"
          "  --deadline <c>     per-request deadline in simulated cycles\n"
          "  --watchdog <c>     per-kernel watchdog budget\n"
          "  --max-retries <n>  device retries per kernel (default 3)\n"
          "  --fault-rate <p>   injected launch-failure probability\n"
          "  --corrupt-rate <p> injected corruption probability\n"
          "  --fault-seed <n>   base seed; request i uses seed n + i\n"
          "  --no-fallback      typed error instead of interpreter fallback\n"
          "validation and reporting:\n"
          "  --check            recompute every Ok response on the\n"
          "                     reference interpreter; exit 1 on mismatch\n"
          "  --quiet            suppress per-request lines\n"
          "  --trace            print the span/counter summary to stderr\n"
          "  --trace-out <file> write Chrome trace_event JSON\n");
}

/// The built-in workload mix: small programs exercising map/reduce/scan
/// pipelines, each served with a few argument sizes so the admission
/// controller sees several (artifact, signature) profiles.
struct Builtin {
  const char *Name;
  const char *Source;
};

const Builtin kBuiltins[] = {
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

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = static_cast<bool>(In);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Files;
  int BuiltinN = 0;
  int RequestsPerFile = 8;
  double ArrivalGap = 20000;
  bool Check = false, Quiet = false, TraceSummary = false;
  std::string TraceOut;
  serve::ServerConfig SC;
  // The --device preset applies first, wherever it is, so that
  // --device-mem on either side of it refines it.
  auto Preset = gpusim::devicePresetFromArgs(argc, argv);
  if (!Preset) {
    fprintf(stderr, "%s\n", Preset.getError().Message.c_str());
    return 2;
  }
  SC.Device = *Preset;
  serve::ServeLimits Limits;
  uint64_t BaseSeed = 1;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--builtin") {
      if (++I >= argc || !parseNumArg(argv[I], BuiltinN)) {
        usage();
        return 2;
      }
    } else if (A == "--requests") {
      if (++I >= argc || !parseNumArg(argv[I], RequestsPerFile)) {
        usage();
        return 2;
      }
    } else if (A == "--arrival-gap") {
      if (++I >= argc || !parseNumArg(argv[I], ArrivalGap)) {
        usage();
        return 2;
      }
    } else if (A == "--queue-depth") {
      if (++I >= argc || !parseNumArg(argv[I], SC.MaxQueueDepth)) {
        usage();
        return 2;
      }
    } else if (A == "--cache-entries") {
      if (++I >= argc || !parseNumArg(argv[I], SC.MaxCacheEntries)) {
        usage();
        return 2;
      }
    } else if (A == "--compile-cycles") {
      if (++I >= argc || !parseNumArg(argv[I], SC.CompileCycles)) {
        usage();
        return 2;
      }
    } else if (A == "--device") {
      if (++I >= argc) { // the preset is already applied
        usage();
        return 2;
      }
    } else if (A == "--device-mem") {
      if (++I >= argc || !parseNumArg(argv[I], SC.Device.DeviceMemBytes)) {
        usage();
        return 2;
      }
    } else if (A == "--artifact-dir") {
      if (++I >= argc) {
        usage();
        return 2;
      }
      SC.ArtifactDir = argv[I];
    } else if (A.rfind("--artifact-dir=", 0) == 0) {
      SC.ArtifactDir = A.substr(strlen("--artifact-dir="));
    } else if (A == "--deadline") {
      if (++I >= argc || !parseNumArg(argv[I], Limits.DeadlineCycles)) {
        usage();
        return 2;
      }
    } else if (A == "--watchdog") {
      if (++I >= argc || !parseNumArg(argv[I], Limits.WatchdogKernelCycles)) {
        usage();
        return 2;
      }
    } else if (A == "--max-retries") {
      if (++I >= argc || !parseNumArg(argv[I], Limits.MaxRetries)) {
        usage();
        return 2;
      }
    } else if (A == "--fault-rate") {
      if (++I >= argc || !parseNumArg(argv[I], Limits.LaunchFailRate)) {
        usage();
        return 2;
      }
    } else if (A == "--corrupt-rate") {
      if (++I >= argc || !parseNumArg(argv[I], Limits.CorruptRate)) {
        usage();
        return 2;
      }
    } else if (A == "--fault-seed") {
      if (++I >= argc || !parseNumArg(argv[I], BaseSeed)) {
        usage();
        return 2;
      }
    } else if (A == "--no-fallback") {
      Limits.AllowFallback = false;
    } else if (A == "--check") {
      Check = true;
    } else if (A == "--quiet") {
      Quiet = true;
    } else if (A == "--trace") {
      TraceSummary = true;
    } else if (A == "--trace-out") {
      if (++I >= argc) {
        usage();
        return 2;
      }
      TraceOut = argv[I];
    } else if (A.rfind("--trace-out=", 0) == 0) {
      TraceOut = A.substr(strlen("--trace-out="));
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      fprintf(stderr, "unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    } else {
      Files.push_back(A);
    }
  }
  if (Files.empty() && BuiltinN <= 0) {
    usage();
    return 2;
  }

  bool Tracing = TraceSummary || !TraceOut.empty();
  if (Tracing) {
    trace::TraceSession::global().clear();
    trace::TraceSession::global().setEnabled(true);
  }

  // Assemble the workload: (label, source, args) per request, round-robin
  // over sources so concurrent tenants genuinely interleave.
  struct WorkItem {
    std::string Label;
    std::string Source;
    std::vector<Value> Args;
  };
  std::vector<WorkItem> Work;

  if (BuiltinN > 0) {
    const int kNumBuiltins =
        static_cast<int>(sizeof(kBuiltins) / sizeof(kBuiltins[0]));
    const int32_t Sizes[] = {256, 512, 1024};
    for (int I = 0; I < BuiltinN; ++I) {
      const Builtin &B = kBuiltins[I % kNumBuiltins];
      int32_t N = Sizes[(I / kNumBuiltins) % 3];
      WorkItem W;
      W.Label = std::string(B.Name) + "/" + std::to_string(N);
      W.Source = B.Source;
      W.Args.push_back(Value::scalar(PrimValue::makeI32(N)));
      Work.push_back(std::move(W));
    }
  } else {
    std::vector<std::pair<std::string, std::string>> Sources;
    for (const std::string &F : Files) {
      bool Ok = false;
      std::string S = readFile(F, Ok);
      if (!Ok) {
        fprintf(stderr, "error: cannot open %s\n", F.c_str());
        return 1;
      }
      Sources.emplace_back(F, std::move(S));
    }
    for (int I = 0; I < RequestsPerFile; ++I)
      for (auto &SP : Sources) {
        WorkItem W;
        W.Label = SP.first;
        W.Source = SP.second;
        Work.push_back(std::move(W));
      }
  }

  serve::Server Server(SC);
  std::vector<WorkItem> ById(Work.size() + 1);
  for (size_t I = 0; I < Work.size(); ++I) {
    serve::ServeRequest R;
    R.Source = Work[I].Source;
    R.Args = Work[I].Args;
    R.ArrivalCycle = static_cast<double>(I) * ArrivalGap;
    R.Limits = Limits;
    R.Limits.FaultSeed = BaseSeed + I;
    uint64_t Id = Server.submit(std::move(R));
    if (Id < ById.size())
      ById[Id] = Work[I];
  }

  std::vector<serve::ServeResponse> Responses = Server.drain();

  int Mismatches = 0, CheckedOk = 0;
  for (const serve::ServeResponse &R : Responses) {
    const WorkItem &W = R.Id < ById.size() ? ById[R.Id] : ById[0];
    if (!Quiet) {
      std::string Outcome;
      if (R.Ok)
        Outcome = R.InterpFallback ? "ok (interp-fallback)"
                  : R.Recompiled   ? "ok (recompiled)"
                                   : "ok";
      else
        Outcome = std::string("failed [") + errorKindName(R.Error) + "]";
      printf("#%llu %-18s %-22s %s attempts=%d queued=%.0f service=%.0f%s\n",
             static_cast<unsigned long long>(R.Id), W.Label.c_str(),
             Outcome.c_str(),
             R.CacheHit  ? "hit " :
             R.Attempts  ? "miss" : "-   ",
             R.Attempts, R.queuedCycles(), R.serviceCycles(),
             R.Solo ? " solo" : "");
    }
    if (Check && R.Ok) {
      auto Ref = fuzz::referenceRun(W.Source, W.Args);
      std::string Diff = Ref ? firstDifference(R.Outputs, *Ref)
                             : "the reference failed: " + Ref.getError().str();
      if (!Diff.empty()) {
        ++Mismatches;
        fprintf(stderr,
                "CONTAMINATION: request %llu (%s) diverged from the "
                "reference interpreter: %s\n",
                static_cast<unsigned long long>(R.Id), W.Label.c_str(),
                Diff.c_str());
      } else {
        ++CheckedOk;
      }
    }
  }

  const serve::ServerStats &St = Server.stats();
  fprintf(stderr,
          "serve: %lld submitted, %lld admitted, %lld completed, %lld "
          "failed, %lld shed (overload %lld, deadline %lld)\n"
          "serve: cache %zu entries, %lld hits / %lld misses (%.1f%% hit "
          "rate), %lld compiles, %lld recompiles\n"
          "serve: %lld device failures, %lld quarantined, %lld interpreter "
          "fallbacks\n"
          "serve: %lld solo + %lld packed runs, peak %lld tenants, peak "
          "reserved %lld / %lld bytes, peak queue %zu\n",
          static_cast<long long>(St.Submitted),
          static_cast<long long>(St.Admitted),
          static_cast<long long>(St.Completed),
          static_cast<long long>(St.Failed),
          static_cast<long long>(St.ShedOverload + St.ShedDeadline),
          static_cast<long long>(St.ShedOverload),
          static_cast<long long>(St.ShedDeadline), Server.cacheSize(),
          static_cast<long long>(St.CacheHits),
          static_cast<long long>(St.CacheMisses), 100.0 * St.cacheHitRate(),
          static_cast<long long>(St.Compiles),
          static_cast<long long>(St.Recompiles),
          static_cast<long long>(St.DeviceFailures),
          static_cast<long long>(St.Quarantined),
          static_cast<long long>(St.Fallbacks),
          static_cast<long long>(St.SoloRuns),
          static_cast<long long>(St.PackedRuns),
          static_cast<long long>(St.PeakResidentTenants),
          static_cast<long long>(St.PeakReservedBytes),
          static_cast<long long>(SC.Device.DeviceMemBytes),
          St.PeakQueueDepth);
  if (!SC.ArtifactDir.empty())
    fprintf(stderr,
            "serve: artifact store '%s': %lld disk hits, %lld stores, %lld "
            "corrupt\n",
            SC.ArtifactDir.c_str(), static_cast<long long>(St.DiskHits),
            static_cast<long long>(St.DiskStores),
            static_cast<long long>(St.DiskCorrupt));
  if (Check)
    fprintf(stderr, "serve: --check verified %d responses, %d mismatches\n",
            CheckedOk, Mismatches);

  if (Tracing) {
    if (TraceSummary)
      fprintf(stderr, "%s", trace::TraceSession::global().summary().c_str());
    if (!TraceOut.empty()) {
      if (auto Err =
              trace::TraceSession::global().writeChromeTrace(TraceOut)) {
        fprintf(stderr, "trace error: %s\n", Err.getError().Message.c_str());
        return 1;
      }
      fprintf(stderr, "trace written to %s\n", TraceOut.c_str());
    }
  }

  // Completeness is the robustness contract: every submission must have
  // produced exactly one response.
  if (Responses.size() != static_cast<size_t>(St.Submitted)) {
    fprintf(stderr, "serve: INTERNAL: %zu responses for %lld submissions\n",
            Responses.size(), static_cast<long long>(St.Submitted));
    return 1;
  }
  return Mismatches ? 1 : 0;
}
