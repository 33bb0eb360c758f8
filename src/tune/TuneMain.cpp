//===- TuneMain.cpp - The futharkcc-tune driver ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunes device-parameter knobs per benchmark with simulated cycles as the
/// oracle and bit-identical outputs as the hard constraint, then prints a
/// per-benchmark table and (optionally) a JSON report.  --min-wins /
/// --min-improvement turn the run into an assertion for CI: exit nonzero
/// unless at least N benchmarks improved by at least the given percentage.
///
//===----------------------------------------------------------------------===//

#include "tune/Tune.h"

#include "gpusim/CostModel.h"
#include "support/Utils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace fut;
using namespace fut::tune;

namespace {

void usage() {
  fprintf(stderr,
          "usage: futharkcc-tune [options]\n"
          "  --bench <name>       tune one benchmark (repeatable);\n"
          "                       default: the full suite\n"
          "  --device <d>         gtx780 (default) or w8100\n"
          "  --cost-model <m>     oracle cycle model: roofline (default)\n"
          "                       or pipeline\n"
          "  --seed <n>           axis-order shuffle seed (default 1)\n"
          "  --rounds <n>         coordinate-descent rounds (default 2)\n"
          "  --json <file>        write the results as JSON\n"
          "  --min-wins <n>       with --min-improvement: fail unless at\n"
          "                       least n benchmarks improve that much\n"
          "  --min-improvement <pct>  the improvement bar (percent)\n"
          "  --list               list benchmark names and exit\n");
}

} // namespace

int main(int argc, char **argv) {
  TuneOptions O;
  // The --device preset applies first, wherever it is, so that
  // --cost-model on either side of it refines it.
  auto Preset = gpusim::devicePresetFromArgs(argc, argv);
  if (!Preset) {
    fprintf(stderr, "%s\n", Preset.getError().Message.c_str());
    return 2;
  }
  O.Device = *Preset;
  std::vector<std::string> Benches;
  std::string JsonPath;
  int MinWins = 0;
  double MinImprovement = 0;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return ++I < argc ? argv[I] : nullptr;
    };
    if (A == "--bench") {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      Benches.push_back(V);
    } else if (A == "--device") {
      if (!Next()) { // the preset is already applied
        usage();
        return 2;
      }
    } else if (A == "--cost-model" || A.rfind("--cost-model=", 0) == 0) {
      const char *V =
          A == "--cost-model" ? Next() : A.c_str() + strlen("--cost-model=");
      if (!V || !gpusim::CostModel::byName(V)) {
        usage();
        return 2;
      }
      O.Device.CostModelName = V;
    } else if (A == "--seed") {
      const char *V = Next();
      if (!V || !parseNumArg(V, O.Seed)) {
        usage();
        return 2;
      }
    } else if (A == "--rounds") {
      const char *V = Next();
      if (!V || !parseNumArg(V, O.Rounds) || O.Rounds < 1) {
        usage();
        return 2;
      }
    } else if (A == "--json") {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      JsonPath = V;
    } else if (A == "--min-wins") {
      const char *V = Next();
      if (!V || !parseNumArg(V, MinWins)) {
        usage();
        return 2;
      }
    } else if (A == "--min-improvement") {
      const char *V = Next();
      if (!V || !parseNumArg(V, MinImprovement)) {
        usage();
        return 2;
      }
    } else if (A == "--list") {
      for (const auto &B : bench::allBenchmarks())
        printf("%s\n", B.Name.c_str());
      return 0;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  std::vector<const bench::BenchmarkDef *> Defs;
  if (Benches.empty()) {
    for (const auto &B : bench::allBenchmarks())
      Defs.push_back(&B);
  } else {
    for (const std::string &Name : Benches) {
      const bench::BenchmarkDef *B = bench::findBenchmark(Name);
      if (!B) {
        fprintf(stderr, "unknown benchmark '%s' (--list shows them)\n",
                Name.c_str());
        return 2;
      }
      Defs.push_back(B);
    }
  }

  printf("futharkcc-tune: oracle=%s seed=%llu rounds=%d\n",
         O.Device.CostModelName.c_str(),
         static_cast<unsigned long long>(O.Seed), O.Rounds);
  printf("%-16s %14s %14s %7s %6s  %s\n", "benchmark", "baseline", "tuned",
         "gain", "evals", "best knobs");

  std::vector<TuneResult> Results;
  int Failures = 0;
  for (const bench::BenchmarkDef *B : Defs) {
    auto R = tuneBenchmark(*B, O);
    if (!R) {
      ++Failures;
      fprintf(stderr, "%-16s FAILED: %s\n", B->Name.c_str(),
              R.getError().str().c_str());
      continue;
    }
    printf("%-16s %14lld %14lld %6.1f%% %6d  %s\n", R->Bench.c_str(),
           static_cast<long long>(R->BaselineCycles),
           static_cast<long long>(R->BestCycles), R->improvementPct(),
           R->Evals, R->Best.str().c_str());
    if (R->OutputMismatches > 0) {
      // The knobs are semantics-preserving; a divergent output is a
      // compiler bug the tuner refuses to paper over.
      ++Failures;
      fprintf(stderr,
              "%-16s %d candidate configuration(s) changed the outputs\n",
              R->Bench.c_str(), R->OutputMismatches);
    }
    Results.push_back(*R);
  }

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    OS << toJson(Results);
    printf("wrote %s\n", JsonPath.c_str());
  }

  if (MinWins > 0) {
    int Wins = 0;
    for (const TuneResult &R : Results)
      if (R.improvementPct() >= MinImprovement)
        ++Wins;
    printf("%d/%zu benchmark(s) improved by >= %.1f%% (required: %d)\n",
           Wins, Results.size(), MinImprovement, MinWins);
    if (Wins < MinWins)
      return 1;
  }
  return Failures == 0 ? 0 : 1;
}
