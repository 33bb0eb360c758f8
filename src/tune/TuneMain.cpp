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

#include "driver/ToolFlags.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace fut;
using namespace fut::tune;

int main(int argc, char **argv) {
  TuneOptions O;
  std::vector<std::string> Benches;
  std::string JsonPath;
  int MinWins = 0;
  double MinImprovement = 0;
  bool List = false;
  cli::Command Cmd{
      .Synopsis = "futharkcc-tune [options]",
      .Flags = {
          {"--bench", "<name>",
           "tune one benchmark (repeatable); default: the full suite",
           [&](auto &V) { return Benches.push_back(V), true; }},
          cli::devicePreset(O.Device),
          cli::costModel("oracle cycle model: roofline (default) or pipeline",
                         O.Device),
          cli::number("--seed", "<n>", "axis-order shuffle seed (default 1)",
                      O.Seed),
          cli::number("--rounds", "<n>",
                      "coordinate-descent rounds (default 2)", O.Rounds, 1),
          cli::text("--json", "<file>", "write the results as JSON",
                    JsonPath),
          cli::number("--min-wins", "<n>",
                      "with --min-improvement: fail unless at least n "
                      "benchmarks improve that much",
                      MinWins),
          cli::number("--min-improvement", "<pct>",
                      "the improvement bar (percent)", MinImprovement),
          cli::toggle("--list", "list benchmark names and exit", List),
      }};
  if (auto Exit = Cmd.parse(argc, argv))
    return *Exit;
  if (List) {
    for (const auto &B : bench::allBenchmarks())
      printf("%s\n", B.Name.c_str());
    return 0;
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
