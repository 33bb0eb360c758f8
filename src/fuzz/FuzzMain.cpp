//===- FuzzMain.cpp - The futharkcc-fuzz driver ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differentially fuzzes the compiler: for each seed, generate a small
/// well-typed program, run it through the full pipeline + simulated device
/// and through the reference interpreter, and demand bit-identical results
/// (or the identical typed runtime error).  Failures are shrunk to minimal
/// plans and written out as self-contained .fut regression files.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"

#include "gpusim/CostModel.h"
#include "support/Utils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace fut;
using namespace fut::fuzz;

namespace {

void usage() {
  fprintf(stderr,
          "usage: futharkcc-fuzz [options]\n"
          "  --seed <n>          fuzz exactly one seed\n"
          "  --seed-range <a..b> fuzz seeds a through b inclusive "
          "(default 1..100)\n"
          "  --count <n>         fuzz seeds 1..n (shorthand)\n"
          "  --out <dir>         where to write minimized .fut failures\n"
          "                      (default: fuzz-failures)\n"
          "  --no-shrink         report raw failures without minimizing\n"
          "  --devices <n>       run the device side sharded across n\n"
          "                      simulated devices (default 1)\n"
          "  --hist-global       force the global-atomic histogram\n"
          "                      lowering (local-width threshold 0), so\n"
          "                      the sweep covers both strategies\n"
          "  --cost-model <m>    run the device leg under cost model m\n"
          "                      (roofline | pipeline); outputs must stay\n"
          "                      bit-identical to the reference either way\n"
          "  --cross-model       additionally run each seed's device leg\n"
          "                      under BOTH cost models and demand\n"
          "                      bit-identical outputs and exactly equal\n"
          "                      model-independent counters\n"
          "  --split-ranges      additionally run each seed's device leg\n"
          "                      with every launch split into ranges of\n"
          "                      less than a warp (a test hook) and\n"
          "                      demand the identical cost line, outputs\n"
          "                      and typed errors\n"
          "  --vjp               gradient-check sweep: generate smooth f64\n"
          "                      programs, compile each with --vjp=main,\n"
          "                      and compare the adjoints on the simulated\n"
          "                      device against central finite differences\n"
          "                      through the reference interpreter\n"
          "  --dump <n>          print the program for seed n and exit\n"
          "  -v                  print every seed as it runs\n");
}

bool parseRange(const std::string &S, uint64_t &Lo, uint64_t &Hi) {
  size_t Dots = S.find("..");
  return Dots != std::string::npos && parseNumArg(S.substr(0, Dots), Lo) &&
         parseNumArg(S.substr(Dots + 2), Hi) && Lo <= Hi;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Lo = 1, Hi = 100;
  std::string OutDir = "fuzz-failures";
  bool Shrink = true, Verbose = false, CrossModel = false, VjpMode = false,
       SplitRanges = false;
  int64_t DumpSeed = -1;
  int Devices = 1;
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return ++I < argc ? argv[I] : nullptr;
    };
    if (A == "--seed") {
      const char *V = Next();
      if (!V || !parseNumArg(V, Lo)) {
        usage();
        return 2;
      }
      Hi = Lo;
    } else if (A == "--seed-range") {
      const char *V = Next();
      if (!V || !parseRange(V, Lo, Hi)) {
        usage();
        return 2;
      }
    } else if (A.rfind("--seed-range=", 0) == 0) {
      if (!parseRange(A.substr(strlen("--seed-range=")), Lo, Hi)) {
        usage();
        return 2;
      }
    } else if (A == "--count") {
      const char *V = Next();
      if (!V || !parseNumArg(V, Hi)) {
        usage();
        return 2;
      }
      Lo = 1;
    } else if (A == "--out") {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      OutDir = V;
    } else if (A == "--no-shrink") {
      Shrink = false;
    } else if (A == "--hist-global") {
      DP.HistLocalWidthMax = 0;
    } else if (A == "--cost-model" || A.rfind("--cost-model=", 0) == 0) {
      const char *V =
          A == "--cost-model" ? Next() : A.c_str() + strlen("--cost-model=");
      if (!V || !gpusim::CostModel::byName(V)) {
        usage();
        return 2;
      }
      DP.CostModelName = V;
    } else if (A == "--cross-model") {
      CrossModel = true;
    } else if (A == "--split-ranges") {
      SplitRanges = true;
    } else if (A == "--vjp") {
      VjpMode = true;
    } else if (A == "--devices" || A.rfind("--devices=", 0) == 0) {
      const char *V =
          A == "--devices" ? Next() : A.c_str() + strlen("--devices=");
      if (!V || !parseNumArg(V, Devices) || Devices < 1) {
        usage();
        return 2;
      }
    } else if (A == "--dump") {
      const char *V = Next();
      if (!V || !parseNumArg(V, DumpSeed) || DumpSeed < 0) {
        usage();
        return 2;
      }
    } else if (A == "-v") {
      Verbose = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  if (DumpSeed >= 0) {
    FuzzCase C = VjpMode ? generateGrad(static_cast<uint64_t>(DumpSeed))
                         : generate(static_cast<uint64_t>(DumpSeed));
    printf("%s", toRegressionFile(C, {"seed " + std::to_string(DumpSeed)})
                     .c_str());
    return 0;
  }

  if (VjpMode) {
    // Gradient-check sweep: every seed's adjoints (compiled VJP, full
    // verified pipeline, simulated device) vs. central finite differences
    // of the primal through the reference interpreter.
    uint64_t Failures = 0;
    double MaxRelErr = 0.0;
    for (uint64_t Seed = Lo; Seed <= Hi; ++Seed) {
      GradPlan P = sampleGradPlan(Seed);
      FuzzCase C = renderGradPlan(P, Seed);
      GradOutcome O = runGradientCheck(C, DP);
      MaxRelErr = std::max(MaxRelErr, O.MaxRelErr);
      if (O.Ok) {
        if (Verbose)
          fprintf(stderr, "seed %llu: ok (max rel err %.3g)\n",
                  static_cast<unsigned long long>(Seed), O.MaxRelErr);
        continue;
      }

      ++Failures;
      fprintf(stderr, "seed %llu: GRADIENT FAIL\n%s\n",
              static_cast<unsigned long long>(Seed), O.Message.c_str());

      FuzzCase Min = C;
      std::string MinMsg = O.Message;
      if (Shrink) {
        GradShrinkResult SR = shrinkGrad(P, Seed, DP);
        Min = SR.Minimal;
        MinMsg = SR.Message;
        fprintf(stderr, "shrunk (%d steps removed, %d attempts) to:\n%s\n",
                SR.StepsRemoved, SR.Attempts, Min.Source.c_str());
      }

      std::string Path =
          OutDir + "/gradseed" + std::to_string(Seed) + ".fut";
      std::ofstream OS(Path);
      if (OS) {
        std::string FirstLine = MinMsg.substr(0, MinMsg.find('\n'));
        OS << toRegressionFile(
            Min, {"gradient-check failure, seed " + std::to_string(Seed),
                  FirstLine});
        fprintf(stderr, "wrote %s\n", Path.c_str());
      } else {
        fprintf(stderr, "cannot write %s (create the directory first?)\n",
                Path.c_str());
      }
    }
    fprintf(stderr,
            "gradient-checked seeds %llu..%llu: %llu failure(s), max rel "
            "err %.3g (tol %.1g)\n",
            static_cast<unsigned long long>(Lo),
            static_cast<unsigned long long>(Hi),
            static_cast<unsigned long long>(Failures), MaxRelErr,
            GradRelTol);
    return Failures == 0 ? 0 : 1;
  }

  uint64_t Failures = 0, BothFailed = 0;
  for (uint64_t Seed = Lo; Seed <= Hi; ++Seed) {
    Plan P = samplePlan(Seed);
    FuzzCase C = renderPlan(P, Seed);
    Outcome O = runDifferential(C, DP, Devices);
    if (O.Ok && CrossModel) {
      // The cross-model oracle is independent of the interpreter: both
      // cost models must produce bit-identical outputs and exactly equal
      // model-independent counters.  A disagreement is reported as-is —
      // the differential shrinker would not reproduce it.
      Outcome XM = runCrossModel(C, DP, Devices);
      if (!XM.Ok) {
        ++Failures;
        fprintf(stderr, "seed %llu: CROSS-MODEL FAIL\n%s\n",
                static_cast<unsigned long long>(Seed), XM.Message.c_str());
        continue;
      }
    }
    if (O.Ok && SplitRanges) {
      // Like the cross-model oracle, independent of the interpreter: a
      // split launch must merge to exactly what the whole launch computes
      // and charges.
      Outcome SR = runSplitRanges(C, DP, Devices);
      if (!SR.Ok) {
        ++Failures;
        fprintf(stderr, "seed %llu: SPLIT-RANGES FAIL\n%s\n",
                static_cast<unsigned long long>(Seed), SR.Message.c_str());
        continue;
      }
    }
    if (O.Ok) {
      if (O.BothFailed)
        ++BothFailed;
      if (Verbose)
        fprintf(stderr, "seed %llu: ok%s\n",
                static_cast<unsigned long long>(Seed),
                O.BothFailed ? " (agreed runtime error)" : "");
      continue;
    }

    ++Failures;
    fprintf(stderr, "seed %llu: FAIL\n%s\n",
            static_cast<unsigned long long>(Seed), O.Message.c_str());

    FuzzCase Min = C;
    std::string MinMsg = O.Message;
    if (Shrink) {
      ShrinkResult SR = shrink(P, Seed, DP, Devices);
      Min = SR.Minimal;
      MinMsg = SR.Message;
      fprintf(stderr,
              "shrunk (%d steps removed, %d attempts) to:\n%s\n",
              SR.StepsRemoved, SR.Attempts, Min.Source.c_str());
    }

    std::string Path =
        OutDir + "/seed" + std::to_string(Seed) + ".fut";
    std::ofstream OS(Path);
    if (OS) {
      // First message line only: the full report repeats the source.
      std::string FirstLine = MinMsg.substr(0, MinMsg.find('\n'));
      OS << toRegressionFile(
          Min, {"fuzzer failure, seed " + std::to_string(Seed),
                FirstLine});
      fprintf(stderr, "wrote %s\n", Path.c_str());
    } else {
      fprintf(stderr,
              "cannot write %s (create the directory first?)\n",
              Path.c_str());
    }
  }

  fprintf(stderr,
          "fuzzed seeds %llu..%llu: %llu failure(s), %llu agreed runtime "
          "error(s)\n",
          static_cast<unsigned long long>(Lo),
          static_cast<unsigned long long>(Hi),
          static_cast<unsigned long long>(Failures),
          static_cast<unsigned long long>(BothFailed));
  return Failures == 0 ? 0 : 1;
}
