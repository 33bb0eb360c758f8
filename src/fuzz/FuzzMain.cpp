//===- FuzzMain.cpp - The futharkcc-fuzz driver ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differentially fuzzes the compiler: for each seed, generate a small
/// well-typed program, run it once through the reference interpreter and,
/// on every leg of fuzz::sweepLegs(), through the full pipeline +
/// simulated device, and demand bit-identical results (or the identical
/// typed runtime error) and the legs' twin checks.  Failures are shrunk on
/// the failing leg to minimal plans and written out as self-contained .fut
/// regression files.  The summary gives each leg's seeds, failures and
/// agreed runtime errors.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"

#include "support/Utils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace fut;
using namespace fut::fuzz;

namespace {

void usage() {
  fprintf(stderr,
          "usage: futharkcc-fuzz [options]\n"
          "Runs each seed's program once on the reference interpreter and\n"
          "on every leg of the sweep, compared with it:\n");
  for (const Leg &L : sweepLegs())
    fprintf(stderr, "  %s\n", L.Name.c_str());
  fprintf(stderr,
          "options:\n"
          "  --seed <n>          fuzz exactly one seed\n"
          "  --seed-range <a..b> fuzz seeds a through b inclusive "
          "(default 1..100)\n"
          "  --count <n>         fuzz seeds 1..n (shorthand)\n"
          "  --out <dir>         where to write minimized .fut failures\n"
          "                      (default: fuzz-failures)\n"
          "  --no-shrink         report raw failures without minimizing\n"
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

/// Writes \p Min to \p Path as a regression file whose comment header is
/// \p Header and the failure report \p Msg up to its program, which the
/// file holds anyway.
void writeReproducer(const std::string &Path, const FuzzCase &Min,
                     const std::string &Header, const std::string &Msg) {
  std::ofstream OS(Path);
  if (!OS) {
    fprintf(stderr, "cannot write %s (create the directory first?)\n",
            Path.c_str());
    return;
  }
  std::vector<std::string> Comments = {Header};
  std::istringstream Lines(Msg);
  for (std::string Line; std::getline(Lines, Line) && Line != "program:";)
    Comments.push_back(Line);
  OS << toRegressionFile(Min, Comments);
  fprintf(stderr, "wrote %s\n", Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Lo = 1, Hi = 100;
  std::string OutDir = "fuzz-failures";
  bool Shrink = true, Verbose = false, VjpMode = false;
  int64_t DumpSeed = -1;

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
    } else if (A == "--vjp") {
      VjpMode = true;
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
      GradOutcome O = runGradientCheck(C);
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
        GradShrinkResult SR = shrinkGrad(P, Seed);
        Min = SR.Minimal;
        MinMsg = SR.Message;
        fprintf(stderr, "shrunk (%d steps removed, %d attempts) to:\n%s\n",
                SR.StepsRemoved, SR.Attempts, Min.Source.c_str());
      }

      writeReproducer(OutDir + "/gradseed" + std::to_string(Seed) + ".fut",
                      Min, "gradient-check failure, seed " +
                               std::to_string(Seed),
                      MinMsg);
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

  const std::vector<Leg> &Legs = sweepLegs();
  struct Tally {
    uint64_t Seeds = 0, Failures = 0, BothFailed = 0;
  };
  std::vector<Tally> Tallies(Legs.size());
  uint64_t FailingSeeds = 0;
  for (uint64_t Seed = Lo; Seed <= Hi; ++Seed) {
    Plan P = samplePlan(Seed);
    FuzzCase C = renderPlan(P, Seed);
    std::vector<Outcome> Os = runDifferential(C, Legs);
    int Agreed = 0;
    bool Failed = false;
    for (size_t L = 0; L < Legs.size(); ++L) {
      ++Tallies[L].Seeds;
      if (Os[L].Ok) {
        Tallies[L].BothFailed += Os[L].BothFailed;
        Agreed += Os[L].BothFailed;
        continue;
      }
      ++Tallies[L].Failures;
      Failed = true;
      fprintf(stderr, "seed %llu: FAIL on leg %s\n%s\n",
              static_cast<unsigned long long>(Seed), Legs[L].Name.c_str(),
              Os[L].Message.c_str());

      FuzzCase Min = C;
      std::string MinMsg = Os[L].Message;
      if (Shrink) {
        ShrinkResult SR = shrink(P, Seed, Legs, L);
        Min = SR.Minimal;
        MinMsg = SR.Message;
        fprintf(stderr, "shrunk (%d steps removed, %d attempts) to:\n%s\n",
                SR.StepsRemoved, SR.Attempts, Min.Source.c_str());
      }

      writeReproducer(OutDir + "/seed" + std::to_string(Seed) + "-" +
                          Legs[L].Name + ".fut",
                      Min, "fuzzer failure, seed " + std::to_string(Seed),
                      MinMsg);
    }
    FailingSeeds += Failed;
    if (Verbose && !Failed) {
      if (Agreed)
        fprintf(stderr, "seed %llu: ok (agreed runtime error on %d of %zu "
                        "legs)\n",
                static_cast<unsigned long long>(Seed), Agreed, Legs.size());
      else
        fprintf(stderr, "seed %llu: ok\n",
                static_cast<unsigned long long>(Seed));
    }
  }

  for (size_t L = 0; L < Legs.size(); ++L)
    fprintf(stderr,
            "leg %s: %llu seeds, %llu failure(s), %llu agreed runtime "
            "error(s)\n",
            Legs[L].Name.c_str(),
            static_cast<unsigned long long>(Tallies[L].Seeds),
            static_cast<unsigned long long>(Tallies[L].Failures),
            static_cast<unsigned long long>(Tallies[L].BothFailed));
  fprintf(stderr, "fuzzed seeds %llu..%llu on %zu legs: %llu failing seed(s)\n",
          static_cast<unsigned long long>(Lo),
          static_cast<unsigned long long>(Hi), Legs.size(),
          static_cast<unsigned long long>(FailingSeeds));
  return FailingSeeds == 0 ? 0 : 1;
}
