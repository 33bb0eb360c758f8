//===- Main.cpp - perfbench command line ----------------------------------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <suite-sim|compile-corpus|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints one line per metric (name, value, unit, sample note), then as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Gate failures go to stderr.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

/// Shortest round-trip decimal form, so every measured digit is kept.
std::string num(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof Buf, V);
  return std::string(Buf, Res.ptr);
}

int usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload <suite-sim|compile-corpus|"
               "serve-mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage("missing value for " + A);
    std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--out")
      O.OutDir = V;
    else
      return usage("unknown option " + A);
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    return usage("unknown workload '" + O.Workload + "'");
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");
  std::filesystem::create_directories(O.OutDir);

  RunReport R = runWorkload(O);

  std::cout << "perfbench " << O.Workload << " seed=" << O.Seed
            << " seconds=" << num(O.Seconds) << " trace=" << O.Trace << "\n";
  bool Finite = true;
  for (const Metric &M : R.Metrics) {
    Finite = Finite && std::isfinite(M.Value);
    std::string Note = M.Note;
    if (M.Raw)
      Note += (Note.empty() ? "raw " : ", raw ") + num(*M.Raw);
    std::printf("  %-32s %14s %-6s %s\n", M.Name.c_str(), num(M.Value).c_str(),
                M.Unit.c_str(), Note.c_str());
  }
  std::printf("  %-32s %14s %-6s %lld failed of %lld attempted\n",
              "error_rate", num(R.Checks.errorRate()).c_str(), "ratio",
              static_cast<long long>(R.Checks.failed()),
              static_cast<long long>(R.Checks.attempted()));
  std::printf("  %-32s %14s %-6s wall times above are scaled by it\n",
              "speed_factor", num(R.SpeedFactor).c_str(), "ratio");
  for (const std::string &Msg : R.Checks.messages())
    std::cerr << "perfbench: check failed: " << Msg << "\n";

  bool Correct = R.Checks.failed() == 0 && R.Checks.attempted() > 0 && Finite;
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << R.Checks.attempted()
            << ", \"failed\": " << R.Checks.failed() << ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::cout << (I ? ", " : "") << "\"" << fut::json::escape(M.Name)
              << "\": {\"value\": " << (std::isfinite(M.Value) ? num(M.Value)
                                                                : "null")
              << ", \"unit\": \"" << fut::json::escape(M.Unit) << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
