//===- BenchTrace.h - Machine-readable benchmark trace output ---*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lets the report-style bench binaries emit the same counters the trace
/// layer records — fusion/flatten pass counters, device transaction and
/// fault counters — into a machine-readable JSON file, so CI and notebooks
/// consume the numbers without scraping stdout.  Each binary takes its
/// output path from `--trace-out <path>` (default: BENCH_trace.json in the
/// working directory).
///
/// Usage per run:
///   BenchTraceWriter W(traceOutPath(Argc, Argv));
///   W.beginRun();                 // clears the global trace session
///   ... compile and run ...
///   W.record("kmeans", "gtx780", {{"fut_cycles", X}, ...});
///   ...
///   W.write();
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_BENCH_SUITE_BENCHTRACE_H
#define FUTHARKCC_BENCH_SUITE_BENCHTRACE_H

#include "support/Flags.h"
#include "support/Json.h"
#include "trace/Trace.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fut {
namespace bench {

/// The trace output path of a bench binary: the value of
/// `--trace-out <path>`, or BENCH_trace.json in the working directory when
/// the flag is absent.  Any other argument is a usage error (exit 2), and
/// --help exits 0.
inline std::string traceOutPath(int Argc, char **Argv) {
  std::string Path = "BENCH_trace.json";
  cli::Command Cmd{.Synopsis = std::string(Argv[0]) + " [--trace-out <path>]",
                   .Flags = {cli::text("--trace-out", "<path>",
                                       "where to write the bench rows "
                                       "(default BENCH_trace.json)",
                                       Path)}};
  if (auto Exit = Cmd.parse(Argc, Argv))
    std::exit(*Exit);
  return Path;
}

class BenchTraceWriter {
  std::string Path;
  std::ostringstream Rows;
  bool First = true;

public:
  explicit BenchTraceWriter(std::string Path) : Path(std::move(Path)) {
    trace::TraceSession::global().clear();
    trace::TraceSession::global().setEnabled(true);
  }
  ~BenchTraceWriter() {
    trace::TraceSession::global().setEnabled(false);
    trace::TraceSession::global().clear();
  }

  /// Starts a fresh counter window for the next record() call.
  void beginRun() { trace::TraceSession::global().clear(); }

  /// Snapshots the trace counters accumulated since beginRun() together
  /// with caller-supplied metrics under one benchmark/device entry.
  void
  record(const std::string &Benchmark, const std::string &Device,
         const std::vector<std::pair<std::string, double>> &Metrics = {}) {
    if (!First)
      Rows << ",\n";
    First = false;
    Rows << "  {\"benchmark\":\"" << json::escape(Benchmark)
         << "\",\"device\":\"" << json::escape(Device) << "\"";
    for (const auto &KV : Metrics)
      Rows << ",\"" << json::escape(KV.first)
           << "\":" << json::number(KV.second);
    Rows << ",\"counters\":{";
    bool FirstCtr = true;
    for (const auto &KV : trace::TraceSession::global().counters()) {
      if (!FirstCtr)
        Rows << ",";
      FirstCtr = false;
      Rows << "\"" << json::escape(KV.first)
           << "\":" << json::number(static_cast<double>(KV.second));
    }
    Rows << "}}";
  }

  std::string str() const {
    return "{\"benchmarks\":[\n" + Rows.str() + "\n]}\n";
  }

  const std::string &path() const { return Path; }

  /// Writes the collected entries to path(); returns false on I/O failure.
  bool write() const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << str();
    return static_cast<bool>(Out);
  }
};

} // namespace bench
} // namespace fut

#endif // FUTHARKCC_BENCH_SUITE_BENCHTRACE_H
