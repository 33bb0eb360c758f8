//===- ToolFlags.h - Flags shared by the futharkcc tools --------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flags that more than one command-line tool takes, declared once:
/// --device and --cost-model, and --trace / --trace-out with the trace
/// session they ask for.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_DRIVER_TOOLFLAGS_H
#define FUTHARKCC_DRIVER_TOOLFLAGS_H

#include "gpusim/CostModel.h"
#include "gpusim/Device.h"
#include "support/Flags.h"
#include "trace/Trace.h"

#include <cstdio>
#include <string>

namespace fut {
namespace cli {

/// --device <name>: replaces \p DP with a preset, before any other flag
/// refines it.
inline Flag devicePreset(gpusim::DeviceParams &DP) {
  return {.Name = "--device",
          .Meta = "<name>",
          .Help = "gtx780 (default) or w8100",
          .Set =
              [&DP](auto &V) {
                auto P = gpusim::DeviceParams::preset(V);
                return P && (DP = *P, true);
              },
          .Early = true};
}

/// --cost-model <m>: the kernel cycle model of \p DP, by name.
inline Flag costModel(std::string Help, gpusim::DeviceParams &DP) {
  return {"--cost-model", "<m>", Help, [&DP](auto &V) {
            DP.CostModelName = V;
            return gpusim::CostModel::byName(V) != nullptr;
          }};
}

/// --trace and --trace-out, and the trace session they ask for.
struct TraceFlags {
  bool Summary = false;
  std::string Path;

  Flag summaryFlag() {
    return toggle("--trace", "print a span/counter summary to stderr",
                  Summary);
  }
  Flag fileFlag() {
    return text("--trace-out", "<file>",
                "write a Chrome trace_event JSON file (load in "
                "chrome://tracing or Perfetto)",
                Path);
  }
  bool enabled() const { return Summary || !Path.empty(); }

  /// Starts an empty trace session when either flag was given.
  void begin() const {
    trace::TraceSession::global().clear();
    trace::TraceSession::global().setEnabled(enabled());
  }

  /// Prints the summary and writes the file asked for; 1 when the file
  /// cannot be written, else 0.
  int finish() const {
    const trace::TraceSession &S = trace::TraceSession::global();
    if (Summary)
      fprintf(stderr, "%s", S.summary().c_str());
    if (Path.empty())
      return 0;
    if (auto Err = S.writeChromeTrace(Path)) {
      fprintf(stderr, "trace error: %s\n", Err.getError().Message.c_str());
      return 1;
    }
    fprintf(stderr, "trace written to %s\n", Path.c_str());
    return 0;
  }
};

} // namespace cli
} // namespace fut

#endif // FUTHARKCC_DRIVER_TOOLFLAGS_H
