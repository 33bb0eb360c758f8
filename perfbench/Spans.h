//===- Spans.h - Self time per layer from recorded trace spans --*- C++ -*-===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the spans futharkcc already records (compile, pass:*, verify:*,
/// device-run, kernel:*, xfer:*, serve:*) into self time per layer.  A
/// span's self time is its duration minus the part of its interval that
/// its child spans cover.  Spans the benchmark does not name (for example
/// memplan:slabN under device-run) belong to their parent's layer, so the
/// self times of one root span's subtree always add up to its duration.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "trace/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span with its reconstructed parent and self time.
struct SpanSelf {
  std::string Name;
  std::string Layer;
  double StartUs = 0;
  double DurUs = 0;
  double SelfUs = 0;
  int Parent = -1; ///< Index into the returned vector; -1 for a root.
};

/// Self time of every span in \p Events (instants are skipped).  Parents
/// are recovered from the nesting depth each span was opened at.
std::vector<SpanSelf>
selfTimes(const std::vector<fut::trace::TraceEvent> &Events);

/// The layer a span name belongs to ("fusion", "verify", "kernelsim.segscan",
/// "host_runtime", ...), or "" when it inherits its parent's layer.
std::string layerOfSpan(const std::string &Name);

/// Running totals over many harvested span sets.
struct LayerTotals {
  std::map<std::string, double> SelfUs;   ///< By layer.
  std::map<std::string, double> DurUs;    ///< By span name.
  std::map<std::string, int64_t> Count;   ///< Spans by name.

  void add(const std::vector<fut::trace::TraceEvent> &Events);
  double self(const std::string &Layer) const;
  double dur(const std::string &Name) const;
  int64_t count(const std::string &Name) const;
  /// Sum of self time over every layer whose name starts with \p Prefix.
  double selfWithPrefix(const std::string &Prefix) const;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
