//===- Flatten.h - Kernel extraction (Section 5) ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flattening transformation of Section 5.1: rearranges (imperfectly)
/// nested parallelism into perfect nests of parallel operators — KernelExp
/// values — using the rules of Fig 12:
///
///   G1  manifest the map-nest context over an arbitrary expression
///       (a ThreadBody kernel computing a group of scalar statements),
///   G2  capture a nested map in the map-nest context (deeper grids),
///   G3  the empty context,
///   G4  map fission / distribution, materialising the intermediates used
///       across group boundaries as expanded arrays (only when the
///       intermediate sizes are invariant to the context — distribution
///       stops before introducing irregular arrays),
///   G5  reduce with a vectorised operator -> segmented reduction over the
///       product index space (instead of a histogram-style computation),
///   G7  map-loop interchange: a loop separating the map-nest context from
///       inner parallelism is hoisted to the host, with its merge values
///       expanded over the context dimensions (double-buffered per
///       iteration, as the paper notes for HotSpot).
///
/// Heuristics follow Section 5.1: nested maps/reduces/scans are
/// parallelised; nested stream_reds (and anything under an if, or of a
/// context-variant size) are sequentialised into the enclosing thread.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_FLATTEN_FLATTEN_H
#define FUTHARKCC_FLATTEN_FLATTEN_H

#include "ir/IR.h"

namespace fut {

struct FlattenOptions {
  /// Apply G7 (map-loop interchange).  Off: loops nested in maps are
  /// sequentialised inside the thread.
  bool EnableInterchange = true;
  /// Apply G5 (reduce with vectorised operator -> segmented reduce).
  /// Off: such reductions run with array-valued elements (the slow
  /// histogram-like path the paper compares against).
  bool EnableSegReduce = true;

  /// Kernelize host-level reductions.  Off models reference
  /// implementations that leave reductions sequential on the CPU
  /// (Rodinia NN, Backprop, K-means per Section 6.1).
  bool KernelizeReduce = true;
};

struct FlattenStats {
  int ThreadKernels = 0;
  int SegReduces = 0;
  int SegScans = 0;
  int SegHists = 0;
  int Interchanges = 0;
  int VectorisedReduceInterchanges = 0;
  int SequentialisedSOACs = 0;

  int kernels() const {
    return ThreadKernels + SegReduces + SegScans + SegHists;
  }
};

/// Extracts kernels from every function.  Expects a fused, simplified
/// program (the pipeline of Fig 3); afterwards all remaining SOACs are
/// either inside KernelExp thread bodies (sequentialised) or gone.
FlattenStats extractKernels(Program &P, NameSource &Names,
                            const FlattenOptions &Opts = {});

} // namespace fut

#endif // FUTHARKCC_FLATTEN_FLATTEN_H
