//===- Locality.h - Coalescing and tiling (Section 5.2) ---------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The locality-of-reference optimisations of Section 5.2, run on extracted
/// kernels:
///
///  * Memory coalescing: when a kernel reads an input with its parallel
///    (thread-varying) index on an outer dimension and sequential indices
///    inner, the input's representation is changed to place the
///    non-parallel dimensions innermost (a symbolic layout permutation;
///    the device charges a manifest transposition per array).  This is
///    the paper's "as_column_major" transformation, resolving the
///    one-order-of-magnitude slowdowns of uncoalesced access.
///
///  * Block tiling: an input read only through thread-invariant
///    (sequential) indices is the same for every thread of a workgroup —
///    the N-body/MRI-Q pattern — and is staged through fast local memory
///    (KInput::Tiled), so each element is fetched from global memory once
///    per workgroup instead of once per thread.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_LOCALITY_LOCALITY_H
#define FUTHARKCC_LOCALITY_LOCALITY_H

#include "ir/IR.h"

namespace fut {

struct LocalityOptions {
  bool EnableCoalescing = true;
  bool EnableTiling = true;
};

struct LocalityStats {
  int CoalescedInputs = 0;
  int TiledInputs = 0;
};

/// Optimises every kernel in the program.
LocalityStats optimiseLocality(Program &P, const LocalityOptions &Opts = {});

} // namespace fut

#endif // FUTHARKCC_LOCALITY_LOCALITY_H
