//===- KernelSim.h - One simulated kernel launch ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The device side of a kernel launch: every thread of a KernelExp runs as
/// a sequential program over per-thread registers and private memory (the
/// paper's Section 4.1/5 code generation), with each global-memory access
/// traced per lane so warps can be merged into coalesced or scattered
/// transactions.
///
/// The kernel body is resolved once per launch into a form whose names are
/// dense frame-slot indices; the lanes of one range then run in one reused
/// frame.  A range runs the lanes it holds of each warp as a warp step:
/// every statement for all of them before the next, scalar statements and
/// reads of kernel inputs warp-wide over a per-lane store of the values the
/// body binds, everything else lane by lane.  Each lane still charges its
/// own accesses and ops in its own program order, and a step that fails
/// reruns its lanes one after another, so every counter, profile, output
/// and error is what running the lanes in order gives.  A large launch
/// splits its lanes (threads, segments, or the elements of a gridless
/// fold) into ranges that run on the host's cores (WarpPool.h) and are
/// merged in lane order, so every counter, profile, output and error is
/// the one-range result.  The resolved form, the frames and the lane
/// stores live only as long as the launch.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_KERNELSIM_H
#define FUTHARKCC_GPUSIM_KERNELSIM_H

#include "gpusim/CostModel.h"
#include "gpusim/Device.h"
#include "interp/Value.h"
#include "ir/IR.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace fut {
namespace gpusim {

/// What one simulated launch produced.
struct KernelLaunch {
  /// The kernel's result arrays.
  std::vector<Value> Outputs;
  /// Bytes of results the launch materialised.
  int64_t OutBytes = 0;
  /// Warp-level execution profile (model-independent; see CostModel.h).
  KernelProfile Profile;
  /// Of the launch's compute ops, those warp steps ran warp-wide rather
  /// than lane by lane.  Host-side only: no cost depends on it.
  int64_t WarpOps = 0;
};

/// Simulates one launch of \p K, reading kernel inputs and free names from
/// \p HostEnv and charging every access and operation to \p Cost.
/// \p Chunks receives the number of ranges the launch ran as, failed or
/// not: 1 unless the ops and global accesses of its first lanes (one
/// segment of a segmented launch with a grid, one warp otherwise), scaled
/// to all its lanes, reached the split threshold.  It is a function of the
/// program and its inputs alone, never of the host.
///
/// \p OutBudgetBytes bounds the results the launch may materialise
/// (negative: unlimited); exceeding it is a DeviceOOM error.  A sharded
/// launch passes the outer-grid window [OuterOffset, OuterOffset +
/// OuterCount): thread-index values and output-write addresses stay global
/// (so coalescing behaves as on the real shard), but only the local rows
/// are simulated and materialised.  OuterCount < 0 means the whole grid.
ErrorOr<KernelLaunch> simulateKernel(const DeviceParams &P,
                                     const KernelExp &K,
                                     const EnvView &HostEnv,
                                     CostReport &Cost, int &Chunks,
                                     int64_t OutBudgetBytes,
                                     int64_t OuterOffset = 0,
                                     int64_t OuterCount = -1);

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_KERNELSIM_H
