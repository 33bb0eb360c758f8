//===- WarpPool.h - Host threads for a launch's warp ranges -----*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide pool of host threads on which KernelSim runs the warp
/// ranges of one large kernel launch at a time.  The pool starts on first
/// use with one thread fewer than the CPUs in the process's affinity mask
/// (at most eight threads in all), since the calling thread runs ranges
/// too.  Idle threads block on a condition variable.
///
/// Tasks must touch only their own state and data no task writes: the
/// pool's threads never see the trace session or the host environment.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_WARPPOOL_H
#define FUTHARKCC_GPUSIM_WARPPOOL_H

#include <cstddef>
#include <functional>

namespace fut {
namespace gpusim {

/// Runs \p Task(0) .. \p Task(N - 1), each once, on the calling thread and
/// the pool's threads, and returns when all have finished.  A call made
/// while another thread's call is running runs every task on its caller.
void runOnPool(size_t N, const std::function<void(size_t)> &Task);

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_WARPPOOL_H
