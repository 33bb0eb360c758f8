//===- Timeline.h - Two-engine asynchronous device timeline -----*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command scheduler behind the device simulator's asynchronous cost
/// model.  A real OpenCL/CUDA runtime owns (at least) two independent
/// engines — a copy engine moving data over PCIe and a compute engine
/// executing kernels — fed by in-order command queues.  The host enqueues
/// work and only blocks when it needs a result.  TotalCycles is then not
/// the sum of the per-command charges but the dependency-respecting
/// makespan over both engines: an upload overlaps an unrelated kernel, a
/// readback of an early result overlaps a later in-flight kernel, and
/// back-to-back kernels hide part of each other's launch overhead in the
/// driver pipeline.
///
/// The model keeps three clocks:
///
///   * HostClock    — the simulated host; advances on host ops and on
///                    blocking downloads,
///   * CopyFree     — when the copy engine finishes its queued commands,
///   * ComputeFree  — when the compute engine finishes its queued kernels.
///
/// Commands carry explicit data dependencies as ready-times of the buffers
/// they read (the caller tracks per-buffer ready-times; see
/// BufferManager).  Both queues are in-order, so same-engine dependencies
/// need no bookkeeping at all.
///
/// Every scheduling rule advances max(clocks) by at most the command's
/// serial charge, which proves makespan() <= the serial sum of charges —
/// the invariant the --sync ablation and the regression tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_TIMELINE_H
#define FUTHARKCC_GPUSIM_TIMELINE_H

#include <algorithm>

namespace fut {
namespace gpusim {

/// A scheduled command's position on its engine, in simulated cycles.
struct ScheduledCmd {
  double Start = 0;
  double End = 0;
  /// True when this command's [Start, End) interval overlapped the other
  /// engine's most recent command — the trace layer turns these into
  /// overlap instants.
  bool OverlappedOtherEngine = false;
};

class EngineTimeline {
  double HostClock = 0;
  double CopyFree = 0;
  double ComputeFree = 0;

  double CopyBusyCycles = 0;
  double ComputeBusyCycles = 0;

  // Most recent command interval per engine, for overlap detection.
  double LastCopyStart = 0, LastCopyEnd = 0;
  double LastComputeStart = 0, LastComputeEnd = 0;

  static bool overlaps(double S, double E, double OS, double OE) {
    return S < OE && OS < E;
  }

public:
  /// Serial host work: always blocks the host.
  void host(double Cycles) { HostClock += Cycles; }

  /// Non-blocking upload: enqueued on the copy engine at the current host
  /// time; the host continues immediately.  Returns the scheduled
  /// interval; the produced buffer is ready at .End.
  ScheduledCmd upload(double Cycles) { return recv(Cycles, 0); }

  /// Non-blocking peer receive: an inter-device copy landing on this
  /// device's copy engine, dependent on the source block being ready at
  /// \p SrcReady on its producing device.  Like upload(), the host
  /// continues immediately; unlike upload(), the transfer cannot start
  /// before its cross-device dependency.
  ScheduledCmd recv(double Cycles, double SrcReady) {
    ScheduledCmd C;
    C.Start = std::max({CopyFree, HostClock, SrcReady});
    C.End = C.Start + Cycles;
    CopyFree = C.End;
    CopyBusyCycles += Cycles;
    C.OverlappedOtherEngine =
        overlaps(C.Start, C.End, LastComputeStart, LastComputeEnd);
    LastCopyStart = C.Start;
    LastCopyEnd = C.End;
    return C;
  }

  /// Blocking download: the host waits for the copy engine, the source
  /// buffer (ready at \p SrcReady) and the transfer itself.  While the
  /// host waits, the compute engine keeps draining its queue — that is
  /// where readback/kernel overlap comes from.
  ScheduledCmd download(double Cycles, double SrcReady) {
    ScheduledCmd C = recv(Cycles, SrcReady);
    HostClock = C.End;
    return C;
  }

  /// Kernel launch: enqueued at the current host time, executes for
  /// \p ExecCycles once the engine is free and its read-set is ready at
  /// \p DepsReady.  Of the \p LaunchCycles driver/launch overhead, up to
  /// \p PipelineFrac can be hidden behind the wait for the engine or the
  /// data: a kernel issued to an idle device pays the full launch cost,
  /// while back-to-back kernels pipeline all but (1 - PipelineFrac) of it.
  ScheduledCmd kernel(double DepsReady, double LaunchCycles,
                      double PipelineFrac, double ExecCycles) {
    PipelineFrac = std::min(1.0, std::max(0.0, PipelineFrac));
    double Avail = std::max(ComputeFree, DepsReady);
    double Residual = (1.0 - PipelineFrac) * LaunchCycles;
    ScheduledCmd C;
    C.Start = std::max(Avail + Residual, HostClock + LaunchCycles);
    C.End = C.Start + ExecCycles;
    // The engine is occupied for the launch residue it actually
    // serialised (between Residual and the full LaunchCycles) plus the
    // execution itself.
    ComputeBusyCycles += std::min(LaunchCycles, C.Start - Avail) + ExecCycles;
    ComputeFree = C.End;
    C.OverlappedOtherEngine =
        overlaps(C.Start, C.End, LastCopyStart, LastCopyEnd);
    LastComputeStart = C.Start;
    LastComputeEnd = C.End;
    return C;
  }

  /// Retry backoff serialises the whole device: both engines drain, the
  /// host spins for \p Cycles, and nothing started before the barrier can
  /// overlap anything after it.
  void barrier(double Cycles) {
    double T = makespan() + Cycles;
    HostClock = CopyFree = ComputeFree = T;
  }

  /// The dependency-respecting completion time over host and both
  /// engines; this is TotalCycles in asynchronous mode.
  double makespan() const {
    return std::max({HostClock, CopyFree, ComputeFree});
  }

  double copyBusy() const { return CopyBusyCycles; }
  double computeBusy() const { return ComputeBusyCycles; }

  /// The simulated host's current time on this timeline.  In a
  /// DeviceGroup the logical host is shared: before issuing to another
  /// device its clock is synced forward so no device can launch work the
  /// host has not reached yet.
  double hostClock() const { return HostClock; }

  /// Advances the host clock to at least \p T (never backwards).
  void syncHost(double T) { HostClock = std::max(HostClock, T); }

  /// When the compute engine drains its queue — the conservative
  /// dependency for reading back a buffer the scheduler cannot attribute
  /// to a producing command (an alias of some kernel result).
  double computeFreeTime() const { return ComputeFree; }
};

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_TIMELINE_H
