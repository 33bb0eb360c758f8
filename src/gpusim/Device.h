//===- Device.h - Cycle-approximate GPU simulator ---------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware substrate substituting for the paper's OpenCL devices.  A
/// Device executes a flattened program: host code runs on a simulated CPU
/// (slow, serial, with explicit host<->device transfers), and KernelExps
/// run on a simulated GPU with
///
///  * a warp-based global-memory model: a warp's simultaneous accesses
///    that fall into the same 128-byte segment cost one transaction
///    (coalescing); scattered accesses cost one transaction per lane,
///  * workgroup-local scratchpad memory for tiled inputs (Section 5.2),
///  * per-thread private memory for in-thread arrays (so the footprint
///    effects of Fig 10's stream sequentialisation are visible),
///  * kernel-launch overhead, and
///  * a roofline timing model: a kernel takes
///      launch + max(compute, global, local, private) cycles,
///    each term being total work divided by the corresponding throughput.
///
/// All reported numbers are simulated cycles; two device configurations
/// ("gtx780" and "w8100") mirror the relative properties the paper's
/// evaluation depends on (the AMD part has higher launch overhead, which
/// is why NN speeds up less there).
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_DEVICE_H
#define FUTHARKCC_GPUSIM_DEVICE_H

#include "gpusim/Faults.h"
#include "interp/Value.h"
#include "ir/IR.h"
#include "mem/MemPlan.h"
#include "shard/ShardPlan.h"
#include "support/Error.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fut {
namespace gpusim {

struct DeviceParams {
  std::string Name = "gtx780";

  int WarpSize = 32;
  int WorkgroupSize = 256;
  int64_t SegmentBytes = 128;

  double LaunchCycles = 5000;

  /// Throughputs, in units per cycle across the whole device.
  double ComputeOpsPerCycle = 2048; // scalar IR operations
  double GlobalTxPerCycle = 2.5;    // 128-byte transactions
  double LocalAccessesPerCycle = 4096;
  double PrivateAccessesPerCycle = 8192;

  /// Per-thread arrays larger than this spill out of registers/private
  /// memory into (scattered) global memory — the reason sequentialising
  /// large inner parallelism in-thread is expensive and the map-loop
  /// interchange (G7) is essential for LocVolCalib.
  int64_t PrivateSpillElems = 64;

  /// SegHist lowering switch: histograms at most this wide keep one
  /// subhistogram per workgroup in local memory (atomic updates are
  /// scratchpad accesses; one coalesced global merge per workgroup at the
  /// end); wider histograms fall back to global-memory atomics, whose
  /// cost grows with same-segment conflicts inside a warp.
  int64_t HistLocalWidthMax = 4096;

  /// Which cost model converts a launch's counters into cycles
  /// (CostModel.h): "roofline" (the closed-form default, cost lines
  /// byte-identical to the pre-interface simulator) or "pipeline" (the
  /// warp-scheduler/divergence/coalescer/bank-conflict second opinion).
  /// Functional results and the model-independent counters are identical
  /// under every model; only cycle estimates differ.  An unknown name is
  /// a Config error at run entry.
  std::string CostModelName = "roofline";

  /// Pipeline-model scope (ignored by the roofline model): streaming
  /// multiprocessors and concurrently schedulable warp slots per SM —
  /// their product bounds how many warps can hide each other's latency.
  int NumSMs = 15;          // GTX 780 Ti: 15 SMX
  int WarpSchedulerSlots = 4;
  /// Transactions one warp time-step can hold in the memory coalescer
  /// before the pipeline stalls to drain the queue.
  int64_t CoalescerQueueDepth = 8;
  /// Scratchpad banks; lanes of a warp hitting the same bank in one step
  /// serialise (local-subhistogram updates are the tracked case).
  int LocalMemBanks = 32;
  /// Fraction of non-bottleneck pipeline work that leaks past the
  /// bottleneck term (imperfect stage overlap).
  double PipelineStageSlack = 0.05;

  /// Elements a workgroup stages per tile: tiled global traffic is
  /// charged once per tile of this width instead of once per thread.
  /// 0 (the default) means the tile spans the workgroup, reproducing the
  /// historical formula exactly; the autotuner searches it separately so
  /// tile amortisation can be tuned without touching the launch shape.
  int TileWidth = 0;

  /// The effective tile width used by the cost models' tiled-traffic
  /// amortisation.
  int tileWidth() const { return TileWidth > 0 ? TileWidth : WorkgroupSize; }

  /// Host model: serial, HostCyclesPerOp per IR step.
  double HostCyclesPerOp = 8;
  /// Host <-> device transfer rate (PCIe-like).
  double TransferBytesPerCycle = 8;

  /// Device memory capacity in bytes; 0 means unlimited.  Kernel inputs
  /// and outputs are accounted against this while device-resident, and an
  /// allocation that would exceed it fails with a DeviceOOM runtime error.
  int64_t DeviceMemBytes = 3LL << 30; // 3 GiB, like the GTX 780 Ti

  /// Bytes of DeviceMemBytes already reserved by co-resident tenants on a
  /// shared device (the serving layer's admission controller packs tenants
  /// by their plan-derived PlannedPeakBytes bound).  This run's capacity
  /// checks see DeviceMemBytes - ReservedBytes, so a tenant that outgrows
  /// its reservation OOMs in its own sandbox instead of starving the
  /// others.  Ignored when DeviceMemBytes is 0 (unlimited).
  int64_t ReservedBytes = 0;

  /// Effective capacity visible to this run; 0 means unlimited.  The
  /// 1-byte floor is a backstop only: an over-reservation (ReservedBytes
  /// >= DeviceMemBytes) is rejected by validate() before any launch, so
  /// runs never silently execute against a pathological 1-byte device.
  int64_t effectiveMemBytes() const {
    if (DeviceMemBytes <= 0)
      return 0;
    return std::max<int64_t>(1, DeviceMemBytes - ReservedBytes);
  }

  /// Rejects inconsistent configurations with a typed Config error before
  /// anything launches: a reservation that leaves no capacity (or a
  /// negative one that would mint capacity), an unknown cost model, or a
  /// negative tile width.  Device::run and the serving layer's admission
  /// path both call this, so a tenant packed against a misconfigured
  /// reservation fails loudly instead of OOMing against one byte.
  MaybeError validate() const {
    if (DeviceMemBytes > 0 && ReservedBytes >= DeviceMemBytes)
      return CompilerError::config(
          "device over-reserved: " + std::to_string(ReservedBytes) +
          " bytes reserved of " + std::to_string(DeviceMemBytes) +
          " capacity leaves no memory for this run");
    if (ReservedBytes < 0)
      return CompilerError::config(
          "negative device reservation: " + std::to_string(ReservedBytes) +
          " bytes");
    if (!costModelNameKnown())
      return CompilerError::config("unknown cost model \"" + CostModelName +
                                   "\" (expected roofline or pipeline)");
    if (TileWidth < 0)
      return CompilerError::config("negative tile width: " +
                                   std::to_string(TileWidth));
    return MaybeError::success();
  }

private:
  /// Out-of-line so Device.h does not depend on CostModel.h.
  bool costModelNameKnown() const;

public:

  /// Watchdog budgets in simulated cycles; 0 disables the check.  A single
  /// kernel exceeding WatchdogKernelCycles, or a whole run exceeding
  /// WatchdogTotalCycles, is killed deterministically with a Watchdog
  /// runtime error.  In asynchronous mode the run-level budget is checked
  /// against the two-engine makespan.
  double WatchdogKernelCycles = 0;
  double WatchdogTotalCycles = 0;

  /// When true (the default), TotalCycles is the dependency-respecting
  /// makespan of a copy engine and a compute engine fed by in-order queues
  /// (see Timeline.h): independent transfers overlap kernels, and
  /// back-to-back kernels pipeline part of LaunchCycles.  When false (the
  /// --sync ablation), the pre-async serial model is reproduced exactly:
  /// TotalCycles = KernelCycles + HostCycles + TransferCycles +
  /// RetryCycles, and a host readback invalidates the device copy.
  bool AsyncTimeline = true;

  /// Fraction of LaunchCycles that pipelines behind a busy engine or a
  /// pending dependency when kernels are enqueued back-to-back; a kernel
  /// issued to an idle device still pays the full launch cost.
  double PipelinedLaunchFraction = 0.5;

  /// Test hook: every thread-body and segmented launch that can run as
  /// warp ranges does, however small.  The lanes after the first run as
  /// ranges of at most WarpSize - 1 lanes, so ranges start and end inside
  /// warps.  Outputs, errors and every counter must be exactly those
  /// of the unsplit run (the fuzz sweep's split leg checks this).  Each
  /// range holds a copy of the launch's state until the merge, so keep
  /// launches small.
  bool ForceSplitRanges = false;

  /// Test hook: every warp of a thread-body or segmented launch runs its
  /// lanes one after another, as a warp step that failed reruns them,
  /// instead of statement by statement for the whole warp.  Outputs,
  /// errors and every counter must be exactly those of the warp steps
  /// (the fuzz sweep's lanes leg checks this).
  bool ForceLaneByLane = false;

  /// A GTX 780 Ti-like configuration (the default).
  static DeviceParams gtx780();
  /// A FirePro W8100-like configuration: comparable bandwidth, slightly
  /// lower effective compute, and much higher launch overhead.
  static DeviceParams w8100();
  /// The preset named \p Name ("gtx780" or "w8100"), if there is one.
  static std::optional<DeviceParams> preset(const std::string &Name);
};

/// Aggregated execution statistics.
struct CostReport {
  double TotalCycles = 0;

  double KernelCycles = 0;
  double HostCycles = 0;
  double TransferCycles = 0;

  int64_t KernelLaunches = 0;
  int64_t GlobalTransactions = 0;
  /// Breakdown of GlobalTransactions by warp-level access pattern: a
  /// warp time-step whose accesses merge into fewer segments than active
  /// lanes contributes coalesced transactions; a step with one segment per
  /// lane (and spilled private-array traffic) contributes scattered ones.
  /// Invariant: Coalesced + Scattered == GlobalTransactions.
  int64_t CoalescedTransactions = 0;
  int64_t ScatteredTransactions = 0;
  int64_t GlobalAccesses = 0; // individual element accesses
  int64_t LocalAccesses = 0;
  int64_t PrivateAccesses = 0;
  int64_t ComputeOps = 0;
  int64_t HostOps = 0;
  int64_t TransferredBytes = 0;

  /// Initial input upload and final result download, excluded from
  /// TotalCycles exactly as the paper's instrumentation excludes them
  /// (Section 6: "total runtime minus the time taken for loading program
  /// input onto the GPU [and] reading final results back").
  double ExcludedTransferCycles = 0;

  /// Atomic read-modify-write traffic from SegHist kernels.
  /// AtomicTransactions counts 128-byte-segment transactions issued by
  /// atomic updates (global strategy: unique destination segments per warp
  /// batch; local strategy: the coalesced per-workgroup merge).
  /// AtomicConflicts counts the extra serialised retries when several
  /// lanes of one warp batch hit the same segment (global strategy only;
  /// local subhistogram contention is scratchpad traffic, not global).
  /// Both are charged per attempt, exactly once per retried launch.
  int64_t AtomicTransactions = 0;
  int64_t AtomicConflicts = 0;

  /// Elements staged through local memory by tiling, and their total
  /// width in bytes (global tiled traffic is charged by byte width, so
  /// f64/i64 tiles cost twice the segments of f32/i32 ones).
  int64_t TiledElementTouches = 0;
  int64_t TiledElementBytes = 0;

  /// Two-engine timeline accounting (zero in --sync mode): cycles each
  /// engine spent occupied, and how much the makespan undercuts the
  /// serial sum thanks to overlap/pipelining.  Invariant:
  /// max(CopyEngineBusy, ComputeEngineBusy) <= TotalCycles <= serial sum.
  double CopyEngineBusy = 0;
  double ComputeEngineBusy = 0;
  double OverlapSavedCycles = 0;

  /// Device buffer-manager accounting: high-water mark of live device
  /// bytes, and bytes released by liveness/rebinding.
  int64_t PeakDeviceBytes = 0;
  /// High-water mark of transient demand: live bytes at a kernel launch
  /// plus the results that launch materialised while its inputs were
  /// still live.  Always >= PeakDeviceBytes; the smallest capacity the
  /// run actually fits in, which is what the serving layer's admission
  /// controller reserves for packed tenants.
  int64_t PeakDemandBytes = 0;
  int64_t FreedBytes = 0;

  /// Memory-plan execution accounting: the plan-derived residency bound
  /// (every materialised slab half at its planned extent — observed
  /// PeakDeviceBytes never exceeds it), rebinds served in place by
  /// hoisted double-buffered loop slabs, and slab occupancies taken over
  /// from a dead or consumed array (static reuse).
  int64_t PlannedPeakBytes = 0;
  int64_t HoistedAllocs = 0;
  int64_t ReusedBlocks = 0;

  /// Resilience accounting: simulated cycles spent in retry backoff,
  /// launches that had to be retried, faults the FaultPlan injected, and
  /// kernels the watchdog killed.
  double RetryCycles = 0;
  int64_t RetriedLaunches = 0;
  int64_t FaultsInjected = 0;
  int64_t WatchdogKills = 0;

  /// Cost-model accounting.  Both models price every launch from the same
  /// counters (the comparison is nearly free), so each run carries its own
  /// calibration pair: KernelCycles equals the selected model's total, and
  /// the per-model totals let harnesses measure divergence without a
  /// second run.  str() prints the pipeline clause only when a
  /// non-default model was selected, keeping default cost lines
  /// byte-identical to the pre-interface format.
  std::string CostModelUsed = "roofline";
  double RooflineKernelCycles = 0;
  double PipelineKernelCycles = 0;
  /// Aggregated warp-level profile (model-independent facts; see
  /// KernelProfile in CostModel.h).
  int64_t WarpsSimulated = 0;
  int64_t DivergentWarps = 0;
  int64_t CoalescerExcessTx = 0;
  int64_t BankConflictExtra = 0;

  /// Multi-device accounting (all zero / size 1 with one device, and
  /// str() only prints these fields when NumDevices > 1, so single-device
  /// cost lines are byte-identical to the pre-sharding format).
  int NumDevices = 1;
  int64_t ShardedLaunches = 0;      ///< Logical launches split over devices.
  int64_t InterDeviceBytes = 0;     ///< Bytes moved device-to-device.
  double InterDeviceCycles = 0;     ///< Copy-engine cycles those bytes cost.
  /// Per-device peak kernel working set (input blocks/broadcast copies
  /// plus output block, maximised over sharded launches).
  std::vector<int64_t> PerDevicePeakBytes;

  std::string str() const;
};

struct RunResult {
  std::vector<Value> Outputs;
  CostReport Cost;

  /// True when the device failed persistently and the run was completed by
  /// the reference interpreter instead; FallbackError records the device
  /// failure that forced the degradation.
  bool InterpFallback = false;
  CompilerError FallbackError;
};

/// True for the failures only a device has — out of memory, watchdog
/// kills and transient faults.  Only these degrade to the interpreter
/// fallback; compile errors and plain runtime errors (bad index, shape
/// mismatch) would fail identically there.
bool isDeviceFailure(const CompilerError &E);

/// The interpreter fallback after the device failed with \p DevErr:
/// recomputes \p Fun of \p Prog on the reference interpreter, adding one
/// to \p HostOps per interpreted step.  When the interpreter fails too,
/// the error is FallbackExhausted and names both failures.  Callers price
/// the host ops themselves.
ErrorOr<std::vector<Value>> runInterpFallback(const Program &Prog,
                                              const std::string &Fun,
                                              const std::vector<Value> &Args,
                                              const CompilerError &DevErr,
                                              int64_t &HostOps);

class Device {
  DeviceParams P;
  ResilienceParams R;
  /// Compiler-provided memory plan; when null, the device plans the
  /// program itself before running (so directly constructed Devices —
  /// tests, benches — still execute a plan).
  const mem::MemoryPlan *MemPlan = nullptr;
  /// Compiler-provided shard plan plus the device count to execute it on;
  /// with Devices <= 1 (or no plan) execution is single-device and
  /// bit-identical to the pre-sharding model.
  const shard::ShardPlan *Shards = nullptr;
  int Devices = 1;

public:
  explicit Device(DeviceParams P = DeviceParams::gtx780(),
                  ResilienceParams R = ResilienceParams())
      : P(std::move(P)), R(R) {}

  const DeviceParams &params() const { return P; }
  const ResilienceParams &resilience() const { return R; }

  /// Installs the compile-time memory plan (must outlive the Device's
  /// runs); only consulted when the parameters enable plan execution.
  void setMemoryPlan(const mem::MemoryPlan *MP) { MemPlan = MP; }

  /// Installs the compile-time shard plan and the number of simulated
  /// devices to execute it across (must outlive the Device's runs).
  /// Sharded execution requires the asynchronous timeline; under --sync
  /// the group degenerates to a single device.
  void setShardPlan(const shard::ShardPlan *SP, int NumDevices) {
    Shards = SP;
    Devices = std::max(1, NumDevices);
  }

  /// Runs the named function of a flattened program, simulating kernels on
  /// the device and everything else on the host.  Transient faults (per the
  /// resilience parameters' FaultPlan) are retried with exponential
  /// simulated-cycle backoff; persistent device failures either surface as
  /// typed runtime errors or, when InterpFallback is set, degrade to a
  /// reference-interpreter run flagged in the RunResult.
  ErrorOr<RunResult> run(const Program &Prog, const std::string &Fun,
                         const std::vector<Value> &Args);

  ErrorOr<RunResult> runMain(const Program &Prog,
                             const std::vector<Value> &Args) {
    return run(Prog, "main", Args);
  }
};

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_DEVICE_H
