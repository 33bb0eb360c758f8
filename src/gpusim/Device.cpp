//===- Device.cpp - Cycle-approximate GPU simulator ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include "gpusim/BufferManager.h"
#include "gpusim/CostModel.h"
#include "gpusim/DeviceGroup.h"
#include "gpusim/KernelSim.h"
#include "gpusim/Timeline.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "shard/ShardPlan.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <unordered_map>

using namespace fut;
using namespace fut::gpusim;

DeviceParams DeviceParams::gtx780() { return DeviceParams(); }

DeviceParams DeviceParams::w8100() {
  DeviceParams P;
  P.Name = "w8100";
  P.LaunchCycles = 22000; // higher launch overhead (per Section 6.1, NN)
  P.ComputeOpsPerCycle = 1800;
  P.GlobalTxPerCycle = 2.3;
  P.TransferBytesPerCycle = 6;
  P.DeviceMemBytes = 8LL << 30; // 8 GiB, like the FirePro W8100
  P.NumSMs = 44; // 44 GCN compute units
  return P;
}

std::optional<DeviceParams> DeviceParams::preset(const std::string &Name) {
  if (Name == "gtx780")
    return gtx780();
  if (Name == "w8100")
    return w8100();
  return std::nullopt;
}

bool DeviceParams::costModelNameKnown() const {
  return CostModel::byName(CostModelName) != nullptr;
}

std::string CostReport::str() const {
  std::ostringstream OS;
  OS << "cycles=" << static_cast<int64_t>(TotalCycles)
     << " (kernel=" << static_cast<int64_t>(KernelCycles)
     << ", host=" << static_cast<int64_t>(HostCycles)
     << ", transfer=" << static_cast<int64_t>(TransferCycles) << ")"
     << " launches=" << KernelLaunches << " gtx=" << GlobalTransactions
     << " (coalesced=" << CoalescedTransactions
     << ", scattered=" << ScatteredTransactions << ")";
  // Only SegHist kernels issue atomics; printed conditionally so cost
  // lines of histogram-free programs stay byte-identical.
  if (AtomicTransactions || AtomicConflicts)
    OS << " atomictx=" << AtomicTransactions
       << " atomicconflicts=" << AtomicConflicts;
  OS << " gaccess=" << GlobalAccesses << " local=" << LocalAccesses
     << " private=" << PrivateAccesses << " ops=" << ComputeOps
     << " hostops=" << HostOps << " bytes=" << TransferredBytes
     << " retries=" << RetriedLaunches
     << " retrycycles=" << static_cast<int64_t>(RetryCycles)
     << " faults=" << FaultsInjected << " wdkills=" << WatchdogKills
     << " overlapsaved=" << static_cast<int64_t>(OverlapSavedCycles)
     << " copybusy=" << static_cast<int64_t>(CopyEngineBusy)
     << " computebusy=" << static_cast<int64_t>(ComputeEngineBusy)
     << " peakbytes=" << PeakDeviceBytes << " peakdemand=" << PeakDemandBytes
     << " freedbytes=" << FreedBytes
     << " plannedpeak=" << PlannedPeakBytes << " hoisted=" << HoistedAllocs
     << " reused=" << ReusedBlocks;
  // Printed only under a non-default model, so default cost lines stay
  // byte-identical to the pre-CostModel format.
  if (CostModelUsed != "roofline")
    OS << " costmodel=" << CostModelUsed
       << " rooflinecycles=" << static_cast<int64_t>(RooflineKernelCycles)
       << " pipelinecycles=" << static_cast<int64_t>(PipelineKernelCycles)
       << " warps=" << WarpsSimulated << " divergentwarps=" << DivergentWarps
       << " coalescerexcess=" << CoalescerExcessTx
       << " bankconflictextra=" << BankConflictExtra;
  if (NumDevices > 1) {
    OS << " devices=" << NumDevices << " shardedlaunches=" << ShardedLaunches
       << " interdevbytes=" << InterDeviceBytes
       << " interdevcycles=" << static_cast<int64_t>(InterDeviceCycles)
       << " devpeaks=";
    for (size_t D = 0; D < PerDevicePeakBytes.size(); ++D)
      OS << (D ? "," : "") << PerDevicePeakBytes[D];
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Device
//===----------------------------------------------------------------------===//
//
// A run has two parts, like the host code the paper's compiler generates
// around its kernels.  The HostRuntime owns residency and transfers and
// stages each kernel's inputs; the Launcher runs the staged kernel as one
// row slice per device it is split over.  An unsharded launch is a single
// slice covering every row on device 0.
//
//===----------------------------------------------------------------------===//

namespace {

/// One launch priced under both cost models; Selected is what the run is
/// charged.  The comparison is nearly free and gives every run its own
/// calibration pair.
struct LaunchPrice {
  double Roofline = 0, Pipeline = 0, Selected = 0;
};

/// A block partition of a device array over the device group: each device
/// owns a contiguous row block, ready at its own time.
struct DistInfo {
  std::vector<std::pair<int64_t, int64_t>> Cuts;
  std::vector<double> Ready;
};

/// One slice of a kernel launch: rows [Offset, Offset + Rows) of the
/// kernel's outer dimension on one device, once its inputs are ready there.
/// Rows < 0 covers every row.
struct Slice {
  int Device = 0;
  int64_t Offset = 0;
  int64_t Rows = -1;
  double DepsReady = 0;
  /// The slice's share of the input bytes: its working set less outputs.
  int64_t InputBytes = 0;
};

/// A kernel whose inputs are staged, ready for the launcher.
struct StagedLaunch {
  std::vector<Slice> Slices; ///< In row order.
  /// Split by the shard plan: the results come back block-partitioned by
  /// Cuts over rows [0, Width), or merged for a histogram.
  bool Sharded = false;
  int64_t Width = 0;
  std::vector<std::pair<int64_t, int64_t>> Cuts;
  /// When every input's whole copy is ready: what a killed launch waits for.
  double DepsReady = 0;
};

/// A completed launch: its results, when they are ready, and the block
/// distribution of a sharded launch's results.
struct LaunchResult {
  std::vector<Value> Outputs;
  double Ready = 0;
  std::optional<DistInfo> Dist;
};

int64_t arrayBytes(const Value &V) {
  return V.numElems() * elemBytes(V.elemKind());
}

/// Bytes of array \p Arr in \p Env; 0 when it is unbound or a scalar.
int64_t envArrayBytes(const EnvView &Env, const VName &Arr) {
  const Value *V = Env.find(Arr);
  return !V || !V->isArray() ? 0 : arrayBytes(*V);
}

using HostClock = std::chrono::steady_clock;

/// A kernel span's host cost: the wall nanoseconds since \p Start over
/// the ops the launch charged (over one op for a launch that charges
/// none, such as a transpose).
double hostNsPerOp(HostClock::time_point Start, int64_t ComputeOps) {
  double Ns = std::chrono::duration<double, std::nano>(HostClock::now() - Start)
                  .count();
  return Ns / static_cast<double>(std::max<int64_t>(1, ComputeOps));
}

const char *kernelSpanName(KernelExp::OpKind Op) {
  using Kind = KernelExp::OpKind;
  return Op == Kind::ThreadBody ? "kernel:threadbody"
         : Op == Kind::SegScan  ? "kernel:segscan"
         : Op == Kind::SegHist  ? "kernel:seghist"
                                : "kernel:segreduce";
}

/// Costing is pluggable (CostModel.h).  Device::run validated the name; the
/// roofline fallback only covers direct callers that skipped validation.
const CostModel &selectedModel(const DeviceParams &P) {
  const CostModel *Named = CostModel::byName(P.CostModelName);
  return Named ? *Named : CostModel::roofline();
}

/// What the host runtime and the launcher share during one run: the
/// parameters, the cost report being accumulated, the device group's
/// timelines and the buffer manager.
struct SimState {
  const DeviceParams &P;
  CostReport &Cost;
  const CostModel &CM;
  const bool Async; ///< Two-engine timelines; false under --sync.
  DeviceGroup DG;
  /// On a shared (multi-tenant) device the run only sees the capacity left
  /// after co-resident tenants' admission reservations.
  const int64_t MemCap;
  DeviceBufferManager Mgr;
  trace::TraceSession &TS = trace::TraceSession::global();

  SimState(const DeviceParams &P, CostReport &Cost, const mem::FunPlan *MPlan,
           int NumDev)
      : P(P), Cost(Cost), CM(selectedModel(P)), Async(P.AsyncTimeline),
        DG(NumDev), MemCap(P.effectiveMemBytes()), Mgr(MemCap, MPlan) {
    Cost.CostModelUsed = CM.name();
  }

  int numDevices() const { return DG.size(); }

  LaunchPrice price(const CostReport &KCost, const KernelProfile &KProf) const {
    LaunchPrice LP;
    LP.Roofline = CostModel::roofline().kernelCycles(P, KCost, KProf);
    LP.Pipeline = CostModel::pipeline().kernelCycles(P, KCost, KProf);
    LP.Selected = &CM == &CostModel::pipeline() ? LP.Pipeline : LP.Roofline;
    return LP;
  }

  /// Charged only for launches that complete; a watchdog-killed launch
  /// charges its budget to KernelCycles instead.
  void chargeModelTotals(const LaunchPrice &LP, const KernelProfile &KProf) {
    Cost.RooflineKernelCycles += LP.Roofline;
    Cost.PipelineKernelCycles += LP.Pipeline;
    Cost.WarpsSimulated += KProf.Warps;
    Cost.DivergentWarps += KProf.DivergentWarps;
    Cost.CoalescerExcessTx += KProf.CoalescerExcessTx;
    Cost.BankConflictExtra += KProf.BankConflictExtra;
    trace::counter("device.cycles_roofline",
                   static_cast<int64_t>(LP.Roofline));
    trace::counter("device.cycles_pipeline",
                   static_cast<int64_t>(LP.Pipeline));
  }

  /// Mirrors the buffer manager's byte accounting into the report after
  /// every allocation event, so an aborted attempt still reports its
  /// memory history.
  void syncMemStats() {
    Cost.PeakDeviceBytes = Mgr.peakBytes();
    Cost.FreedBytes = Mgr.freedBytes();
    // The plan-derived bound, not the live counter peakBytes() already
    // feeds into PeakDeviceBytes: asserting observed <= planned is a
    // genuine cross-check of the static layout against residency.
    Cost.PlannedPeakBytes = Mgr.plannedPeakBytes();
    Cost.HoistedAllocs = Mgr.hoistedAllocs();
    Cost.ReusedBlocks = Mgr.reusedBlocks();
  }

  /// The run's one out-of-memory error: \p What needs \p Bytes more than
  /// the device has free.
  CompilerError outOfMemory(const std::string &What, int64_t Bytes) const {
    return CompilerError::deviceOOM(
        "device out of memory " + What + ": " + std::to_string(Bytes) +
        " bytes needed, " + std::to_string(MemCap - Mgr.liveBytes()) +
        " of " + std::to_string(MemCap) + " free (" +
        std::to_string(P.ReservedBytes) + " reserved by co-tenants)");
  }

  /// Adds the simulated interval of command \p C to span \p Span.
  void simInterval(size_t Span, const ScheduledCmd &C) {
    TS.spanArg(Span, "sim_start", C.Start);
    TS.spanArg(Span, "sim_end", C.End);
  }

  /// Records copy-engine command \p C moving \p Bytes of \p Arr as an xfer
  /// span on track \p Tid.
  void xferSpan(const char *Name, int Tid, const VName &Arr, int64_t Bytes,
                double Cycles, const ScheduledCmd &C) {
    size_t Span = TS.beginSpan(Name, "device", Tid);
    TS.spanArg(Span, "array", Arr.str());
    TS.spanArg(Span, "bytes", static_cast<double>(Bytes));
    TS.spanArg(Span, "cycles", Cycles);
    simInterval(Span, C);
    TS.endSpan(Span);
  }

  /// Marks a command that overlapped the other engine of its device.
  void noteOverlap(const ScheduledCmd &C, int Tid) {
    if (Async && C.OverlappedOtherEngine)
      TS.instant("engine-overlap", "device", Tid);
  }

  /// One inter-device hop: the receiving device's copy engine pulls the
  /// bytes once the source block is ready on its producing device.
  /// Returns when they have landed.
  double interDevice(int Dst, int64_t Bytes, double SrcReady, const char *What,
                     const VName &Arr) {
    double Cycles = Bytes / P.TransferBytesPerCycle;
    Cost.InterDeviceBytes += Bytes;
    Cost.InterDeviceCycles += Cycles;
    Cost.TransferredBytes += Bytes;
    Cost.TransferCycles += Cycles;
    ScheduledCmd C = DG.dev(Dst).recv(Cycles, SrcReady);
    xferSpan(What, trace::deviceCopyTid(Dst), Arr, Bytes, Cycles, C);
    return C.End;
  }
};

/// The shard plan as it applies to one launch: the planned shard of a
/// kernel that runs split over the device group, with its runtime width
/// and block cuts.  Empty (KS null) for a launch that runs whole on
/// device 0.
struct ShardCtx {
  const shard::KernelShard *KS = nullptr;
  int64_t Width = -1;
  std::vector<std::pair<int64_t, int64_t>> Cuts;

  bool sharded() const { return KS != nullptr; }
  const shard::ShardInput *input(const VName &Arr) const {
    return KS ? KS->findInput(Arr) : nullptr;
  }
  bool aligned(const VName &Arr) const {
    const shard::ShardInput *SI = input(Arr);
    return SI && SI->Class == shard::InputClass::Aligned;
  }
};

/// Ends a span when the launch attempt that opened it is decided.
struct SpanGuard {
  size_t Idx = SIZE_MAX;
  ~SpanGuard() { trace::TraceSession::global().endSpan(Idx); }
};

/// Runs staged kernels.  One retry loop launches every kernel as its list
/// of slices: it simulates each slice inside its kernel span, applies the
/// per-kernel watchdog, schedules each slice on its device's compute engine
/// and merges its counters into the report, and recomputes the whole launch
/// on an injected transient fault.
class Launcher {
  SimState &S;
  const ResilienceParams &R;
  FaultPlan &Plan;

  /// One slice of the current attempt, simulated.
  struct SliceRun {
    size_t Span = SIZE_MAX;
    CostReport Cost;
    KernelLaunch Sim;
    LaunchPrice Price;
    double End = 0; ///< When the slice's compute command completes.
  };

public:
  Launcher(SimState &S, const ResilienceParams &R, FaultPlan &Plan)
      : S(S), R(R), Plan(Plan) {}

  ErrorOr<LaunchResult> launch(const KernelExp &K, const EnvView &Env,
                               const StagedLaunch &SL) {
    int Retries = 0;
    for (;;) {
      if (Plan.nextLaunchFails()) {
        if (auto Err = retryAfter(/*Corrupted=*/false, Retries))
          return Err.getError();
        continue;
      }

      // Every slice simulates inside its own kernel span.  The last one stays
      // open until the attempt is decided, so the kill, overlap and fault
      // instants below nest under the launch.
      SpanGuard Open;
      std::vector<SliceRun> Runs;
      Runs.reserve(SL.Slices.size());
      int64_t OutBytes = 0;
      double MaxCycles = 0;
      S.DG.syncHostClocks();
      for (const Slice &Sl : SL.Slices) {
        S.TS.endSpan(Open.Idx);
        SliceRun Run;
        Open.Idx = Run.Span =
            S.TS.beginSpan(kernelSpanName(K.Op), "device",
                           trace::deviceComputeTid(Sl.Device));
        int64_t OutBudget = S.MemCap > 0 ? S.MemCap - S.Mgr.liveBytes() : -1;
        int Chunks = 1;
        HostClock::time_point Start = HostClock::now();
        auto Sim = simulateKernel(S.P, K, Env, Run.Cost, Chunks, OutBudget,
                                  Sl.Offset, Sl.Rows);
        S.TS.spanArg(Run.Span, "host_ns_per_op",
                     hostNsPerOp(Start, Run.Cost.ComputeOps));
        S.TS.spanArg(Run.Span, "chunks", Chunks);
        S.TS.spanArg(Run.Span, "warp_op_share",
                     Sim && Run.Cost.ComputeOps > 0
                         ? static_cast<double>(Sim->WarpOps) /
                               static_cast<double>(Run.Cost.ComputeOps)
                         : 0.0);
        if (!Sim) // evaluation errors and mid-kernel OOM are not transient
          return Sim.getError();
        OutBytes += Sim->OutBytes;
        if (SL.Sharded)
          S.DG.noteWorkingSet(Sl.Device, Sl.InputBytes + Sim->OutBytes);
        Run.Price = S.price(Run.Cost, Sim->Profile);
        MaxCycles = std::max(MaxCycles, Run.Price.Selected);
        Run.Sim = std::move(*Sim);
        Runs.push_back(std::move(Run));
      }

      // Transient demand of this launch: the inputs are still live while the
      // results materialise, so capacity must briefly hold both.  The
      // residency peaks (PeakDeviceBytes, PlannedPeakBytes) never see this
      // overlap; the serving layer's admission reservations are taken from
      // the demand peak, which does.
      S.Cost.PeakDemandBytes =
          std::max(S.Cost.PeakDemandBytes, S.Mgr.liveBytes() + OutBytes);

      // The per-kernel watchdog sees the slowest slice: the kernel is only
      // done when every block is.
      if (S.P.WatchdogKernelCycles > 0 && MaxCycles > S.P.WatchdogKernelCycles)
        return kill(SL, Runs, MaxCycles);

      commit(SL, Runs);

      // Detected result corruption (ECC-style): the launch ran and was
      // charged, but all of it must be recomputed.
      if (Plan.nextResultCorrupted()) {
        if (auto Err = retryAfter(/*Corrupted=*/true, Retries))
          return Err.getError();
        continue;
      }
      S.TS.endSpan(Open.Idx);
      Open.Idx = SIZE_MAX;
      return results(K, SL, Runs);
    }
  }

private:
  /// Handles one injected transient fault (a failed launch, or detected
  /// corruption of a completed one): persistent once the retries are
  /// exhausted, otherwise the retry waits an exponential simulated-cycle
  /// backoff.
  MaybeError retryAfter(bool Corrupted, int &Retries) {
    ++S.Cost.FaultsInjected;
    trace::counter("device.faults");
    S.TS.instant(Corrupted ? "fault:result-corrupted" : "fault:launch-failed",
                 "device");
    if (Retries >= R.MaxRetries) {
      std::string Exhausted =
          std::to_string(R.MaxRetries) + " retries exhausted)";
      return CompilerError::transientFault(
          Corrupted ? "kernel results corrupted persistently (" + Exhausted
                    : "kernel launch failed persistently (" +
                          std::to_string(Retries + 1) + " transient faults, " +
                          Exhausted);
    }
    ++Retries;
    ++S.Cost.RetriedLaunches;
    double Backoff = R.RetryBackoffCycles * std::ldexp(1.0, Retries - 1);
    S.Cost.RetryCycles += Backoff;
    // A retry serialises the whole group: every engine on every device
    // drains, then the host spins for the backoff before re-issuing.
    S.DG.barrierAll(Backoff);
    trace::counter("device.retries");
    size_t I = S.TS.instant("retry-backoff", "device");
    S.TS.spanArg(I, "cycles", Backoff);
    return MaybeError();
  }

  /// A kernel over its cycle budget is killed deterministically.  The budget
  /// burned up to the kill point stays charged, once, to device 0's compute
  /// engine.  The spans record the cycles actually charged, not the
  /// would-have-been kernel time, so span cycles still sum to KernelCycles.
  CompilerError kill(const StagedLaunch &SL, const std::vector<SliceRun> &Runs,
                     double MaxCycles) {
    double Budget = S.P.WatchdogKernelCycles;
    ++S.Cost.WatchdogKills;
    ++S.Cost.KernelLaunches;
    S.Cost.KernelCycles += Budget;
    S.DG.dev(0).kernel(SL.DepsReady, 0, 0, Budget);
    for (const SliceRun &Run : Runs) {
      S.TS.spanArg(Run.Span, "cycles", &Run == &Runs.front() ? Budget : 0.0);
      S.TS.spanArg(Run.Span, "killed", 1.0);
    }
    trace::counter("device.kernel_launches");
    trace::counter("device.watchdog_kills");
    S.TS.instant("watchdog-kill", "device");
    return CompilerError::watchdog(
        "kernel killed by watchdog: " +
        std::to_string(static_cast<int64_t>(MaxCycles)) +
        " simulated cycles exceed the per-kernel budget of " +
        std::to_string(static_cast<int64_t>(Budget)));
  }

  /// Charges and schedules every slice of a launch that ran to completion.
  void commit(const StagedLaunch &SL, std::vector<SliceRun> &Runs) {
    const DeviceParams &P = S.P;
    if (SL.Sharded) {
      ++S.Cost.ShardedLaunches;
      trace::counter("device.sharded_launches");
    }
    for (size_t I = 0; I < Runs.size(); ++I) {
      const Slice &Sl = SL.Slices[I];
      SliceRun &Run = Runs[I];
      const CostReport &KCost = Run.Cost;
      double KTime = Run.Price.Selected;
      S.Cost.KernelCycles += KTime;
      ++S.Cost.KernelLaunches;
      S.chargeModelTotals(Run.Price, Run.Sim.Profile);
      ScheduledCmd KC =
          S.DG.dev(Sl.Device).kernel(Sl.DepsReady, P.LaunchCycles,
                                     P.PipelinedLaunchFraction,
                                     KTime - P.LaunchCycles);
      Run.End = KC.End;

      // Tiled traffic: each staged element is read once per tile from global
      // memory (coalesced), instead of once per thread.  The byte count
      // carries each element's real width.  The cost models amortise by the
      // same width internally; this copy only feeds the counter merge.
      double TiledTx = static_cast<double>(KCost.TiledElementBytes) /
                       std::max(1, P.tileWidth()) / P.SegmentBytes;
      int64_t GlobalTx =
          KCost.GlobalTransactions + static_cast<int64_t>(TiledTx);
      int64_t CoalescedTx =
          KCost.CoalescedTransactions + static_cast<int64_t>(TiledTx);
      bool Atomics = KCost.AtomicTransactions || KCost.AtomicConflicts;
      S.Cost.GlobalTransactions += GlobalTx;
      S.Cost.CoalescedTransactions += CoalescedTx;
      S.Cost.ScatteredTransactions += KCost.ScatteredTransactions;
      S.Cost.GlobalAccesses += KCost.GlobalAccesses;
      S.Cost.LocalAccesses += KCost.LocalAccesses;
      S.Cost.PrivateAccesses += KCost.PrivateAccesses;
      S.Cost.ComputeOps += KCost.ComputeOps;
      S.Cost.TiledElementTouches += KCost.TiledElementTouches;
      S.Cost.TiledElementBytes += KCost.TiledElementBytes;
      S.Cost.AtomicTransactions += KCost.AtomicTransactions;
      S.Cost.AtomicConflicts += KCost.AtomicConflicts;

      auto Arg = [&](const char *Key, double V) {
        S.TS.spanArg(Run.Span, Key, V);
      };
      Arg("cycles", KTime);
      Arg("cycles_roofline", Run.Price.Roofline);
      Arg("cycles_pipeline", Run.Price.Pipeline);
      S.simInterval(Run.Span, KC);
      if (SL.Sharded) {
        Arg("shard_device", Sl.Device);
        Arg("shard_rows", static_cast<double>(Sl.Rows));
      }
      Arg("global_tx", static_cast<double>(GlobalTx));
      Arg("coalesced_tx", static_cast<double>(CoalescedTx));
      Arg("scattered_tx", static_cast<double>(KCost.ScatteredTransactions));
      Arg("local_accesses", static_cast<double>(KCost.LocalAccesses));
      Arg("private_accesses", static_cast<double>(KCost.PrivateAccesses));
      Arg("compute_ops", static_cast<double>(KCost.ComputeOps));
      if (Atomics) {
        Arg("atomic_tx", static_cast<double>(KCost.AtomicTransactions));
        Arg("atomic_conflicts", static_cast<double>(KCost.AtomicConflicts));
      }
      trace::counter("device.kernel_launches");
      trace::counter("device.global_tx", GlobalTx);
      trace::counter("device.coalesced_tx", CoalescedTx);
      trace::counter("device.scattered_tx", KCost.ScatteredTransactions);
      if (Atomics) {
        trace::counter("device.atomic_tx", KCost.AtomicTransactions);
        trace::counter("device.atomic_conflicts", KCost.AtomicConflicts);
      }
      S.noteOverlap(KC, trace::deviceComputeTid(Sl.Device));
    }
  }

  /// Assembles a committed launch's results: a sharded launch's row blocks
  /// are stitched back together in device order (bit-identical to the
  /// unsharded result), or its histogram partials merged.  The results occupy
  /// device memory until released; capacity is checked here against the lump
  /// sum, and the per-name bindings happen once the interpreter has bound the
  /// pattern.
  ErrorOr<LaunchResult> results(const KernelExp &K, const StagedLaunch &SL,
                                std::vector<SliceRun> &Runs) {
    LaunchResult LR;
    for (const SliceRun &Run : Runs)
      LR.Ready = std::max(LR.Ready, Run.End);
    if (!SL.Sharded) {
      LR.Outputs = std::move(Runs.front().Sim.Outputs);
    } else if (K.Op == KernelExp::OpKind::SegHist) {
      auto Merged = mergeHistogram(K, Runs, LR.Ready);
      if (!Merged)
        return Merged.getError();
      LR.Outputs.push_back(Merged.take());
    } else {
      for (size_t J = 0; J < Runs.front().Sim.Outputs.size(); ++J) {
        const Value &First = Runs.front().Sim.Outputs[J];
        std::vector<int64_t> Shape = First.shape();
        std::vector<PrimValue> Data;
        for (const SliceRun &Run : Runs) {
          const std::vector<PrimValue> &Flat = Run.Sim.Outputs[J].flat();
          Data.insert(Data.end(), Flat.begin(), Flat.end());
        }
        if (!Shape.empty())
          Shape[0] = SL.Width;
        LR.Outputs.push_back(
            Value::array(First.elemKind(), std::move(Shape), std::move(Data)));
      }
      LR.Dist = DistInfo{SL.Cuts, std::vector<double>(S.numDevices(), 0)};
      for (size_t I = 0; I < Runs.size(); ++I)
        LR.Dist->Ready[SL.Slices[I].Device] = Runs[I].End;
    }

    int64_t OutBytes = 0;
    for (const Value &V : LR.Outputs)
      if (V.isArray())
        OutBytes += arrayBytes(V);
    if (!S.Mgr.wouldFit(OutBytes))
      return S.outOfMemory("allocating kernel outputs", OutBytes);
    return LR;
  }

  /// A sharded histogram yields one full-width partial per device (device 0
  /// primed from the destination, the rest from the neutral element).
  /// Merging folds them with the operator in device order, bit-identical to
  /// the unsharded result for the commutative-and-associative operators the
  /// verifier admits, and the merged array lives whole on device 0.
  ErrorOr<Value> mergeHistogram(const KernelExp &K,
                                const std::vector<SliceRun> &Runs,
                                double &Ready) {
    static const Program Empty;
    Interpreter MergeInterp(Empty);
    const Value &First = Runs.front().Sim.Outputs[0];
    std::vector<PrimValue> Merged = First.flat();
    int64_t EB = elemBytes(First.elemKind());
    for (size_t I = 1; I < Runs.size(); ++I) {
      const std::vector<PrimValue> &Part = Runs[I].Sim.Outputs[0].flat();
      for (size_t B = 0; B < Merged.size(); ++B) {
        std::vector<Value> MArgs{Value::scalar(Merged[B]),
                                 Value::scalar(Part[B])};
        auto Comb = MergeInterp.evalLambda(K.ReduceFn, std::move(MArgs));
        if (!Comb)
          return Comb.getError();
        if (Comb->size() != 1 || !(*Comb)[0].isScalar())
          return CompilerError(
              "seghist merge operator must produce one scalar");
        Merged[B] = (*Comb)[0].getScalar();
      }
      // Device 0 pulls each partial over the interconnect before folding it
      // in.
      Ready = std::max(Ready, S.interDevice(
                                  0, static_cast<int64_t>(Merged.size()) * EB,
                                  Runs[I].End, "xfer:hist-merge", K.HistDest));
    }
    return Value::array(First.elemKind(), First.shape(), std::move(Merged));
  }
};

/// The host side of a device run.  It tracks where each array is current —
/// on the host, whole on device 0, or split over the device group — moves
/// arrays between host and devices, and stages each kernel's inputs before
/// the launcher runs it.
class HostRuntime {
  SimState &S;
  const FunDef &F;
  LivenessInfo Liveness;
  /// Names whose host copy is current.  In asynchronous mode residency is
  /// dual: uploading keeps the host copy valid and a readback keeps the
  /// device copy valid.  In --sync mode the pre-async model is reproduced
  /// exactly: an upload invalidates the host copy and a readback releases
  /// the device one (the phantom re-upload the buffer manager fixes).
  NameSet HostValid;
  NameSet ParamNames;
  NameSet ManifestedTransposes;
  /// Shard lookup by kernel expression: the interpreter evaluates the very
  /// Exp nodes the plan was derived from, so pointer identity maps each
  /// launch to its planned shard (the liveness analysis relies on the same
  /// property).  Empty on a one-device group.
  std::unordered_map<const KernelExp *, const shard::KernelShard *> ShardOf;
  /// Distribution of device arrays over a multi-device group: block
  /// partitioned, replicated on every device, or (the default) whole on
  /// device 0.  Always empty on a one-device group.
  NameMap<DistInfo> PartitionedArrs;
  NameSet ReplicatedArrs;
  /// The launch whose results are being bound: when they are ready, and
  /// their distribution if the launch was sharded.
  double LastKernelReady = 0;
  std::optional<DistInfo> PendingOutDist;

public:
  HostRuntime(SimState &S, const Program &Prog, const FunDef &F,
              const mem::FunPlan *MPlan, const shard::FunShardPlan *SPlan)
      : S(S), F(F), Liveness(Prog) {
    for (const Param &Prm : F.Params) {
      HostValid.insert(Prm.Name);
      ParamNames.insert(Prm.Name);
    }

    int NumDev = S.numDevices();
    for (int D = 0; D < NumDev; ++D) {
      std::string Dev = D ? "dev" + std::to_string(D) + "-" : "";
      S.TS.setThreadName(trace::deviceCopyTid(D), Dev + "copy-engine");
      S.TS.setThreadName(trace::deviceComputeTid(D), Dev + "compute-engine");
    }

    if (NumDev > 1)
      shard::forEachKernel(F, [&](const KernelExp &K, const Stm &, int Id,
                                  bool) {
        if (const shard::KernelShard *KS = SPlan->kernel(Id))
          ShardOf[&K] = KS;
      });

    // One span per planned slab, so the arena layout is inspectable in the
    // exported trace alongside the kernels that use it.
    if (MPlan)
      for (const mem::SlabInfo &SI : MPlan->Slabs) {
        trace::ScopedSpan Span("memplan:slab" + std::to_string(SI.Id),
                               "memplan");
        Span.arg("bytes", SI.Bytes);
        Span.arg("hoisted", static_cast<int64_t>(SI.Hoisted ? 1 : 0));
        if (SI.Bytes < 0)
          Span.arg("size", SI.SizeExpr);
      }
  }

  /// Runs \p Fun with this runtime's hooks installed and \p L launching its
  /// kernels, then completes the cost report.
  ErrorOr<std::vector<Value>> run(const Program &Prog, const std::string &Fun,
                                  const std::vector<Value> &Args,
                                  Launcher &L) {
    InterpOptions Opts;
    Opts.OnExp = [this](const Exp &E, const EnvView &Env) {
      onExp(E, Env);
    };
    Opts.OnBind = [this](const Stm &St, const std::vector<Value> &Vals) {
      onBind(St, Vals);
    };
    Opts.HandleKernel =
        [&](const KernelExp &K,
            const EnvView &Env) -> ErrorOr<std::vector<Value>> {
      auto Staged = stage(K, Env);
      if (!Staged)
        return Staged.getError();
      auto Launched = L.launch(K, Env, *Staged);
      if (!Launched)
        return Launched.getError();
      LastKernelReady = Launched->Ready;
      PendingOutDist = std::move(Launched->Dist);
      return std::move(Launched->Outputs);
    };
    Interpreter I(Prog, Opts);
    auto Out = I.runFunction(Fun, Args);
    if (Out)
      finish(*Out);
    return Out;
  }

private:
  /// The run-level watchdog sees all simulated time spent so far: the
  /// two-engine makespan in asynchronous mode, the serial sum in --sync mode
  /// (HostCycles is normally derived at the end of the run, so recompute it
  /// here).
  double runningCycles() const {
    if (S.Async)
      return S.DG.makespan();
    const CostReport &C = S.Cost;
    return C.KernelCycles + C.TransferCycles + C.RetryCycles +
           C.HostOps * S.P.HostCyclesPerOp;
  }

  void onExp(const Exp &E, const EnvView &Env) {
    ++S.Cost.HostOps;
    S.DG.dev(0).host(S.P.HostCyclesPerOp);
    // Host observation of device-resident arrays forces a transfer — but
    // only expressions that actually read array contents count; kernel
    // launches and pure aliasing do not.
    ExpKind Kind = E.kind();
    if (Kind == ExpKind::Kernel || Kind == ExpKind::SubExpE ||
        Kind == ExpKind::Loop || Kind == ExpKind::If)
      return;
    forEachFreeOperand(E, [&](const SubExp &Op) {
      if (!Op.isVar() || HostValid.count(Op.getVar()))
        return;
      const Value *V = Env.find(Op.getVar());
      if (V && V->isArray())
        readBack(Op.getVar(), arrayBytes(*V));
    });
  }

  /// A blocking host readback of device array \p Arr.
  void readBack(const VName &Arr, int64_t Bytes) {
    auto PIt = PartitionedArrs.find(Arr);
    if (PIt != PartitionedArrs.end()) {
      // Host gather of a block-partitioned array: each owning device
      // downloads its rows in parallel; the host blocks until the slowest
      // block lands.  TransferCycles carries the serial sum of the block
      // charges (== the full array).
      const DistInfo &DI = PIt->second;
      int64_t W = DI.Cuts.empty() ? 1 : DI.Cuts.back().second;
      S.DG.syncHostClocks();
      int NumBlocks =
          std::min(S.numDevices(), static_cast<int>(DI.Cuts.size()));
      for (int D = 0; D < NumBlocks; ++D) {
        int64_t Len = DI.Cuts[D].second - DI.Cuts[D].first;
        if (Len <= 0)
          continue;
        int64_t BlockBytes = W > 0 ? Bytes / W * Len : Bytes;
        double BCycles = BlockBytes / S.P.TransferBytesPerCycle;
        S.Cost.TransferredBytes += BlockBytes;
        S.Cost.TransferCycles += BCycles;
        double Ready = D < static_cast<int>(DI.Ready.size()) ? DI.Ready[D] : 0;
        ScheduledCmd BD = S.DG.dev(D).download(BCycles, Ready);
        S.xferSpan("xfer:readback", trace::deviceCopyTid(D), Arr, BlockBytes,
                   BCycles, BD);
      }
      S.DG.syncHostClocks();
    } else {
      S.Cost.TransferredBytes += Bytes;
      double Cycles = Bytes / S.P.TransferBytesPerCycle;
      S.Cost.TransferCycles += Cycles;
      // The host blocks on the readback, but the compute engine keeps
      // draining: a buffer that was ready early downloads under a later
      // in-flight kernel.  A name the manager cannot attribute to a
      // producing command conservatively waits for the compute queue.
      EngineTimeline &TL = S.DG.dev(0);
      double Ready =
          S.Mgr.tracked(Arr) ? S.Mgr.readyAt(Arr) : TL.computeFreeTime();
      ScheduledCmd D = TL.download(Cycles, Ready);
      S.xferSpan("xfer:readback", trace::kCopyEngineTid, Arr, Bytes, Cycles, D);
      S.noteOverlap(D, trace::kCopyEngineTid);
      // In the serial model, reading the array back released its device
      // allocation (and a later kernel use re-uploaded it); with dual
      // residency the device copy stays valid.
      if (!S.Async)
        S.Mgr.invalidateDevice(Arr);
    }
    HostValid.insert(Arr);
    S.syncMemStats();
  }

  void onBind(const Stm &St, const std::vector<Value> &Vals) {
    if (expDynCast<KernelExp>(St.E.get())) {
      // Kernel results become device-resident buffers under their bound
      // names, ready when the kernel command completes.  Rebinding a name
      // (loop iterations) releases the previous iteration's buffer — the
      // liveness half of the leak fix.  Capacity was already checked
      // against the lump sum when the launch completed.  Rebinding also
      // replaces any previous distribution: a sharded launch leaves its
      // results block-partitioned.
      for (size_t I = 0; I < St.Pat.size() && I < Vals.size(); ++I) {
        const Value &V = Vals[I];
        if (!V.isArray())
          continue;
        const VName &N = St.Pat[I].Name;
        S.Mgr.bind(N, arrayBytes(V), LastKernelReady);
        HostValid.erase(N);
        ReplicatedArrs.erase(N);
        if (PendingOutDist)
          PartitionedArrs[N] = *PendingOutDist;
        else
          PartitionedArrs.erase(N);
      }
      PendingOutDist.reset();
      S.syncMemStats();
      return;
    }
    if (const auto *SE = expDynCast<SubExpExp>(St.E.get())) {
      // let y = x: y shares x's device allocation (refcounted) and its
      // distribution.
      if (SE->Val.isVar() && St.Pat.size() == 1) {
        const VName &Src = SE->Val.getVar(), &Dst = St.Pat[0].Name;
        S.Mgr.alias(Dst, Src);
        auto PIt = PartitionedArrs.find(Src);
        if (PIt != PartitionedArrs.end())
          PartitionedArrs[Dst] = PIt->second;
        else
          PartitionedArrs.erase(Dst);
        if (ReplicatedArrs.count(Src))
          ReplicatedArrs.insert(Dst);
        else
          ReplicatedArrs.erase(Dst);
        return;
      }
    }
    // Any other binding produces its value on the host: a stale device
    // buffer under the same name (a loop-body rebinding) is released.
    for (const Param &Prm : St.Pat) {
      PartitionedArrs.erase(Prm.Name);
      ReplicatedArrs.erase(Prm.Name);
      if (S.Mgr.tracked(Prm.Name)) {
        S.Mgr.release(Prm.Name);
        S.syncMemStats();
      }
    }
  }

  /// Stages kernel \p K: releases dead buffers, re-assembles, transposes,
  /// uploads and distributes its inputs, and works out when each slice can
  /// start.
  ErrorOr<StagedLaunch> stage(const KernelExp &K, const EnvView &Env) {
    if (S.P.WatchdogTotalCycles > 0 &&
        runningCycles() > S.P.WatchdogTotalCycles) {
      ++S.Cost.WatchdogKills;
      return CompilerError::watchdog(
          "run killed by watchdog: " +
          std::to_string(static_cast<int64_t>(runningCycles())) +
          " simulated cycles exceed the total budget of " +
          std::to_string(static_cast<int64_t>(S.P.WatchdogTotalCycles)));
    }

    // Liveness-driven sweep: device buffers no later statement (and not
    // this kernel) can reach are released before allocating anything new.
    if (const NameSet *Live = Liveness.liveAfter(&K)) {
      NameSet Keep = *Live;
      for (const KernelExp::KInput &In : K.Inputs)
        Keep.insert(In.Arr);
      S.Mgr.freeDead(Keep);
      S.syncMemStats();
    }

    ShardCtx SC = resolveShard(K, Env);
    gatherPartitioned(K, Env, SC);
    manifestTransposes(K, Env);
    if (auto Err = upload(K, Env, SC))
      return Err.getError();
    if (SC.sharded())
      distribute(K, Env, SC);
    return slices(K, Env, SC);
  }

  /// Resolves a launch against the shard plan: a planned-sharded kernel
  /// whose runtime outer width exceeds one row is split over the device
  /// group with the canonical block cuts; everything else runs whole on
  /// device 0.
  ShardCtx resolveShard(const KernelExp &K, const EnvView &Env) const {
    ShardCtx SC;
    auto SIt = ShardOf.find(&K);
    if (SIt == ShardOf.end() || !SIt->second->Sharded)
      return SC;
    const SubExp &WS = SIt->second->Width;
    int64_t W = -1;
    if (WS.isConst()) {
      W = WS.getConst().asInt64();
    } else {
      const Value *WV = Env.find(WS.getVar());
      if (WV && !WV->isArray())
        W = WV->getScalar().asInt64();
    }
    if (W > 1) {
      SC.KS = SIt->second;
      SC.Width = W;
      SC.Cuts = shard::blockCuts(W, S.numDevices());
    }
    return SC;
  }

  /// Re-assembles block-partitioned inputs this launch cannot consume in
  /// place: a broadcast (or unsharded, or width-mismatched) consumer needs
  /// the whole array — an all-gather onto every device when the launch is
  /// sharded, onto device 0 alone otherwise.  These are exactly the plan's
  /// TransferEdges, costed on the copy engines.
  void gatherPartitioned(const KernelExp &K, const EnvView &Env,
                         const ShardCtx &SC) {
    for (const KernelExp::KInput &In : K.Inputs) {
      auto PIt = PartitionedArrs.find(In.Arr);
      if (PIt == PartitionedArrs.end())
        continue;
      if (SC.aligned(In.Arr) && PIt->second.Cuts == SC.Cuts)
        continue; // consumed in place, block for block
      DistInfo DI = PIt->second;
      int64_t Bytes = envArrayBytes(Env, In.Arr);
      int64_t W = DI.Cuts.empty() ? 1 : DI.Cuts.back().second;
      double AllReady = S.Mgr.readyAt(In.Arr);
      for (double Rd : DI.Ready)
        AllReady = std::max(AllReady, Rd);
      S.DG.syncHostClocks();
      double MaxEnd = AllReady;
      int NumDst = SC.sharded() ? S.numDevices() : 1;
      for (int Dst = 0; Dst < NumDst; ++Dst) {
        int64_t Own = Dst < static_cast<int>(DI.Cuts.size())
                          ? DI.Cuts[Dst].second - DI.Cuts[Dst].first
                          : 0;
        int64_t Miss = Bytes - (W > 0 ? Bytes / W * Own : 0);
        if (Miss <= 0)
          continue;
        MaxEnd = std::max(MaxEnd, S.interDevice(Dst, Miss, AllReady,
                                                "xfer:all-gather", In.Arr));
      }
      PartitionedArrs.erase(In.Arr);
      if (SC.sharded())
        ReplicatedArrs.insert(In.Arr);
      S.Mgr.setReady(In.Arr, MaxEnd);
      trace::counter("device.shard_gathers");
    }
  }

  /// Inputs whose representation was changed by the coalescing pass are
  /// manifested by a transposition in memory, once per array (Section 5.2):
  /// one extra launch plus a read and a semi-coalesced write of every
  /// element.
  void manifestTransposes(const KernelExp &K, const EnvView &Env) {
    const DeviceParams &P = S.P;
    for (const KernelExp::KInput &In : K.Inputs) {
      if (isIdentityPerm(In.LayoutPerm) || ManifestedTransposes.count(In.Arr))
        continue;
      const Value *V = Env.find(In.Arr);
      if (!V)
        continue;
      ManifestedTransposes.insert(In.Arr);
      HostClock::time_point Start = HostClock::now();
      int64_t Elems = V->numElems();
      // Tiled transpose: reads coalesced, writes ~2x segment traffic.
      int64_t Tx = 3 * arrayBytes(*V) / P.SegmentBytes + 1;
      S.Cost.GlobalTransactions += Tx;
      S.Cost.CoalescedTransactions += Tx; // tiled transposes stay coalesced
      S.Cost.GlobalAccesses += 2 * Elems;
      ++S.Cost.KernelLaunches;
      // A manifestation is a synthetic all-memory launch: cost it through
      // the model with transaction counters only (no warps simulated).
      CostReport TCost;
      TCost.GlobalTransactions = Tx;
      KernelProfile TProf;
      LaunchPrice TP = S.price(TCost, TProf);
      S.chargeModelTotals(TP, TProf);
      double TCycles = TP.Selected;
      S.Cost.KernelCycles += TCycles;
      // Under the default model the engine occupancy is written as the raw
      // transaction term, not (launch + term) - launch: the two are not
      // bit-equal in floating point, and default timelines are pinned
      // byte-identical to the pre-CostModel simulator.
      double TExec = &S.CM == &CostModel::roofline()
                         ? Tx / P.GlobalTxPerCycle
                         : TCycles - P.LaunchCycles;
      ScheduledCmd TC =
          S.DG.dev(0).kernel(S.Mgr.readyAt(In.Arr), P.LaunchCycles,
                             P.PipelinedLaunchFraction, TExec);
      S.Mgr.setReady(In.Arr, TC.End);
      size_t Span = S.TS.beginSpan("kernel:transpose", "device",
                                   trace::kComputeEngineTid);
      S.TS.spanArg(Span, "array", In.Arr.str());
      S.TS.spanArg(Span, "chunks", 1.0);
      S.TS.spanArg(Span, "warp_op_share", 0.0);
      S.TS.spanArg(Span, "host_ns_per_op", hostNsPerOp(Start, 0));
      S.TS.spanArg(Span, "cycles", TCycles);
      S.TS.spanArg(Span, "global_tx", static_cast<double>(Tx));
      S.TS.spanArg(Span, "coalesced_tx", static_cast<double>(Tx));
      S.TS.spanArg(Span, "scattered_tx", 0.0);
      S.simInterval(Span, TC);
      S.TS.endSpan(Span);
      S.noteOverlap(TC, trace::kComputeEngineTid);
      trace::counter("device.kernel_launches");
      trace::counter("device.global_tx", Tx);
      trace::counter("device.coalesced_tx", Tx);
    }
  }

  /// Uploads inputs whose device copy is missing or stale.  The first upload
  /// of a program input is excluded from the measured time, like the paper's
  /// harness (and bypasses the timeline for the same reason).  With dual
  /// residency a read-back buffer is still device valid, so re-using it on
  /// the device costs nothing — the phantom re-upload only exists in --sync
  /// mode.
  MaybeError upload(const KernelExp &K, const EnvView &Env,
                    const ShardCtx &SC) {
    for (const KernelExp::KInput &In : K.Inputs) {
      if (!HostValid.count(In.Arr))
        continue;
      const Value *V = Env.find(In.Arr);
      if (!V)
        continue;
      if (S.Async && S.Mgr.deviceValid(In.Arr))
        continue;
      int64_t Bytes = arrayBytes(*V);
      if (!S.Mgr.bind(In.Arr, Bytes, 0))
        return S.outOfMemory("uploading " + In.Arr.str(), Bytes);
      S.Cost.TransferredBytes += Bytes;
      double Cycles = Bytes / S.P.TransferBytesPerCycle;
      bool Excluded = ParamNames.count(In.Arr);
      if (Excluded)
        S.Cost.ExcludedTransferCycles += Cycles;
      if (SC.aligned(In.Arr)) {
        // Block-partitioned upload: each device's copy engine receives only
        // its own rows, in parallel.  The serial charge (the sum of the
        // block charges) equals the whole array's, so the serial-sum bound
        // is unchanged.
        DistInfo DI{SC.Cuts, std::vector<double>(S.numDevices(), 0)};
        if (!Excluded) {
          S.DG.syncHostClocks();
          double MaxEnd = 0;
          for (int D = 0; D < S.numDevices(); ++D) {
            int64_t Len = SC.Cuts[D].second - SC.Cuts[D].first;
            if (Len <= 0)
              continue;
            int64_t BlockBytes = Bytes / SC.Width * Len;
            double BCycles = BlockBytes / S.P.TransferBytesPerCycle;
            S.Cost.TransferCycles += BCycles;
            ScheduledCmd U = S.DG.dev(D).upload(BCycles);
            DI.Ready[D] = U.End;
            MaxEnd = std::max(MaxEnd, U.End);
            S.xferSpan("xfer:upload", trace::deviceCopyTid(D), In.Arr,
                       BlockBytes, BCycles, U);
          }
          S.Mgr.setReady(In.Arr, MaxEnd);
        }
        ReplicatedArrs.erase(In.Arr);
        PartitionedArrs[In.Arr] = std::move(DI);
      } else {
        if (!Excluded) {
          S.Cost.TransferCycles += Cycles;
          ScheduledCmd U = S.DG.dev(0).upload(Cycles);
          S.Mgr.setReady(In.Arr, U.End);
          S.xferSpan("xfer:upload", trace::kCopyEngineTid, In.Arr, Bytes,
                     Cycles, U);
          S.noteOverlap(U, trace::kCopyEngineTid);
        }
        if (!S.Async)
          HostValid.erase(In.Arr);
      }
      S.syncMemStats();
    }
    return MaybeError();
  }

  /// A sharded launch's remaining distribution fixups: broadcast inputs that
  /// only device 0 holds are replicated dev0 -> all, and aligned inputs
  /// produced whole on device 0 are scattered block by block.
  void distribute(const KernelExp &K, const EnvView &Env,
                  const ShardCtx &SC) {
    int NumDev = S.numDevices();
    for (const KernelExp::KInput &In : K.Inputs) {
      const shard::ShardInput *SI = SC.input(In.Arr);
      if (!SI || PartitionedArrs.count(In.Arr) || ReplicatedArrs.count(In.Arr))
        continue;
      int64_t Bytes = envArrayBytes(Env, In.Arr);
      if (Bytes <= 0)
        continue;
      double SrcReady = S.Mgr.readyAt(In.Arr);
      S.DG.syncHostClocks();
      double MaxEnd = SrcReady;
      if (SI->Class == shard::InputClass::Broadcast) {
        for (int Dst = 1; Dst < NumDev; ++Dst)
          MaxEnd = std::max(MaxEnd, S.interDevice(Dst, Bytes, SrcReady,
                                                  "xfer:broadcast", In.Arr));
        ReplicatedArrs.insert(In.Arr);
      } else {
        DistInfo DI{SC.Cuts, std::vector<double>(NumDev, SrcReady)};
        for (int Dst = 1; Dst < NumDev; ++Dst) {
          int64_t Len = SC.Cuts[Dst].second - SC.Cuts[Dst].first;
          if (Len <= 0)
            continue;
          DI.Ready[Dst] = S.interDevice(Dst, Bytes / SC.Width * Len, SrcReady,
                                        "xfer:scatter", In.Arr);
          MaxEnd = std::max(MaxEnd, DI.Ready[Dst]);
        }
        PartitionedArrs[In.Arr] = std::move(DI);
      }
      S.Mgr.setReady(In.Arr, MaxEnd);
    }
  }

  /// The launch's slices.  The launch depends on every input's device copy
  /// being ready; on a sharded launch a block-partitioned aligned input gates
  /// each device only on its own block, and everything else gates every
  /// device on the whole array.
  StagedLaunch slices(const KernelExp &K, const EnvView &Env,
                      const ShardCtx &SC) const {
    StagedLaunch SL;
    for (const KernelExp::KInput &In : K.Inputs)
      SL.DepsReady = std::max(SL.DepsReady, S.Mgr.readyAt(In.Arr));
    if (!SC.sharded()) {
      SL.Slices.push_back({0, 0, -1, SL.DepsReady, 0});
      return SL;
    }
    SL.Sharded = true;
    SL.Width = SC.Width;
    SL.Cuts = SC.Cuts;
    for (int D = 0; D < S.numDevices(); ++D) {
      Slice Sl{D, SC.Cuts[D].first, SC.Cuts[D].second - SC.Cuts[D].first, 0, 0};
      if (Sl.Rows <= 0)
        continue;
      for (const KernelExp::KInput &In : K.Inputs) {
        auto PIt = PartitionedArrs.find(In.Arr);
        bool Aligned = SC.aligned(In.Arr);
        double Rd = S.Mgr.readyAt(In.Arr);
        if (PIt != PartitionedArrs.end() && Aligned &&
            PIt->second.Cuts == SC.Cuts)
          Rd = D < static_cast<int>(PIt->second.Ready.size())
                   ? PIt->second.Ready[D]
                   : 0;
        Sl.DepsReady = std::max(Sl.DepsReady, Rd);
        // Working set: aligned inputs contribute their row block, broadcast
        // inputs their full size.
        int64_t B = envArrayBytes(Env, In.Arr);
        Sl.InputBytes += Aligned ? B / SC.Width * Sl.Rows : B;
      }
      SL.Slices.push_back(Sl);
    }
    return SL;
  }

  /// Completes the cost report once the interpreter has returned \p Out.
  void finish(const std::vector<Value> &Out) {
    CostReport &C = S.Cost;
    // Download results that are still device-resident (excluded from the
    // measured time, like the paper's harness).  A variable returned in
    // several result positions is one buffer and downloads once.
    NameSet Downloaded;
    for (size_t J = 0; J < F.FBody.Result.size(); ++J) {
      const SubExp &RS = F.FBody.Result[J];
      if (RS.isConst() || !Downloaded.insert(RS.getVar()).second ||
          HostValid.count(RS.getVar()) || !Out[J].isArray())
        continue;
      int64_t Bytes = arrayBytes(Out[J]);
      C.TransferredBytes += Bytes;
      C.ExcludedTransferCycles += Bytes / S.P.TransferBytesPerCycle;
    }

    C.HostCycles = C.HostOps * S.P.HostCyclesPerOp;
    double Serial = C.KernelCycles + C.HostCycles + C.TransferCycles +
                    C.RetryCycles;
    S.syncMemStats();
    C.NumDevices = S.numDevices();
    if (S.numDevices() > 1)
      C.PerDevicePeakBytes = S.DG.peakBytes();
    if (S.Async) {
      // Makespan <= serial sum holds by construction; the min() only guards
      // against float-summation noise between the two accumulations.  With
      // several devices the group makespan is the max over the per-device
      // makespans and the busy counters sum over the group.
      C.TotalCycles = std::min(S.DG.makespan(), Serial);
      C.CopyEngineBusy = S.DG.copyBusy();
      C.ComputeEngineBusy = S.DG.computeBusy();
      C.OverlapSavedCycles = std::max(0.0, Serial - C.TotalCycles);
    } else {
      C.TotalCycles = Serial;
    }
  }
};

} // namespace

bool fut::gpusim::isDeviceFailure(const CompilerError &E) {
  return E.Kind == ErrorKind::DeviceOOM || E.Kind == ErrorKind::Watchdog ||
         E.Kind == ErrorKind::TransientFault;
}

ErrorOr<std::vector<Value>> fut::gpusim::runInterpFallback(
    const Program &Prog, const std::string &Fun,
    const std::vector<Value> &Args, const CompilerError &DevErr,
    int64_t &HostOps) {
  InterpOptions IO;
  IO.OnExp = [&](const Exp &, const EnvView &) { ++HostOps; };
  Interpreter I(Prog, IO);
  auto Out = I.runFunction(Fun, Args);
  if (!Out)
    return CompilerError::fallbackExhausted(
        "device failed (" + DevErr.Message +
        ") and the interpreter fallback also failed: " +
        Out.getError().Message);
  return Out;
}

ErrorOr<RunResult> Device::run(const Program &Prog, const std::string &Fun,
                               const std::vector<Value> &Args) {
  trace::ScopedSpan Span("device-run", "device");
  Span.arg("device", P.Name);
  Span.arg("function", Fun);
  // Reject inconsistent configurations before anything launches.  A
  // Config error is not a device failure: the interpreter fallback never
  // masks it (the configuration would be just as wrong on retry).
  if (auto Err = P.validate())
    return Err.getError();
  CostReport Cost;
  FaultPlan Plan(R.Faults);
  // Resolve the memory plan: the compiler's artifact when provided, a
  // locally computed one otherwise.
  mem::MemoryPlan LocalPlan;
  if (!MemPlan)
    LocalPlan = mem::planMemory(Prog);
  const mem::FunPlan *FP = (MemPlan ? *MemPlan : LocalPlan).forFun(Fun);
  // Resolve the shard plan: only consulted with more than one device, and
  // only for functions the compiler actually planned.
  const shard::FunShardPlan *SP = nullptr;
  if (Shards && Devices > 1)
    SP = Shards->forFun(Fun);
  if (SP)
    Span.arg("devices", Devices);
  const FunDef *F = Prog.findFun(Fun);
  if (!F)
    return CompilerError("unknown function " + Fun);
  // Sharded execution needs the asynchronous per-device timelines; under
  // --sync (or without a plan) the group degenerates to one device, which
  // behaves bit-for-bit like the plain single-device model.
  SimState S(P, Cost, FP, P.AsyncTimeline && SP ? Devices : 1);
  HostRuntime RT(S, Prog, *F, FP, SP);
  Launcher L(S, R, Plan);
  auto Out = RT.run(Prog, Fun, Args, L);
  if (FP) {
    trace::counter("device.planned_peak_bytes", Cost.PlannedPeakBytes);
    trace::counter("device.hoisted_allocs", Cost.HoistedAllocs);
    trace::counter("device.reused_blocks", Cost.ReusedBlocks);
  }
  if (Out) {
    Span.arg("cycles", Cost.TotalCycles);
    RunResult RR;
    RR.Outputs = Out.take();
    RR.Cost = Cost;
    return RR;
  }

  CompilerError DevErr = Out.getError();
  if (!isDeviceFailure(DevErr) || !R.InterpFallback)
    return DevErr;
  trace::TraceSession::global().instant("interp-fallback", "device");

  // Graceful degradation: recompute the whole run on the reference
  // interpreter.  The aborted device work stays charged in the cost
  // report, and every interpreted step is charged as a host op.
  auto Ref = runInterpFallback(Prog, Fun, Args, DevErr, Cost.HostOps);
  if (!Ref)
    return Ref.getError();

  Cost.HostCycles = Cost.HostOps * P.HostCyclesPerOp;
  Cost.TotalCycles = Cost.KernelCycles + Cost.HostCycles +
                     Cost.TransferCycles + Cost.RetryCycles;

  RunResult RR;
  RR.Outputs = Ref.take();
  RR.Cost = Cost;
  RR.InterpFallback = true;
  RR.FallbackError = DevErr;
  return RR;
}
