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
#include <cmath>
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

namespace {

/// One attempt to run the program with kernels on the simulated device.
/// Transient per-kernel faults are retried in place; persistent failures
/// (OOM, watchdog, retries exhausted) surface as typed runtime errors.
/// \p Cost accumulates across the attempt and is left populated even on
/// failure, so the caller can charge the aborted device work to a fallback
/// run.
ErrorOr<RunResult> runDeviceAttempt(const DeviceParams &P,
                                    const ResilienceParams &R,
                                    FaultPlan &Plan, CostReport &Cost,
                                    const Program &Prog,
                                    const std::string &Fun,
                                    const std::vector<Value> &Args,
                                    const mem::FunPlan *MPlan,
                                    const shard::FunShardPlan *SPlan,
                                    int NumDevices) {
  const FunDef *F = Prog.findFun(Fun);
  if (!F)
    return CompilerError("unknown function " + Fun);

  // Costing is pluggable (CostModel.h): the selected model's estimate is
  // what gets charged, but both models price every launch from the same
  // counters — the comparison is nearly free and gives every run its own
  // calibration pair.  Device::run validated the name; the roofline
  // fallback only covers direct callers that skipped validation.
  const CostModel *NamedCM = CostModel::byName(P.CostModelName);
  const CostModel &CM = NamedCM ? *NamedCM : CostModel::roofline();
  Cost.CostModelUsed = CM.name();

  struct LaunchPrice {
    double Roofline = 0, Pipeline = 0, Selected = 0;
  };
  auto PriceLaunch = [&](const CostReport &KCost,
                         const KernelProfile &KProf) {
    LaunchPrice LP;
    LP.Roofline = CostModel::roofline().kernelCycles(P, KCost, KProf);
    LP.Pipeline = CostModel::pipeline().kernelCycles(P, KCost, KProf);
    LP.Selected = &CM == &CostModel::pipeline() ? LP.Pipeline : LP.Roofline;
    return LP;
  };
  // Charged only for launches that complete (watchdog-killed launches
  // charge their budget to KernelCycles, exactly as before).
  auto ChargeModelTotals = [&](const LaunchPrice &LP,
                               const KernelProfile &KProf) {
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
  };

  // Names whose host copy is current.  In asynchronous mode residency is
  // dual: uploading keeps the host copy valid and a readback keeps the
  // device copy valid.  In --sync mode the pre-async model is reproduced
  // exactly: an upload invalidates the host copy and a readback releases
  // the device one (the phantom re-upload the buffer manager fixes).
  NameSet HostValid;
  NameSet ParamNames;
  for (const Param &Prm : F->Params) {
    HostValid.insert(Prm.Name);
    ParamNames.insert(Prm.Name);
  }

  InterpOptions Opts;
  Opts.ConsumeOnUpdate = true;

  const bool Async = P.AsyncTimeline;
  // Sharded execution needs the asynchronous per-device timelines; under
  // --sync (or without a plan) the group degenerates to one device, which
  // behaves bit-for-bit like the plain single-device model.
  const int NumDev = (Async && SPlan) ? std::max(1, NumDevices) : 1;
  DeviceGroup DG(NumDev);
  EngineTimeline &TL = DG.dev(0);
  // On a shared (multi-tenant) device the run only sees the capacity left
  // after co-resident tenants' admission reservations.
  const int64_t MemCap = P.effectiveMemBytes();
  DeviceBufferManager Mgr(MemCap, MPlan);
  LivenessInfo Liveness(Prog);

  auto &TS = trace::TraceSession::global();
  TS.setThreadName(trace::kCopyEngineTid, "copy-engine");
  TS.setThreadName(trace::kComputeEngineTid, "compute-engine");
  for (int D = 1; D < NumDev; ++D) {
    TS.setThreadName(trace::deviceCopyTid(D),
                     "dev" + std::to_string(D) + "-copy-engine");
    TS.setThreadName(trace::deviceComputeTid(D),
                     "dev" + std::to_string(D) + "-compute-engine");
  }

  // Shard lookup by kernel expression: the interpreter evaluates the very
  // Exp nodes the plan was derived from, so pointer identity maps each
  // launch to its planned shard (the liveness analysis relies on the same
  // property).
  std::unordered_map<const KernelExp *, const shard::KernelShard *> ShardOf;
  if (NumDev > 1 && SPlan)
    shard::forEachKernel(
        *F, [&](const KernelExp &K, const Stm &, int Id, bool) {
          if (const shard::KernelShard *KS = SPlan->kernel(Id))
            ShardOf[&K] = KS;
        });

  // Runtime distribution state of device arrays (multi-device only):
  // an array is block-partitioned (each device owns a contiguous row
  // block, with per-device ready times), replicated on every device, or
  // — the default — whole on device 0.
  struct DistInfo {
    std::vector<std::pair<int64_t, int64_t>> Cuts;
    std::vector<double> Ready;
  };
  NameMap<DistInfo> PartitionedArrs;
  NameSet ReplicatedArrs;
  // Output distribution of the sharded launch currently returning, applied
  // to the bound pattern names in OnBind.
  DistInfo PendingOutDist;
  bool HavePendingOutDist = false;

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

  // Mirrors the buffer manager's byte accounting into the report after
  // every allocation event, so an aborted attempt still reports its
  // memory history.
  auto SyncMemStats = [&] {
    Cost.PeakDeviceBytes = Mgr.peakBytes();
    Cost.FreedBytes = Mgr.freedBytes();
    // The plan-derived bound, not the live counter peakBytes() already
    // feeds into PeakDeviceBytes: asserting observed <= planned is a
    // genuine cross-check of the static layout against residency.
    Cost.PlannedPeakBytes = Mgr.plannedPeakBytes();
    Cost.HoistedAllocs = Mgr.hoistedAllocs();
    Cost.ReusedBlocks = Mgr.reusedBlocks();
  };

  // Simulated end of the most recent kernel command: the ready-time of
  // the buffers it produced (registered by name in OnBind below).
  double LastKernelReady = 0;

  // The run-level watchdog sees all simulated time spent so far: the
  // two-engine makespan in asynchronous mode, the serial sum in --sync
  // mode (HostCycles is normally derived at the end of the run, so
  // recompute it here).
  auto RunningCycles = [&] {
    if (Async)
      return DG.makespan();
    return Cost.KernelCycles + Cost.TransferCycles + Cost.RetryCycles +
           Cost.HostOps * P.HostCyclesPerOp;
  };

  Opts.OnExp = [&](const Exp &E, const NameMap<Value> &Env) {
    ++Cost.HostOps;
    TL.host(P.HostCyclesPerOp);
    // Host observation of device-resident arrays forces a transfer — but
    // only expressions that actually read array contents count; kernel
    // launches and pure aliasing do not.
    switch (E.kind()) {
    case ExpKind::Kernel:
    case ExpKind::SubExpE:
    case ExpKind::Loop:
    case ExpKind::If:
      return;
    default:
      break;
    }
    forEachFreeOperand(E, [&](const SubExp &S) {
      if (!S.isVar())
        return;
      auto It = Env.find(S.getVar());
      if (It == Env.end() || !It->second.isArray())
        return;
      if (HostValid.count(S.getVar()))
        return;
      int64_t Bytes =
          It->second.numElems() * elemBytes(It->second.elemKind());
      if (NumDev > 1) {
        auto PIt = PartitionedArrs.find(S.getVar());
        if (PIt != PartitionedArrs.end()) {
          // Host gather of a block-partitioned array: each owning device
          // downloads its rows in parallel; the host blocks until the
          // slowest block lands.  TransferCycles carries the serial sum
          // of the block charges (== the full array).
          const DistInfo &DI = PIt->second;
          int64_t W = DI.Cuts.empty() ? 1 : DI.Cuts.back().second;
          DG.syncHostClocks();
          for (int D = 0; D < NumDev && D < static_cast<int>(DI.Cuts.size());
               ++D) {
            int64_t Len = DI.Cuts[D].second - DI.Cuts[D].first;
            if (Len <= 0)
              continue;
            int64_t BlockBytes = W > 0 ? Bytes / W * Len : Bytes;
            double BCycles = BlockBytes / P.TransferBytesPerCycle;
            Cost.TransferredBytes += BlockBytes;
            Cost.TransferCycles += BCycles;
            double Ready = D < static_cast<int>(DI.Ready.size())
                               ? DI.Ready[D]
                               : 0;
            ScheduledCmd BD = DG.dev(D).download(BCycles, Ready);
            trace::ScopedSpan XSpan("xfer:readback", "device",
                                    trace::deviceCopyTid(D));
            XSpan.arg("array", S.getVar().str());
            XSpan.arg("bytes", BlockBytes);
            XSpan.arg("cycles", BCycles);
            XSpan.arg("sim_start", BD.Start);
            XSpan.arg("sim_end", BD.End);
          }
          DG.syncHostClocks();
          HostValid.insert(S.getVar());
          SyncMemStats();
          return;
        }
      }
      Cost.TransferredBytes += Bytes;
      double Cycles = Bytes / P.TransferBytesPerCycle;
      Cost.TransferCycles += Cycles;
      // The host blocks on the readback, but the compute engine keeps
      // draining: a buffer that was ready early downloads under a later
      // in-flight kernel.  A name the manager cannot attribute to a
      // producing command conservatively waits for the compute queue.
      double Ready = Mgr.tracked(S.getVar()) ? Mgr.readyAt(S.getVar())
                                             : TL.computeFreeTime();
      ScheduledCmd D = TL.download(Cycles, Ready);
      {
        trace::ScopedSpan XSpan("xfer:readback", "device",
                                trace::kCopyEngineTid);
        XSpan.arg("array", S.getVar().str());
        XSpan.arg("bytes", Bytes);
        XSpan.arg("cycles", Cycles);
        XSpan.arg("sim_start", D.Start);
        XSpan.arg("sim_end", D.End);
      }
      if (Async && D.OverlappedOtherEngine)
        TS.instant("engine-overlap", "device", trace::kCopyEngineTid);
      HostValid.insert(S.getVar());
      // In the serial model, reading the array back released its device
      // allocation (and a later kernel use re-uploaded it); with dual
      // residency the device copy stays valid.
      if (!Async)
        Mgr.invalidateDevice(S.getVar());
      SyncMemStats();
    });
  };

  Opts.OnBind = [&](const Stm &S, const std::vector<Value> &Vals) {
    if (expDynCast<KernelExp>(S.E.get())) {
      // Kernel results become device-resident buffers under their bound
      // names, ready when the kernel command completes.  Rebinding a name
      // (loop iterations) releases the previous iteration's buffer — the
      // liveness half of the leak fix.  Capacity was already checked
      // against the lump sum in HandleKernel.
      for (size_t I = 0; I < S.Pat.size() && I < Vals.size(); ++I) {
        const Value &V = Vals[I];
        if (!V.isArray())
          continue;
        int64_t Bytes = V.numElems() * elemBytes(V.elemKind());
        Mgr.bind(S.Pat[I].Name, Bytes, LastKernelReady);
        HostValid.erase(S.Pat[I].Name);
        if (NumDev > 1) {
          // Rebinding invalidates any previous distribution; a sharded
          // launch leaves its outputs block-partitioned.
          PartitionedArrs.erase(S.Pat[I].Name);
          ReplicatedArrs.erase(S.Pat[I].Name);
          if (HavePendingOutDist)
            PartitionedArrs[S.Pat[I].Name] = PendingOutDist;
        }
      }
      HavePendingOutDist = false;
      SyncMemStats();
      return;
    }
    if (const auto *SE = expDynCast<SubExpExp>(S.E.get())) {
      // let y = x: y shares x's device allocation (refcounted).
      if (SE->Val.isVar() && S.Pat.size() == 1) {
        Mgr.alias(S.Pat[0].Name, SE->Val.getVar());
        if (NumDev > 1) {
          // The alias shares the source's distribution.
          auto PIt = PartitionedArrs.find(SE->Val.getVar());
          if (PIt != PartitionedArrs.end())
            PartitionedArrs[S.Pat[0].Name] = PIt->second;
          else
            PartitionedArrs.erase(S.Pat[0].Name);
          if (ReplicatedArrs.count(SE->Val.getVar()))
            ReplicatedArrs.insert(S.Pat[0].Name);
          else
            ReplicatedArrs.erase(S.Pat[0].Name);
        }
        return;
      }
    }
    // Any other binding produces its value on the host: a stale device
    // buffer under the same name (a loop-body rebinding) is released.
    for (const Param &Prm : S.Pat) {
      if (NumDev > 1) {
        PartitionedArrs.erase(Prm.Name);
        ReplicatedArrs.erase(Prm.Name);
      }
      if (Mgr.tracked(Prm.Name)) {
        Mgr.release(Prm.Name);
        SyncMemStats();
      }
    }
  };

  NameSet ManifestedTransposes;

  Opts.HandleKernel =
      [&](const KernelExp &K,
          const NameMap<Value> &Env) -> ErrorOr<std::vector<Value>> {
    if (P.WatchdogTotalCycles > 0 && RunningCycles() > P.WatchdogTotalCycles) {
      ++Cost.WatchdogKills;
      return CompilerError::watchdog(
          "run killed by watchdog: " +
          std::to_string(static_cast<int64_t>(RunningCycles())) +
          " simulated cycles exceed the total budget of " +
          std::to_string(static_cast<int64_t>(P.WatchdogTotalCycles)));
    }

    // Liveness-driven sweep: device buffers no later statement (and not
    // this kernel) can reach are released before allocating anything new.
    // This is the leak fix — intermediates consumed only by earlier
    // kernels used to stay resident until a host readback.
    if (const NameSet *Live = Liveness.liveAfter(&K)) {
      NameSet Keep = *Live;
      for (const KernelExp::KInput &In : K.Inputs)
        Keep.insert(In.Arr);
      Mgr.freeDead(Keep);
      SyncMemStats();
    }

    // Resolve this launch against the shard plan: a planned-sharded kernel
    // whose runtime outer width exceeds one row is split over the device
    // group with the canonical block cuts; everything else runs whole on
    // device 0, exactly as before.
    const shard::KernelShard *KS = nullptr;
    int64_t ShardW = -1;
    if (NumDev > 1) {
      auto SIt = ShardOf.find(&K);
      if (SIt != ShardOf.end() && SIt->second->Sharded) {
        const SubExp &WS = SIt->second->Width;
        if (WS.isConst()) {
          ShardW = WS.getConst().asInt64();
        } else {
          auto WIt = Env.find(WS.getVar());
          if (WIt != Env.end() && !WIt->second.isArray())
            ShardW = WIt->second.getScalar().asInt64();
        }
        if (ShardW > 1)
          KS = SIt->second;
      }
    }
    const bool DoShard = KS != nullptr;
    std::vector<std::pair<int64_t, int64_t>> Cuts;
    if (DoShard)
      Cuts = shard::blockCuts(ShardW, NumDev);

    auto InputBytes = [&](const VName &Arr) -> int64_t {
      auto It = Env.find(Arr);
      if (It == Env.end() || !It->second.isArray())
        return 0;
      return It->second.numElems() * elemBytes(It->second.elemKind());
    };

    // One inter-device hop: the receiving device's copy engine pulls the
    // bytes once the source block is ready on its producing device.
    auto InterDev = [&](int Dst, int64_t Bytes, double SrcReady,
                        const char *What, const VName &Arr) {
      double Cycles = Bytes / P.TransferBytesPerCycle;
      Cost.InterDeviceBytes += Bytes;
      Cost.InterDeviceCycles += Cycles;
      Cost.TransferredBytes += Bytes;
      Cost.TransferCycles += Cycles;
      ScheduledCmd C = DG.dev(Dst).recv(Cycles, SrcReady);
      trace::ScopedSpan XSpan(What, "device", trace::deviceCopyTid(Dst));
      XSpan.arg("array", Arr.str());
      XSpan.arg("bytes", Bytes);
      XSpan.arg("cycles", Cycles);
      XSpan.arg("sim_start", C.Start);
      XSpan.arg("sim_end", C.End);
      return C.End;
    };

    // Re-assemble block-partitioned inputs this launch cannot consume in
    // place: a broadcast (or unsharded, or width-mismatched) consumer
    // needs the whole array — an all-gather onto every device when the
    // launch is sharded, onto device 0 alone otherwise.  These are exactly
    // the plan's TransferEdges, now costed on the copy engines.
    if (NumDev > 1)
      for (const KernelExp::KInput &In : K.Inputs) {
        auto PIt = PartitionedArrs.find(In.Arr);
        if (PIt == PartitionedArrs.end())
          continue;
        const shard::ShardInput *SI =
            DoShard ? KS->findInput(In.Arr) : nullptr;
        if (SI && SI->Class == shard::InputClass::Aligned &&
            PIt->second.Cuts == Cuts)
          continue; // consumed in place, block for block
        DistInfo DI = PIt->second;
        int64_t Bytes = InputBytes(In.Arr);
        int64_t W = DI.Cuts.empty() ? 1 : DI.Cuts.back().second;
        double AllReady = Mgr.readyAt(In.Arr);
        for (double Rd : DI.Ready)
          AllReady = std::max(AllReady, Rd);
        DG.syncHostClocks();
        double MaxEnd = AllReady;
        int NumDst = DoShard ? NumDev : 1;
        for (int Dst = 0; Dst < NumDst; ++Dst) {
          int64_t Own = Dst < static_cast<int>(DI.Cuts.size())
                            ? DI.Cuts[Dst].second - DI.Cuts[Dst].first
                            : 0;
          int64_t Miss = Bytes - (W > 0 ? Bytes / W * Own : 0);
          if (Miss <= 0)
            continue;
          MaxEnd = std::max(MaxEnd, InterDev(Dst, Miss, AllReady,
                                             "xfer:all-gather", In.Arr));
        }
        PartitionedArrs.erase(In.Arr);
        if (DoShard)
          ReplicatedArrs.insert(In.Arr);
        Mgr.setReady(In.Arr, MaxEnd);
        trace::counter("device.shard_gathers");
      }

    // Inputs whose representation was changed by the coalescing pass are
    // manifested by a transposition in memory, once per array (Section
    // 5.2): one extra launch plus a read and a semi-coalesced write of
    // every element.
    for (const KernelExp::KInput &In : K.Inputs) {
      if (isIdentityPerm(In.LayoutPerm) ||
          ManifestedTransposes.count(In.Arr))
        continue;
      auto It = Env.find(In.Arr);
      if (It == Env.end())
        continue;
      ManifestedTransposes.insert(In.Arr);
      int64_t Elems = It->second.numElems();
      int64_t Bytes = Elems * elemBytes(It->second.elemKind());
      // Tiled transpose: reads coalesced, writes ~2x segment traffic.
      int64_t Tx = 3 * Bytes / P.SegmentBytes + 1;
      Cost.GlobalTransactions += Tx;
      Cost.CoalescedTransactions += Tx; // tiled transposes stay coalesced
      Cost.GlobalAccesses += 2 * Elems;
      ++Cost.KernelLaunches;
      // A manifestation is a synthetic all-memory launch: cost it through
      // the model with transaction counters only (no warps simulated).
      CostReport TCost;
      TCost.GlobalTransactions = Tx;
      KernelProfile TProf;
      LaunchPrice TP = PriceLaunch(TCost, TProf);
      ChargeModelTotals(TP, TProf);
      double TCycles = TP.Selected;
      Cost.KernelCycles += TCycles;
      // Under the default model the engine occupancy is written as the
      // raw transaction term, not (launch + term) - launch: the two are
      // not bit-equal in floating point, and default timelines are pinned
      // byte-identical to the pre-CostModel simulator.
      double TExec = &CM == &CostModel::roofline()
                         ? Tx / P.GlobalTxPerCycle
                         : TCycles - P.LaunchCycles;
      ScheduledCmd TC =
          TL.kernel(Mgr.readyAt(In.Arr), P.LaunchCycles,
                    P.PipelinedLaunchFraction, TExec);
      Mgr.setReady(In.Arr, TC.End);
      LastKernelReady = TC.End;
      {
        trace::ScopedSpan TSpan("kernel:transpose", "device",
                                trace::kComputeEngineTid);
        TSpan.arg("array", In.Arr.str());
        TSpan.arg("cycles", TCycles);
        TSpan.arg("global_tx", Tx);
        TSpan.arg("coalesced_tx", Tx);
        TSpan.arg("scattered_tx", static_cast<int64_t>(0));
        TSpan.arg("sim_start", TC.Start);
        TSpan.arg("sim_end", TC.End);
      }
      if (Async && TC.OverlappedOtherEngine)
        TS.instant("engine-overlap", "device", trace::kComputeEngineTid);
      trace::counter("device.kernel_launches");
      trace::counter("device.global_tx", Tx);
      trace::counter("device.coalesced_tx", Tx);
    }

    // Upload inputs whose device copy is missing or stale.  The first
    // upload of a program input is excluded from the measured time, like
    // the paper's harness (and bypasses the timeline for the same
    // reason).  With dual residency a read-back buffer is still device
    // valid, so re-using it on the device costs nothing — the phantom
    // re-upload only exists in --sync mode.
    for (const KernelExp::KInput &In : K.Inputs) {
      if (!HostValid.count(In.Arr))
        continue;
      auto It = Env.find(In.Arr);
      if (It == Env.end())
        continue;
      if (Async && Mgr.deviceValid(In.Arr))
        continue;
      int64_t Bytes =
          It->second.numElems() * elemBytes(It->second.elemKind());
      if (!Mgr.bind(In.Arr, Bytes, 0))
        return CompilerError::deviceOOM(
            "device out of memory uploading " + In.Arr.str() + ": " +
            std::to_string(Bytes) + " bytes needed, " +
            std::to_string(MemCap - Mgr.liveBytes()) + " of " +
            std::to_string(MemCap) + " free (" +
            std::to_string(P.ReservedBytes) +
            " reserved by co-tenants)");
      Cost.TransferredBytes += Bytes;
      double Cycles = Bytes / P.TransferBytesPerCycle;
      const shard::ShardInput *UploadSI = DoShard ? KS->findInput(In.Arr)
                                                  : nullptr;
      if (UploadSI && UploadSI->Class == shard::InputClass::Aligned) {
        // Block-partitioned upload: each device's copy engine receives
        // only its own rows, in parallel.  The serial charge (the sum of
        // the block charges) equals the whole array's, so the serial-sum
        // bound is unchanged.
        DistInfo DI;
        DI.Cuts = Cuts;
        DI.Ready.assign(NumDev, 0);
        if (ParamNames.count(In.Arr)) {
          Cost.ExcludedTransferCycles += Cycles;
        } else {
          DG.syncHostClocks();
          double MaxEnd = 0;
          for (int D = 0; D < NumDev; ++D) {
            int64_t Len = Cuts[D].second - Cuts[D].first;
            if (Len <= 0)
              continue;
            int64_t BlockBytes = Bytes / ShardW * Len;
            double BCycles = BlockBytes / P.TransferBytesPerCycle;
            Cost.TransferCycles += BCycles;
            ScheduledCmd U = DG.dev(D).upload(BCycles);
            DI.Ready[D] = U.End;
            MaxEnd = std::max(MaxEnd, U.End);
            trace::ScopedSpan XSpan("xfer:upload", "device",
                                    trace::deviceCopyTid(D));
            XSpan.arg("array", In.Arr.str());
            XSpan.arg("bytes", BlockBytes);
            XSpan.arg("cycles", BCycles);
            XSpan.arg("sim_start", U.Start);
            XSpan.arg("sim_end", U.End);
          }
          Mgr.setReady(In.Arr, MaxEnd);
        }
        ReplicatedArrs.erase(In.Arr);
        PartitionedArrs[In.Arr] = DI;
        SyncMemStats();
        continue;
      }
      if (ParamNames.count(In.Arr)) {
        Cost.ExcludedTransferCycles += Cycles;
      } else {
        Cost.TransferCycles += Cycles;
        ScheduledCmd U = TL.upload(Cycles);
        Mgr.setReady(In.Arr, U.End);
        {
          trace::ScopedSpan XSpan("xfer:upload", "device",
                                  trace::kCopyEngineTid);
          XSpan.arg("array", In.Arr.str());
          XSpan.arg("bytes", Bytes);
          XSpan.arg("cycles", Cycles);
          XSpan.arg("sim_start", U.Start);
          XSpan.arg("sim_end", U.End);
        }
        if (Async && U.OverlappedOtherEngine)
          TS.instant("engine-overlap", "device", trace::kCopyEngineTid);
      }
      if (!Async)
        HostValid.erase(In.Arr);
      SyncMemStats();
    }

    // A sharded launch's remaining distribution fixups: broadcast inputs
    // that only device 0 holds are replicated dev0 -> all, and aligned
    // inputs produced whole on device 0 are scattered block by block.
    if (DoShard) {
      for (const KernelExp::KInput &In : K.Inputs) {
        const shard::ShardInput *SI = KS->findInput(In.Arr);
        if (!SI || PartitionedArrs.count(In.Arr) ||
            ReplicatedArrs.count(In.Arr))
          continue;
        int64_t Bytes = InputBytes(In.Arr);
        if (Bytes <= 0)
          continue;
        double SrcReady = Mgr.readyAt(In.Arr);
        DG.syncHostClocks();
        if (SI->Class == shard::InputClass::Broadcast) {
          double MaxEnd = SrcReady;
          for (int Dst = 1; Dst < NumDev; ++Dst)
            MaxEnd = std::max(MaxEnd, InterDev(Dst, Bytes, SrcReady,
                                               "xfer:broadcast", In.Arr));
          ReplicatedArrs.insert(In.Arr);
          Mgr.setReady(In.Arr, MaxEnd);
        } else {
          DistInfo DI;
          DI.Cuts = Cuts;
          DI.Ready.assign(NumDev, SrcReady);
          double MaxEnd = SrcReady;
          for (int Dst = 1; Dst < NumDev; ++Dst) {
            int64_t Len = Cuts[Dst].second - Cuts[Dst].first;
            if (Len <= 0)
              continue;
            int64_t BlockBytes = Bytes / ShardW * Len;
            double End = InterDev(Dst, BlockBytes, SrcReady, "xfer:scatter",
                                  In.Arr);
            DI.Ready[Dst] = End;
            MaxEnd = std::max(MaxEnd, End);
          }
          PartitionedArrs[In.Arr] = DI;
          Mgr.setReady(In.Arr, MaxEnd);
        }
      }
    }

    // The launch depends on every input's device copy being ready.
    double DepsReady = 0;
    for (const KernelExp::KInput &In : K.Inputs)
      DepsReady = std::max(DepsReady, Mgr.readyAt(In.Arr));

    // Per-device dependencies of a sharded launch: a block-partitioned
    // aligned input gates each device only on its own block; everything
    // else gates every device on the whole array.
    std::vector<double> DevDeps;
    if (DoShard) {
      DevDeps.assign(NumDev, 0);
      for (const KernelExp::KInput &In : K.Inputs) {
        auto PIt = PartitionedArrs.find(In.Arr);
        const shard::ShardInput *SI = KS->findInput(In.Arr);
        if (PIt != PartitionedArrs.end() && SI &&
            SI->Class == shard::InputClass::Aligned &&
            PIt->second.Cuts == Cuts) {
          for (int D = 0; D < NumDev; ++D)
            DevDeps[D] = std::max(
                DevDeps[D], D < static_cast<int>(PIt->second.Ready.size())
                                ? PIt->second.Ready[D]
                                : 0);
        } else {
          double Rd = Mgr.readyAt(In.Arr);
          for (int D = 0; D < NumDev; ++D)
            DevDeps[D] = std::max(DevDeps[D], Rd);
        }
      }
    }

    // Launch, retrying transient injected faults with exponential
    // simulated-cycle backoff.
    int Retries = 0;
    auto ChargeBackoff = [&] {
      ++Retries;
      ++Cost.RetriedLaunches;
      double Backoff = R.RetryBackoffCycles * std::ldexp(1.0, Retries - 1);
      Cost.RetryCycles += Backoff;
      // A retry serialises the whole group: every engine on every device
      // drains, then the host spins for the backoff before re-issuing.
      DG.barrierAll(Backoff);
      trace::counter("device.retries");
      size_t I = TS.instant("retry-backoff", "device");
      TS.spanArg(I, "cycles", Backoff);
    };

    const char *SpanName = K.Op == KernelExp::OpKind::ThreadBody
                               ? "kernel:threadbody"
                               : K.Op == KernelExp::OpKind::SegScan
                                     ? "kernel:segscan"
                                     : K.Op == KernelExp::OpKind::SegHist
                                           ? "kernel:seghist"
                                           : "kernel:segreduce";

    for (;;) {
      if (Plan.nextLaunchFails()) {
        ++Cost.FaultsInjected;
        trace::counter("device.faults");
        trace::TraceSession::global().instant("fault:launch-failed",
                                              "device");
        if (Retries >= R.MaxRetries)
          return CompilerError::transientFault(
              "kernel launch failed persistently (" +
              std::to_string(Retries + 1) + " transient faults, " +
              std::to_string(R.MaxRetries) + " retries exhausted)");
        ChargeBackoff();
        continue;
      }

      if (DoShard) {
        // ---- Sharded launch: one logical kernel over the device group.
        // Each device simulates only its own row block (with global
        // thread indices and addresses), launches on its own compute
        // engine, and the blocks are concatenated back in device order —
        // bit-identical to the unsharded result.
        DG.syncHostClocks();
        std::vector<int> ActiveDevs;
        std::vector<std::vector<Value>> DevVals;
        std::vector<double> KTimes;
        std::vector<LaunchPrice> KPrices;
        std::vector<KernelProfile> KProfs;
        std::vector<CostReport> KCosts;
        double MaxKTime = 0;
        int64_t SumOutBytes = 0;
        for (int D = 0; D < NumDev; ++D) {
          int64_t Len = Cuts[D].second - Cuts[D].first;
          if (Len <= 0)
            continue;
          CostReport KCost;
          int64_t OutBudget = MemCap > 0 ? MemCap - Mgr.liveBytes() : -1;
          auto Sim = simulateKernel(P, K, Env, KCost, OutBudget,
                                    Cuts[D].first, Len);
          if (!Sim) // evaluation errors / mid-kernel OOM: not transient
            return Sim.getError();
          SumOutBytes += Sim->OutBytes;
          // Per-device working set: aligned inputs contribute their row
          // block, broadcast inputs their full size, plus this device's
          // output block.
          int64_t WS = Sim->OutBytes;
          for (const KernelExp::KInput &In : K.Inputs) {
            int64_t B = InputBytes(In.Arr);
            const shard::ShardInput *SI = KS->findInput(In.Arr);
            if (SI && SI->Class == shard::InputClass::Aligned && ShardW > 0)
              WS += B / ShardW * Len;
            else
              WS += B;
          }
          DG.noteWorkingSet(D, WS);
          LaunchPrice LP = PriceLaunch(KCost, Sim->Profile);
          double KTime = LP.Selected;
          ActiveDevs.push_back(D);
          DevVals.push_back(std::move(Sim->Outputs));
          KTimes.push_back(KTime);
          KPrices.push_back(LP);
          KProfs.push_back(Sim->Profile);
          KCosts.push_back(KCost);
          MaxKTime = std::max(MaxKTime, KTime);
        }
        Cost.PeakDemandBytes =
            std::max(Cost.PeakDemandBytes, Mgr.liveBytes() + SumOutBytes);

        // The per-kernel watchdog sees the slowest shard: the logical
        // kernel is only done when every device's block is.
        if (P.WatchdogKernelCycles > 0 && MaxKTime > P.WatchdogKernelCycles) {
          ++Cost.WatchdogKills;
          ++Cost.KernelLaunches;
          Cost.KernelCycles += P.WatchdogKernelCycles;
          TL.kernel(DepsReady, 0, 0, P.WatchdogKernelCycles);
          trace::counter("device.kernel_launches");
          trace::counter("device.watchdog_kills");
          trace::TraceSession::global().instant("watchdog-kill", "device");
          return CompilerError::watchdog(
              "kernel killed by watchdog: " +
              std::to_string(static_cast<int64_t>(MaxKTime)) +
              " simulated cycles exceed the per-kernel budget of " +
              std::to_string(static_cast<int64_t>(P.WatchdogKernelCycles)));
        }

        ++Cost.ShardedLaunches;
        trace::counter("device.sharded_launches");
        double GroupEnd = 0;
        PendingOutDist.Cuts = Cuts;
        PendingOutDist.Ready.assign(NumDev, 0);
        for (size_t SId = 0; SId < ActiveDevs.size(); ++SId) {
          int D = ActiveDevs[SId];
          const CostReport &KCost = KCosts[SId];
          double KTime = KTimes[SId];
          Cost.KernelCycles += KTime;
          ++Cost.KernelLaunches;
          ScheduledCmd KC =
              DG.dev(D).kernel(DevDeps[D], P.LaunchCycles,
                               P.PipelinedLaunchFraction,
                               KTime - P.LaunchCycles);
          PendingOutDist.Ready[D] = KC.End;
          GroupEnd = std::max(GroupEnd, KC.End);
          ChargeModelTotals(KPrices[SId], KProfs[SId]);
          double TiledTx = static_cast<double>(KCost.TiledElementBytes) /
                           std::max(1, P.tileWidth()) / P.SegmentBytes;
          int64_t LaunchGlobalTx =
              KCost.GlobalTransactions + static_cast<int64_t>(TiledTx);
          int64_t LaunchCoalescedTx =
              KCost.CoalescedTransactions + static_cast<int64_t>(TiledTx);
          Cost.GlobalTransactions += LaunchGlobalTx;
          Cost.CoalescedTransactions += LaunchCoalescedTx;
          Cost.ScatteredTransactions += KCost.ScatteredTransactions;
          Cost.GlobalAccesses += KCost.GlobalAccesses;
          Cost.LocalAccesses += KCost.LocalAccesses;
          Cost.PrivateAccesses += KCost.PrivateAccesses;
          Cost.ComputeOps += KCost.ComputeOps;
          Cost.TiledElementTouches += KCost.TiledElementTouches;
          Cost.TiledElementBytes += KCost.TiledElementBytes;
          Cost.AtomicTransactions += KCost.AtomicTransactions;
          Cost.AtomicConflicts += KCost.AtomicConflicts;
          {
            trace::ScopedSpan KSpan(SpanName, "device",
                                    trace::deviceComputeTid(D));
            KSpan.arg("cycles", KTime);
            KSpan.arg("cycles_roofline", KPrices[SId].Roofline);
            KSpan.arg("cycles_pipeline", KPrices[SId].Pipeline);
            KSpan.arg("sim_start", KC.Start);
            KSpan.arg("sim_end", KC.End);
            KSpan.arg("shard_device", D);
            KSpan.arg("shard_rows", Cuts[D].second - Cuts[D].first);
            KSpan.arg("global_tx", LaunchGlobalTx);
            KSpan.arg("coalesced_tx", LaunchCoalescedTx);
            KSpan.arg("scattered_tx", KCost.ScatteredTransactions);
            KSpan.arg("local_accesses", KCost.LocalAccesses);
            KSpan.arg("private_accesses", KCost.PrivateAccesses);
            KSpan.arg("compute_ops", KCost.ComputeOps);
            if (KCost.AtomicTransactions || KCost.AtomicConflicts) {
              KSpan.arg("atomic_tx", KCost.AtomicTransactions);
              KSpan.arg("atomic_conflicts", KCost.AtomicConflicts);
            }
          }
          trace::counter("device.kernel_launches");
          trace::counter("device.global_tx", LaunchGlobalTx);
          trace::counter("device.coalesced_tx", LaunchCoalescedTx);
          trace::counter("device.scattered_tx", KCost.ScatteredTransactions);
          if (KCost.AtomicTransactions || KCost.AtomicConflicts) {
            trace::counter("device.atomic_tx", KCost.AtomicTransactions);
            trace::counter("device.atomic_conflicts",
                           KCost.AtomicConflicts);
          }
        }
        LastKernelReady = GroupEnd;

        // Detected result corruption: the whole logical launch must be
        // recomputed (one fault-plan draw, like the single-device path).
        if (Plan.nextResultCorrupted()) {
          ++Cost.FaultsInjected;
          trace::counter("device.faults");
          trace::TraceSession::global().instant("fault:result-corrupted",
                                                "device");
          if (Retries >= R.MaxRetries)
            return CompilerError::transientFault(
                "kernel results corrupted persistently (" +
                std::to_string(R.MaxRetries) + " retries exhausted)");
          ChargeBackoff();
          continue;
        }

        // A sharded histogram yields one full-width partial per device
        // (device 0 primed from the destination, the rest from the
        // neutral element).  Merging folds them with the operator in
        // device order — bit-identical to the unsharded result for the
        // commutative-and-associative operators the verifier admits —
        // and the merged array lives whole on device 0, so there is no
        // pending output distribution to re-gather later.
        if (K.Op == KernelExp::OpKind::SegHist) {
          static const Program Empty;
          Interpreter MergeInterp(Empty);
          std::vector<PrimValue> Merged = DevVals.front()[0].flat();
          ScalarKind EK = DevVals.front()[0].elemKind();
          int64_t EB = elemBytes(EK);
          double MergeReady = GroupEnd;
          for (size_t SId = 1; SId < ActiveDevs.size(); ++SId) {
            const std::vector<PrimValue> &Part = DevVals[SId][0].flat();
            for (size_t B = 0; B < Merged.size(); ++B) {
              std::vector<Value> MArgs{Value::scalar(Merged[B]),
                                       Value::scalar(Part[B])};
              auto Comb = MergeInterp.evalLambda(K.ReduceFn, MArgs, {});
              if (!Comb)
                return Comb.getError();
              if (Comb->size() != 1 || !(*Comb)[0].isScalar())
                return CompilerError(
                    "seghist merge operator must produce one scalar");
              Merged[B] = (*Comb)[0].getScalar();
            }
            // Device 0 pulls each partial over the interconnect before
            // folding it in.
            double End = InterDev(
                0, static_cast<int64_t>(Merged.size()) * EB,
                PendingOutDist.Ready[ActiveDevs[SId]], "xfer:hist-merge",
                K.HistDest);
            MergeReady = std::max(MergeReady, End);
          }
          PendingOutDist.Ready.clear();
          PendingOutDist.Cuts.clear();
          LastKernelReady = std::max(LastKernelReady, MergeReady);
          std::vector<int64_t> Shape = DevVals.front()[0].shape();
          std::vector<Value> Out;
          Out.push_back(
              Value::array(EK, std::move(Shape), std::move(Merged)));
          int64_t OutBytes = Out[0].numElems() * elemBytes(Out[0].elemKind());
          if (!Mgr.wouldFit(OutBytes))
            return CompilerError::deviceOOM(
                "device out of memory allocating kernel outputs: " +
                std::to_string(OutBytes) + " bytes needed, " +
                std::to_string(MemCap - Mgr.liveBytes()) + " of " +
                std::to_string(MemCap) + " free (" +
                std::to_string(P.ReservedBytes) +
                " reserved by co-tenants)");
          return Out;
        }

        // Stitch the per-device blocks back together along the outer
        // dimension; device order is row order.
        size_t NumRes = DevVals.front().size();
        std::vector<Value> Out;
        for (size_t J = 0; J < NumRes; ++J) {
          std::vector<int64_t> Shape = DevVals.front()[J].shape();
          ScalarKind EK = DevVals.front()[J].elemKind();
          std::vector<PrimValue> Data;
          for (const std::vector<Value> &DV : DevVals) {
            const std::vector<PrimValue> &Flat = DV[J].flat();
            Data.insert(Data.end(), Flat.begin(), Flat.end());
          }
          if (!Shape.empty())
            Shape[0] = ShardW;
          Out.push_back(Value::array(EK, std::move(Shape), std::move(Data)));
        }

        int64_t OutBytes = 0;
        for (const Value &V : Out)
          if (V.isArray())
            OutBytes += V.numElems() * elemBytes(V.elemKind());
        if (!Mgr.wouldFit(OutBytes))
          return CompilerError::deviceOOM(
              "device out of memory allocating kernel outputs: " +
              std::to_string(OutBytes) + " bytes needed, " +
              std::to_string(MemCap - Mgr.liveBytes()) + " of " +
              std::to_string(MemCap) + " free (" +
              std::to_string(P.ReservedBytes) +
              " reserved by co-tenants)");
        HavePendingOutDist = true;
        return Out;
      }

      trace::ScopedSpan KSpan(SpanName, "device", trace::kComputeEngineTid);
      CostReport KCost;
      int64_t OutBudget = MemCap > 0 ? MemCap - Mgr.liveBytes() : -1;
      auto Sim = simulateKernel(P, K, Env, KCost, OutBudget);
      if (!Sim) // evaluation errors and mid-kernel OOM are not transient
        return Sim.getError();

      // Transient demand of this launch: the inputs are still live while
      // the results materialise, so capacity must briefly hold both.  The
      // residency peaks (PeakDeviceBytes, PlannedPeakBytes) never see this
      // overlap — the serving layer's admission reservations are taken
      // from the demand peak, which does.
      Cost.PeakDemandBytes =
          std::max(Cost.PeakDemandBytes, Mgr.liveBytes() + Sim->OutBytes);

      // Tiled traffic: each staged element is read once per tile from
      // global memory (coalesced), instead of once per thread.  The byte
      // count carries each element's real width — the old formula
      // hard-coded 4-byte elements and undercharged f64 tiles by 2x.
      // The cost models amortise by the same width internally; this copy
      // only feeds the transaction-counter merge below.
      double TiledTx =
          static_cast<double>(KCost.TiledElementBytes) /
          std::max(1, P.tileWidth()) / P.SegmentBytes;

      LaunchPrice LP = PriceLaunch(KCost, Sim->Profile);
      double KTime = LP.Selected;

      // A kernel over its cycle budget is killed deterministically; the
      // cycles burned up to the kill point stay charged.
      if (P.WatchdogKernelCycles > 0 && KTime > P.WatchdogKernelCycles) {
        ++Cost.WatchdogKills;
        ++Cost.KernelLaunches;
        Cost.KernelCycles += P.WatchdogKernelCycles;
        // The killed kernel still occupied the compute engine until the
        // kill point.
        TL.kernel(DepsReady, 0, 0, P.WatchdogKernelCycles);
        // The span records the cycles actually charged, not the full
        // would-have-been kernel time, so span cycles still sum to
        // KernelCycles.
        KSpan.arg("cycles", P.WatchdogKernelCycles);
        KSpan.arg("killed", static_cast<int64_t>(1));
        trace::counter("device.kernel_launches");
        trace::counter("device.watchdog_kills");
        trace::TraceSession::global().instant("watchdog-kill", "device");
        return CompilerError::watchdog(
            "kernel killed by watchdog: " +
            std::to_string(static_cast<int64_t>(KTime)) +
            " simulated cycles exceed the per-kernel budget of " +
            std::to_string(static_cast<int64_t>(P.WatchdogKernelCycles)));
      }

      Cost.KernelCycles += KTime;
      ++Cost.KernelLaunches;
      ChargeModelTotals(LP, Sim->Profile);
      ScheduledCmd KC = TL.kernel(DepsReady, P.LaunchCycles,
                                  P.PipelinedLaunchFraction,
                                  KTime - P.LaunchCycles);
      LastKernelReady = KC.End;
      int64_t LaunchGlobalTx =
          KCost.GlobalTransactions + static_cast<int64_t>(TiledTx);
      int64_t LaunchCoalescedTx =
          KCost.CoalescedTransactions + static_cast<int64_t>(TiledTx);
      Cost.GlobalTransactions += LaunchGlobalTx;
      Cost.CoalescedTransactions += LaunchCoalescedTx;
      Cost.ScatteredTransactions += KCost.ScatteredTransactions;
      Cost.GlobalAccesses += KCost.GlobalAccesses;
      Cost.LocalAccesses += KCost.LocalAccesses;
      Cost.PrivateAccesses += KCost.PrivateAccesses;
      Cost.ComputeOps += KCost.ComputeOps;
      Cost.TiledElementTouches += KCost.TiledElementTouches;
      Cost.TiledElementBytes += KCost.TiledElementBytes;
      Cost.AtomicTransactions += KCost.AtomicTransactions;
      Cost.AtomicConflicts += KCost.AtomicConflicts;

      KSpan.arg("cycles", KTime);
      KSpan.arg("cycles_roofline", LP.Roofline);
      KSpan.arg("cycles_pipeline", LP.Pipeline);
      KSpan.arg("sim_start", KC.Start);
      KSpan.arg("sim_end", KC.End);
      KSpan.arg("global_tx", LaunchGlobalTx);
      KSpan.arg("coalesced_tx", LaunchCoalescedTx);
      KSpan.arg("scattered_tx", KCost.ScatteredTransactions);
      KSpan.arg("local_accesses", KCost.LocalAccesses);
      KSpan.arg("private_accesses", KCost.PrivateAccesses);
      KSpan.arg("compute_ops", KCost.ComputeOps);
      if (KCost.AtomicTransactions || KCost.AtomicConflicts) {
        KSpan.arg("atomic_tx", KCost.AtomicTransactions);
        KSpan.arg("atomic_conflicts", KCost.AtomicConflicts);
      }
      trace::counter("device.kernel_launches");
      trace::counter("device.global_tx", LaunchGlobalTx);
      trace::counter("device.coalesced_tx", LaunchCoalescedTx);
      trace::counter("device.scattered_tx", KCost.ScatteredTransactions);
      if (KCost.AtomicTransactions || KCost.AtomicConflicts) {
        trace::counter("device.atomic_tx", KCost.AtomicTransactions);
        trace::counter("device.atomic_conflicts", KCost.AtomicConflicts);
      }
      if (Async && KC.OverlappedOtherEngine)
        TS.instant("engine-overlap", "device", trace::kComputeEngineTid);

      // Detected result corruption (ECC-style): the kernel ran — and was
      // charged — but its result must be recomputed.
      if (Plan.nextResultCorrupted()) {
        ++Cost.FaultsInjected;
        trace::counter("device.faults");
        trace::TraceSession::global().instant("fault:result-corrupted",
                                              "device");
        if (Retries >= R.MaxRetries)
          return CompilerError::transientFault(
              "kernel results corrupted persistently (" +
              std::to_string(R.MaxRetries) + " retries exhausted)");
        ChargeBackoff();
        continue;
      }

      // The results occupy device memory until released; the capacity
      // check is made here against the lump sum, the per-name bindings
      // happen in OnBind once the interpreter has bound the pattern.
      int64_t OutBytes = 0;
      for (const Value &V : Sim->Outputs)
        if (V.isArray())
          OutBytes += V.numElems() * elemBytes(V.elemKind());
      if (!Mgr.wouldFit(OutBytes))
        return CompilerError::deviceOOM(
            "device out of memory allocating kernel outputs: " +
            std::to_string(OutBytes) + " bytes needed, " +
            std::to_string(MemCap - Mgr.liveBytes()) + " of " +
            std::to_string(MemCap) + " free (" +
            std::to_string(P.ReservedBytes) +
            " reserved by co-tenants)");
      return std::move(Sim->Outputs);
    }
  };

  Interpreter I(Prog, Opts);
  auto Out = I.runFunction(Fun, Args);
  if (!Out)
    return Out.getError();

  // Download results that are still device-resident (excluded from the
  // measured time, like the paper's harness).  A variable returned in
  // several result positions is one buffer and downloads once — the old
  // loop charged the transfer once per position.
  NameSet Downloaded;
  for (size_t J = 0; J < F->FBody.Result.size(); ++J) {
    const SubExp &RS = F->FBody.Result[J];
    if (RS.isConst())
      continue;
    if (!Downloaded.insert(RS.getVar()).second)
      continue;
    if (HostValid.count(RS.getVar()))
      continue;
    const Value &V = (*Out)[J];
    if (!V.isArray())
      continue;
    int64_t Bytes = V.numElems() * elemBytes(V.elemKind());
    Cost.TransferredBytes += Bytes;
    Cost.ExcludedTransferCycles += Bytes / P.TransferBytesPerCycle;
  }

  Cost.HostCycles = Cost.HostOps * P.HostCyclesPerOp;
  double Serial = Cost.KernelCycles + Cost.HostCycles +
                  Cost.TransferCycles + Cost.RetryCycles;
  SyncMemStats();
  Cost.NumDevices = NumDev;
  if (NumDev > 1)
    Cost.PerDevicePeakBytes = DG.peakBytes();
  if (Async) {
    // Makespan <= serial sum holds by construction; the min() only guards
    // against float-summation noise between the two accumulations.  With
    // several devices the group makespan is the max over the per-device
    // makespans and the busy counters sum over the group.
    Cost.TotalCycles = std::min(DG.makespan(), Serial);
    Cost.CopyEngineBusy = DG.copyBusy();
    Cost.ComputeEngineBusy = DG.computeBusy();
    Cost.OverlapSavedCycles = std::max(0.0, Serial - Cost.TotalCycles);
  } else {
    Cost.TotalCycles = Serial;
  }

  RunResult RR;
  RR.Outputs = Out.take();
  RR.Cost = Cost;
  return RR;
}

} // namespace

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
  auto Res = runDeviceAttempt(P, R, Plan, Cost, Prog, Fun, Args, FP, SP,
                              SP ? Devices : 1);
  if (FP) {
    trace::counter("device.planned_peak_bytes", Cost.PlannedPeakBytes);
    trace::counter("device.hoisted_allocs", Cost.HoistedAllocs);
    trace::counter("device.reused_blocks", Cost.ReusedBlocks);
  }
  if (Res) {
    Span.arg("cycles", Res->Cost.TotalCycles);
    return Res;
  }

  // Only persistent *device* failures degrade to the interpreter; compile
  // errors and plain runtime errors (bad index, shape mismatch) would fail
  // identically there, so they surface directly.
  CompilerError DevErr = Res.getError();
  bool DeviceFailure = DevErr.Kind == ErrorKind::DeviceOOM ||
                       DevErr.Kind == ErrorKind::Watchdog ||
                       DevErr.Kind == ErrorKind::TransientFault;
  if (!DeviceFailure || !R.InterpFallback)
    return DevErr;
  trace::TraceSession::global().instant("interp-fallback", "device");

  // Graceful degradation: recompute the whole run on the reference
  // interpreter.  The aborted device work stays charged in the cost
  // report, and every interpreted step is charged as a host op.
  InterpOptions IO;
  IO.ConsumeOnUpdate = true;
  IO.OnExp = [&](const Exp &, const NameMap<Value> &) { ++Cost.HostOps; };
  Interpreter I(Prog, IO);
  auto Out = I.runFunction(Fun, Args);
  if (!Out)
    return CompilerError::fallbackExhausted(
        "device failed (" + DevErr.Message +
        ") and the interpreter fallback also failed: " +
        Out.getError().Message);

  Cost.HostCycles = Cost.HostOps * P.HostCyclesPerOp;
  Cost.TotalCycles = Cost.KernelCycles + Cost.HostCycles +
                     Cost.TransferCycles + Cost.RetryCycles;

  RunResult RR;
  RR.Outputs = Out.take();
  RR.Cost = Cost;
  RR.InterpFallback = true;
  RR.FallbackError = DevErr;
  return RR;
}
