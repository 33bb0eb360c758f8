//===- ShardPlan.h - Multi-device kernel sharding ---------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-device sharding stage: the flattening pipeline (Section 5)
/// produces flat, regular kernels whose outer grid dimension is a perfect
/// data-parallel map — precisely the property that lets work be carved
/// mechanically across N simulated devices.  planShards assigns every
/// top-level kernel either a contiguous block partition of its outer grid
/// dimension (device d owns rows [floor(dW/N), floor((d+1)W/N))) or a
/// reason it must run whole on device 0, classifies each kernel input as
///
///  * Aligned   — every thread-body use indexes the array with the outer
///    thread index first, the outer extent equals the grid width, and the
///    layout is untouched, so device d only needs its own row block; or
///  * Broadcast — anything else (conservative): every device needs the
///    whole array,
///
/// and records explicit inter-device transfer edges for values produced
/// partitioned but consumed whole (an all-gather costed on the copy
/// engines) or observed by host code (a host gather).
///
/// The plan holds no device count: which kernels can be cut, and what
/// moves between devices, are properties of the program, while the count
/// is a property of the run.  driver/Compiler runs planShards once after
/// memory planning, check/VerifyShardPlan re-derives the decisions to
/// reject unsound plans (unshardable kernels, wrong widths or input
/// classes, missing boundary transfers), and gpusim executes the one plan
/// on a DeviceGroup of any size, cutting each launch with blockCuts.  The
/// analyses (analyseShardability, deriveTransfers, derivePeakBytes) are
/// exposed separately so the verifier never trusts the planner's
/// bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_SHARD_SHARDPLAN_H
#define FUTHARKCC_SHARD_SHARDPLAN_H

#include "ir/IR.h"
#include "ir/Name.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace fut {
namespace shard {

/// How a kernel input is distributed when the kernel is sharded.
enum class InputClass : uint8_t {
  Aligned,  ///< Device d holds only its own block of rows.
  Broadcast ///< Every device holds the full array.
};

const char *inputClassName(InputClass C);

struct ShardInput {
  VName Arr;
  InputClass Class = InputClass::Broadcast;
};

/// The sharding decision for one kernel (kernels are numbered in the same
/// statement-walk order the memory planner uses; thread bodies are
/// leaves).  Independent of the device count.
struct KernelShard {
  int KernelId = 0;
  bool Sharded = false;
  std::string WhyNot; ///< Reason when not sharded.
  /// Histogram kernels shard along the input-element dimension, but every
  /// device accumulates into a full-width partial that must be folded with
  /// the operator (device order) rather than concatenated: the outputs are
  /// replicated, not block-partitioned, and the plan carries explicit
  /// merge edges instead of registering them as partitioned values.
  bool HistMerge = false;
  SubExp Width;       ///< Outer grid dimension (valid when Sharded).
  int64_t ConstWidth = -1; ///< Constant outer width; -1 when symbolic.
  std::vector<ShardInput> Inputs;
  std::vector<VName> Outputs; ///< Array outputs, partitioned along dim 0.

  const ShardInput *findInput(const VName &N) const {
    for (const ShardInput &SI : Inputs)
      if (SI.Arr == N)
        return &SI;
    return nullptr;
  }
};

/// An explicit inter-device data movement: \p Arr was produced partitioned
/// by kernel \p ProducerKernel and is consumed whole by kernel
/// \p ConsumerKernel (an all-gather), or by host code when ConsumerKernel
/// is -1 (a host gather).
struct TransferEdge {
  VName Arr;
  int ProducerKernel = -1;
  int ConsumerKernel = -1; ///< -1: gathered for host observation.
  int64_t Bytes = -1;      ///< Static array size; -1 when symbolic.
};

struct FunShardPlan {
  std::string Fun;
  std::vector<KernelShard> Kernels;
  std::vector<TransferEdge> Transfers;

  const KernelShard *kernel(int Id) const {
    return Id >= 0 && Id < static_cast<int>(Kernels.size()) ? &Kernels[Id]
                                                            : nullptr;
  }
};

struct ShardPlan {
  std::vector<FunShardPlan> Funs;

  const FunShardPlan *forFun(const std::string &Name) const {
    for (const FunShardPlan &FP : Funs)
      if (FP.Fun == Name)
        return &FP;
    return nullptr;
  }

  /// Stable textual dump of the plan run on \p Devices devices of \p P,
  /// the program it was planned for (the --print-shard-plan format,
  /// pinned by a golden test): deterministic order, no pointers, no
  /// unordered iteration.  Constant widths print their blockCuts and each
  /// function its derivePeakBytes, both computed here for \p Devices.
  std::string str(const Program &P, int Devices) const;
};

/// The canonical contiguous block partition of [0, Width) across
/// \p Devices: device d owns [floor(d*W/N), floor((d+1)*W/N)).  Every
/// component (the simulator's launches, the per-device peaks, the plan
/// dump) derives cuts through this one function so ownership can never
/// disagree.
std::vector<std::pair<int64_t, int64_t>> blockCuts(int64_t Width,
                                                   int Devices);

/// Walks every kernel statement of \p F in the same statement order as the
/// memory planner's walk (recursing through loop/branch bodies; kernel
/// thread bodies are leaves), numbering kernels from 0.  \p TopLevel is
/// true for kernels bound directly in the function body — only those are
/// sharding candidates.
void forEachKernel(
    const FunDef &F,
    const std::function<void(const KernelExp &, const Stm &, int Id,
                             bool TopLevel)> &Fn);

/// The shared planner/verifier analysis of one kernel: whether its outer
/// grid dimension can be block-partitioned, and how each input must be
/// distributed.  The result's KernelId is left 0 for the caller to set.
KernelShard analyseShardability(const KernelExp &K, const Stm &S,
                                bool TopLevel);

/// Re-derives the transfer edges the sharding decisions in \p Kernels
/// require: partitioned values consumed broadcast (or by an unsharded
/// kernel, or under a different width) need an all-gather; partitioned
/// values observed by host code or returned need a host gather.  Used by
/// both planShards and the verifier.
std::vector<TransferEdge>
deriveTransfers(const FunDef &F, const std::vector<KernelShard> &Kernels);

/// Statically derives each device's peak live bytes under the plan:
/// block-resident arrays (aligned inputs and never-gathered sharded
/// outputs) contribute a proportional block share, gathered/broadcast
/// arrays contribute their full size on every device, everything else
/// lives whole on device 0.  Any symbolic live size makes every entry -1.
std::vector<int64_t>
derivePeakBytes(const FunDef &F, const std::vector<KernelShard> &Kernels,
                const std::vector<TransferEdge> &Transfers, int Devices);

/// Plans every function of a flattened program.  Pure and deterministic:
/// the same program always yields the same plan.
ShardPlan planShards(const Program &P);

} // namespace shard
} // namespace fut

#endif // FUTHARKCC_SHARD_SHARDPLAN_H
