//===- ShardPlan.cpp - Multi-device kernel sharding -----------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardPlan.h"

#include "ir/Traversal.h"
#include "mem/MemPlan.h"

#include <algorithm>
#include <sstream>

using namespace fut;
using namespace fut::shard;

namespace {

/// Byte size when every dimension is constant; -1 when symbolic.
int64_t staticBytes(const Type &Ty) {
  int64_t N = 1;
  for (const Dim &D : Ty.shape()) {
    if (!D.isConst())
      return -1;
    N *= D.getConst().asInt64();
  }
  return N * elemBytes(Ty.elemKind());
}

bool isIdentityPerm(const std::vector<int> &Perm) {
  for (size_t I = 0; I < Perm.size(); ++I)
    if (Perm[I] != static_cast<int>(I))
      return false;
  return true;
}

/// True when every use of \p Arr inside \p B is an IndexExp whose first
/// index is the outer thread index — the condition under which a device
/// only ever touches its own row block.  The thread index is tracked
/// through scalar let-rebinds (`let i = tid`), in statement order, so an
/// index through such an alias still classifies as aligned.  Anything
/// else (slices, sequentialised SOACs over the array, uses inside nested
/// control flow, returning the array) is conservatively non-aligned.
bool allUsesAligned(const Body &B, const VName &Arr, const VName &Tid0) {
  NameSet TidAliases;
  TidAliases.insert(Tid0);
  auto IsTid = [&](const SubExp &SE) {
    return SE.isVar() && TidAliases.count(SE.getVar());
  };
  for (const Stm &S : B.Stms) {
    const Exp &E = *S.E;
    if (const auto *SEE = expDynCast<SubExpExp>(&E)) {
      if (SEE->Val.isVar() && SEE->Val.getVar() == Arr)
        return false; // Rebinding the array itself escapes the block view.
      if (S.Pat.size() == 1 && IsTid(SEE->Val))
        TidAliases.insert(S.Pat[0].Name);
      continue;
    }
    if (const auto *IX = expDynCast<IndexExp>(&E)) {
      if (IX->Arr == Arr && (IX->Indices.empty() || !IsTid(IX->Indices[0])))
        return false;
      continue; // Index positions are scalars and cannot use the array.
    }
    NameSet FV = freeVarsInExp(E);
    if (FV.count(Arr))
      return false;
  }
  for (const SubExp &R : B.Result)
    if (R.isVar() && R.getVar() == Arr)
      return false;
  return true;
}

} // namespace

const char *fut::shard::inputClassName(InputClass C) {
  return C == InputClass::Aligned ? "aligned" : "broadcast";
}

std::vector<std::pair<int64_t, int64_t>>
fut::shard::blockCuts(int64_t Width, int Devices) {
  int N = std::max(1, Devices);
  int64_t W = std::max<int64_t>(0, Width);
  std::vector<std::pair<int64_t, int64_t>> Cuts;
  Cuts.reserve(N);
  for (int D = 0; D < N; ++D)
    Cuts.emplace_back(W * D / N, W * (D + 1) / N);
  return Cuts;
}

void fut::shard::forEachKernel(
    const FunDef &F,
    const std::function<void(const KernelExp &, const Stm &, int Id,
                             bool TopLevel)> &Fn) {
  int Id = 0;
  std::function<void(const Body &, bool)> Walk = [&](const Body &B,
                                                     bool Top) {
    for (const Stm &S : B.Stms) {
      if (const auto *K = expDynCast<KernelExp>(S.E.get())) {
        Fn(*K, S, Id++, Top);
        continue;
      }
      forEachChildBody(*S.E,
                       [&](const Body &Inner) { Walk(Inner, false); });
    }
  };
  Walk(F.FBody, true);
}

KernelShardability fut::shard::analyseShardability(const KernelExp &K,
                                                   const Stm &S,
                                                   bool TopLevel) {
  KernelShardability R;
  for (const Param &Prm : S.Pat)
    if (Prm.Ty.isArray())
      R.Outputs.push_back(Prm.Name);
  for (const KernelExp::KInput &In : K.Inputs)
    R.Inputs.push_back({In.Arr, InputClass::Broadcast});

  if (!TopLevel) {
    R.WhyNot = "inside host control flow";
    return R;
  }
  if (K.GridDims.empty()) {
    // A gridless segmented kernel is one big reduction/scan over a single
    // segment: there is no outer map dimension to cut.
    R.WhyNot = "gridless segmented reduction";
    return R;
  }

  R.Sharded = true;
  R.Width = K.GridDims[0];
  if (R.Width.isConst())
    R.ConstWidth = R.Width.getConst().asInt64();

  // Histograms shard along the input-element dimension; every device
  // scatters into its own full-width partial, later folded with the
  // operator.  The destination is read-modify-written at data-dependent
  // bins, never by the thread index, so it must be resident whole on
  // every device — forced Broadcast even though it has no thread-body
  // uses that would disqualify it below.
  R.HistMerge = K.Op == KernelExp::OpKind::SegHist;

  const VName &Tid0 = K.ThreadIndices[0];
  for (size_t I = 0; I < K.Inputs.size(); ++I) {
    const KernelExp::KInput &In = K.Inputs[I];
    if (R.HistMerge && In.Arr == K.HistDest)
      continue;
    bool Aligned = In.Ty.isArray() && In.Ty.outerDim() == R.Width &&
                   !In.Tiled && isIdentityPerm(In.LayoutPerm) &&
                   allUsesAligned(K.ThreadBody, In.Arr, Tid0);
    if (Aligned)
      R.Inputs[I].Class = InputClass::Aligned;
  }
  return R;
}

std::vector<TransferEdge>
fut::shard::deriveTransfers(const FunDef &F,
                            const std::vector<KernelShard> &Kernels) {
  std::vector<TransferEdge> Out;

  struct PartInfo {
    int Producer = -1;
    SubExp Width;
    int64_t Bytes = -1;
  };
  NameMap<PartInfo> Part;
  std::vector<VName> PartOrder; // Deterministic gather order.

  auto Gather = [&](const VName &N, int Consumer) {
    auto It = Part.find(N);
    TransferEdge E;
    E.Arr = N;
    E.ProducerKernel = It->second.Producer;
    E.ConsumerKernel = Consumer;
    E.Bytes = It->second.Bytes;
    Out.push_back(std::move(E));
    Part.erase(It);
  };

  int Id = 0;
  std::function<void(const Body &)> Walk = [&](const Body &B) {
    for (const Stm &S : B.Stms) {
      if (const auto *K = expDynCast<KernelExp>(S.E.get())) {
        const KernelShard &KS = Kernels[Id];
        for (const KernelExp::KInput &In : K->Inputs) {
          auto It = Part.find(In.Arr);
          if (It == Part.end())
            continue;
          const ShardInput *SI = KS.findInput(In.Arr);
          bool AlignedOk = KS.Sharded && SI &&
                           SI->Class == InputClass::Aligned &&
                           It->second.Width == KS.Width;
          if (!AlignedOk)
            Gather(In.Arr, Id); // All-gather before this kernel.
        }
        if (KS.Sharded && KS.HistMerge) {
          // Histogram outputs are full-width partials replicated per
          // device, not block partitions: the plan records an explicit
          // merge edge (producer == consumer) instead of registering the
          // value as partitioned, and the folded result lives whole on
          // device 0 afterwards.
          for (const Param &Prm : S.Pat) {
            if (!Prm.Ty.isArray())
              continue;
            TransferEdge E;
            E.Arr = Prm.Name;
            E.ProducerKernel = Id;
            E.ConsumerKernel = Id;
            E.Bytes = staticBytes(Prm.Ty);
            Out.push_back(std::move(E));
          }
        } else if (KS.Sharded) {
          for (const Param &Prm : S.Pat) {
            if (!Prm.Ty.isArray())
              continue;
            if (!Part.count(Prm.Name))
              PartOrder.push_back(Prm.Name);
            Part[Prm.Name] =
                PartInfo{Id, KS.Width, staticBytes(Prm.Ty)};
          }
        }
        ++Id;
        continue;
      }
      // A host statement (including everything nested inside a loop or
      // branch it heads) observes array contents: any partitioned value
      // it touches must be gathered back first.
      NameSet FV = freeVarsInExp(*S.E);
      for (const VName &N : PartOrder)
        if (Part.count(N) && FV.count(N))
          Gather(N, -1);
      forEachChildBody(*S.E, [&](const Body &Inner) { Walk(Inner); });
    }
  };
  Walk(F.FBody);

  for (const SubExp &RS : F.FBody.Result)
    if (RS.isVar() && Part.count(RS.getVar()))
      Gather(RS.getVar(), -1); // Results are read back by the host.

  return Out;
}

std::vector<int64_t>
fut::shard::derivePeakBytes(const FunDef &F,
                            const std::vector<KernelShard> &Kernels,
                            const std::vector<TransferEdge> &Transfers,
                            int Devices) {
  int N = std::max(1, Devices);
  mem::LiveIntervals LI = mem::computeDeviceIntervals(F);

  NameSet Gathered;
  for (const TransferEdge &E : Transfers)
    Gathered.insert(E.Arr);

  // Block-resident names: sharded outputs and aligned inputs that are
  // never gathered hold only a row block per device.
  NameMap<int64_t> BlockWidth;
  for (const KernelShard &KS : Kernels) {
    if (!KS.Sharded)
      continue;
    // Histogram partials are replicated full-width per device (their
    // merge edge lands them in Gathered), never block-resident.
    if (!KS.HistMerge)
      for (const VName &O : KS.Outputs)
        BlockWidth[O] = KS.ConstWidth;
    for (const ShardInput &SI : KS.Inputs)
      if (SI.Class == InputClass::Aligned)
        BlockWidth.emplace(SI.Arr, KS.ConstWidth);
  }
  for (const TransferEdge &E : Transfers)
    BlockWidth.erase(E.Arr);

  int MaxEnd = 0;
  for (const mem::LiveInterval &Iv : LI.Intervals) {
    MaxEnd = std::max(MaxEnd, Iv.End);
    if (Iv.Bytes < 0)
      return std::vector<int64_t>(N, -1); // Symbolic: no static bound.
  }

  std::vector<int64_t> Peak(N, 0);
  for (int T = 0; T <= MaxEnd; ++T) {
    std::vector<int64_t> LiveNow(N, 0);
    for (const mem::LiveInterval &Iv : LI.Intervals) {
      if (Iv.Start > T || Iv.End < T)
        continue;
      auto BW = BlockWidth.find(Iv.Name);
      if (BW != BlockWidth.end() && BW->second > 0) {
        auto Cuts = blockCuts(BW->second, N);
        for (int D = 0; D < N; ++D)
          LiveNow[D] +=
              Iv.Bytes * (Cuts[D].second - Cuts[D].first) / BW->second;
      } else if (BW != BlockWidth.end() && BW->second == 0) {
        // Empty array: no bytes anywhere.
      } else if (Gathered.count(Iv.Name)) {
        for (int D = 0; D < N; ++D)
          LiveNow[D] += Iv.Bytes; // Replicated after the gather.
      } else {
        LiveNow[0] += Iv.Bytes; // Whole on device 0.
      }
    }
    for (int D = 0; D < N; ++D)
      Peak[D] = std::max(Peak[D], LiveNow[D]);
  }
  return Peak;
}

ShardPlan fut::shard::planShards(const Program &P,
                                 const ShardOptions &Opts) {
  ShardPlan SP;
  SP.Devices = std::max(1, Opts.Devices);
  for (const FunDef &F : P.Funs) {
    FunShardPlan FP;
    FP.Fun = F.Name;
    FP.PerDeviceMemBytes = Opts.PerDeviceMemBytes;
    forEachKernel(F, [&](const KernelExp &K, const Stm &S, int Id,
                         bool Top) {
      KernelShardability A = analyseShardability(K, S, Top);
      KernelShard KS;
      KS.KernelId = Id;
      KS.Sharded = A.Sharded;
      KS.WhyNot = std::move(A.WhyNot);
      KS.HistMerge = A.HistMerge;
      KS.Width = A.Width;
      KS.ConstWidth = A.ConstWidth;
      KS.Inputs = std::move(A.Inputs);
      KS.Outputs = std::move(A.Outputs);
      if (KS.Sharded && KS.ConstWidth >= 0)
        KS.Blocks = blockCuts(KS.ConstWidth, SP.Devices);
      FP.Kernels.push_back(std::move(KS));
    });
    FP.Transfers = deriveTransfers(F, FP.Kernels);
    FP.PlannedPeakBytes =
        derivePeakBytes(F, FP.Kernels, FP.Transfers, SP.Devices);
    SP.Funs.push_back(std::move(FP));
  }
  return SP;
}

std::string ShardPlan::str() const {
  std::ostringstream OS;
  OS << "shard plan (devices=" << Devices << ")\n";
  for (const FunShardPlan &FP : Funs) {
    int NumSharded = 0;
    for (const KernelShard &KS : FP.Kernels)
      NumSharded += KS.Sharded ? 1 : 0;
    OS << "function '" << FP.Fun << "': " << FP.Kernels.size()
       << " kernels (" << NumSharded << " sharded), "
       << FP.Transfers.size() << " transfers\n";
    for (const KernelShard &KS : FP.Kernels) {
      OS << "  kernel " << KS.KernelId << ": ";
      if (!KS.Sharded) {
        OS << "whole (" << KS.WhyNot << ")\n";
      } else {
        OS << "sharded width=" << KS.Width.str();
        if (!KS.Blocks.empty()) {
          OS << " blocks=";
          for (const auto &Blk : KS.Blocks)
            OS << "[" << Blk.first << "," << Blk.second << ")";
        }
        if (KS.HistMerge)
          OS << " hist-merge";
        OS << "\n";
      }
      for (const ShardInput &SI : KS.Inputs)
        OS << "    input " << SI.Arr.str() << ": "
           << inputClassName(SI.Class) << "\n";
      for (const VName &O : KS.Outputs)
        OS << "    output " << O.str() << "\n";
    }
    for (const TransferEdge &E : FP.Transfers) {
      OS << "  transfer '" << E.Arr.str() << "': kernel "
         << E.ProducerKernel << " -> ";
      if (E.ConsumerKernel < 0)
        OS << "host (gather";
      else if (E.ConsumerKernel == E.ProducerKernel)
        OS << "kernel " << E.ConsumerKernel << " (merge";
      else
        OS << "kernel " << E.ConsumerKernel << " (all-gather";
      if (E.Bytes >= 0)
        OS << ", " << E.Bytes << " bytes)";
      else
        OS << ", symbolic)";
      OS << "\n";
    }
    OS << "  peak bytes/device:";
    for (int64_t B : FP.PlannedPeakBytes)
      OS << " " << B;
    if (FP.PerDeviceMemBytes > 0)
      OS << " (budget " << FP.PerDeviceMemBytes << ")";
    OS << "\n";
  }
  return OS.str();
}
