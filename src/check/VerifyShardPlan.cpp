//===- VerifyShardPlan.cpp - Shard-plan soundness checker -----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-derives the multi-device shard decomposition independently of the
/// planner, mirroring VerifyMemPlan: every sharded kernel must actually be
/// shardable along the width, histogram marking and aligned inputs the
/// plan records, and every transfer the decomposition requires must be
/// present in the plan.  Marking a shardable kernel whole, or recording
/// extra transfers, is conservative and allowed.  Row ownership is not
/// the plan's to record: every component cuts rows with shard::blockCuts
/// at run time, and its own property test pins that it partitions.
///
//===----------------------------------------------------------------------===//

#include "check/Verify.h"

#include "shard/ShardPlan.h"

#include <string>
#include <vector>

using namespace fut;

namespace {

MaybeError verifyFunShards(const Program &P, const shard::FunShardPlan &FP,
                           const std::string &Pass) {
  auto Fail = [&](const std::string &Msg) {
    return CompilerError(ErrorKind::Verify, "after pass '" + Pass +
                                                "': in function '" + FP.Fun +
                                                "': " + Msg);
  };

  const FunDef *F = P.findFun(FP.Fun);
  if (!F)
    return Fail("shard plan names a function the program does not define");

  // Kernel-by-kernel: the plan's sharding decisions must be justified by
  // an independent re-derivation.
  int Seen = 0;
  MaybeError Err = MaybeError::success();
  shard::forEachKernel(*F, [&](const KernelExp &K, const Stm &S, int Id,
                               bool Top) {
    ++Seen;
    if (Err)
      return;
    const shard::KernelShard *KS = FP.kernel(Id);
    if (!KS) {
      Err = Fail("kernel " + std::to_string(Id) +
                 " has no entry in the shard plan");
      return;
    }
    shard::KernelShard A = shard::analyseShardability(K, S, Top);
    if (!KS->Sharded)
      return; // Running a kernel whole is always sound.
    if (!A.Sharded) {
      Err = Fail("kernel " + std::to_string(Id) +
                 " is marked sharded but cannot be partitioned (" +
                 A.WhyNot + ")");
      return;
    }
    if (!(KS->Width == A.Width)) {
      Err = Fail("kernel " + std::to_string(Id) + " shards width '" +
                 KS->Width.str() + "' but its outer grid dimension is '" +
                 A.Width.str() + "'");
      return;
    }
    // Histogram partials must be merged, never concatenated: a plan that
    // drops (or invents) the merge marking would mis-account residency
    // and transfers for the replicated full-width partials.
    if (KS->HistMerge != A.HistMerge) {
      Err = Fail("kernel " + std::to_string(Id) +
                 (A.HistMerge
                      ? " is a histogram but not marked for partial-merge"
                      : " is marked for partial-merge but is not a "
                        "histogram"));
      return;
    }
    for (const shard::ShardInput &SI : KS->Inputs) {
      if (SI.Class != shard::InputClass::Aligned)
        continue;
      bool Justified = false;
      for (const shard::ShardInput &AI : A.Inputs)
        if (AI.Arr == SI.Arr && AI.Class == shard::InputClass::Aligned)
          Justified = true;
      if (!Justified) {
        Err = Fail("kernel " + std::to_string(Id) + " input '" +
                   SI.Arr.str() +
                   "' is classified aligned but its uses require the "
                   "whole array on every device");
        return;
      }
    }
  });
  if (Err)
    return Err;
  if (Seen != static_cast<int>(FP.Kernels.size()))
    return Fail("shard plan records " + std::to_string(FP.Kernels.size()) +
                " kernels but the function has " + std::to_string(Seen));

  // Transfers: everything the plan's own sharding decisions require must
  // be present (extra transfers are conservative and allowed).
  std::vector<shard::TransferEdge> Required =
      shard::deriveTransfers(*F, FP.Kernels);
  for (const shard::TransferEdge &R : Required) {
    bool Present = false;
    for (const shard::TransferEdge &E : FP.Transfers)
      if (E.Arr == R.Arr && E.ProducerKernel == R.ProducerKernel &&
          E.ConsumerKernel == R.ConsumerKernel)
        Present = true;
    if (!Present)
      return Fail(
          "missing inter-device transfer for '" + R.Arr.str() +
          "' (produced partitioned by kernel " +
          std::to_string(R.ProducerKernel) + ", consumed whole by " +
          (R.ConsumerKernel < 0 ? std::string("the host")
                                : "kernel " +
                                      std::to_string(R.ConsumerKernel)) +
          ")");
  }

  return MaybeError::success();
}

} // namespace

MaybeError fut::verifyShardPlan(const Program &P, const shard::ShardPlan &SP,
                                const std::string &Pass) {
  for (const shard::FunShardPlan &FP : SP.Funs)
    if (auto Err = verifyFunShards(P, FP, Pass))
      return Err;
  return MaybeError::success();
}
