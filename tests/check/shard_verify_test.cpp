//===- shard_verify_test.cpp - Tests for the shard-plan verifier -----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard-plan verifier's contract, mirroring the memory-plan verifier
/// tests: accept every plan the planner produces, and reject a plan
/// corrupted at the pass boundary — a wrong width, an unshardable kernel
/// marked sharded, a dropped histogram marking, a broadcast input
/// classified aligned, a dropped boundary transfer — with an
/// ErrorKind::Verify diagnostic naming the pass and the defect.
/// Corruptions are injected through CompilerOptions::PostShardPlanHook,
/// which runs between the planner and the verifier.  Row ownership is not
/// in the plan: blockCuts, which cuts every sharded launch at run time,
/// has its own partition property test here.
///
//===----------------------------------------------------------------------===//

#include "check/Verify.h"

#include "driver/Compiler.h"
#include "ir/Builder.h"
#include "shard/ShardPlan.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fut;
using namespace fut::test;

namespace {

/// Constant sizes throughout, so the planner records a constant-width
/// sharded kernel and a concrete all-gather transfer (kernel 0's
/// partitioned output feeds the unsharded segmented reduction whole) —
/// giving the corruptions below a guaranteed target.
const char *kConstProgram =
    "fun main (x: i32): ([16]i32, i32) =\n"
    "  let a = map (\\(i: i32): i32 -> i * 2 + x) (iota 16)\n"
    "  let b = map (\\(y: i32): i32 -> y * y + x) a\n"
    "  let s = reduce (+) 0 b\n"
    "  in (b, s)\n";

/// A histogram tail: kernel 1 is a SegHist sharded along its 16 input
/// elements, with an aligned index input and a broadcast destination.
const char *kHistProgram =
    "fun main (x: i32): [8]i32 =\n"
    "  let a = map (\\(i: i32): i32 -> i % 8) (iota 16)\n"
    "  let v = map (\\(i: i32): i32 -> i + x) (iota 16)\n"
    "  in reduce_by_index (replicate 8 0) (+) 0 a v\n";

/// The first function plan holding a sharded constant-width kernel.
shard::FunShardPlan *shardedFun(shard::ShardPlan &SP) {
  for (shard::FunShardPlan &FP : SP.Funs)
    for (shard::KernelShard &KS : FP.Kernels)
      if (KS.Sharded && KS.ConstWidth >= 0)
        return &FP;
  return nullptr;
}

/// The first sharded histogram kernel of \p SP.
shard::KernelShard *histKernel(shard::ShardPlan &SP) {
  for (shard::FunShardPlan &FP : SP.Funs)
    for (shard::KernelShard &KS : FP.Kernels)
      if (KS.Sharded && KS.HistMerge)
        return &KS;
  return nullptr;
}

/// Compiles \p Source with \p Corrupt applied to the shard plan, and
/// expects the verifier to reject with a message containing every string
/// in \p Expect.
void expectRejected(const std::function<void(shard::ShardPlan &)> &Corrupt,
                    const std::vector<std::string> &Expect,
                    const char *Source = kConstProgram) {
  NameSource NS;
  CompilerOptions Opts;
  bool Fired = false;
  Opts.PostShardPlanHook = [&](shard::ShardPlan &SP) {
    Corrupt(SP);
    Fired = true;
  };
  auto C = compileSource(Source, NS, Opts);
  ASSERT_TRUE(Fired) << "corruption hook never fired";
  ASSERT_FALSE(static_cast<bool>(C)) << "corrupted shard plan compiled";
  const CompilerError &E = C.getError();
  EXPECT_EQ(E.Kind, ErrorKind::Verify) << E.str();
  EXPECT_NE(E.Message.find("after pass 'shardplan'"), std::string::npos)
      << E.str();
  for (const std::string &S : Expect)
    EXPECT_NE(E.Message.find(S), std::string::npos)
        << "missing '" << S << "' in: " << E.str();
}

} // namespace

TEST(ShardVerifyTest, AcceptsPlannerOutput) {
  // compileSource runs the verifier after the planner (VerifyIR defaults
  // on); an untouched plan must pass.
  for (const char *Source : {kConstProgram, kHistProgram}) {
    NameSource NS;
    auto C = compileSource(Source, NS);
    ASSERT_OK(C);
    EXPECT_FALSE(static_cast<bool>(
        verifyShardPlan(C->P, C->Shards, "shardplan")));
  }
}

TEST(ShardVerifyTest, AcceptsGeneratedPrograms) {
  // The planner/verifier pair must also agree on symbolic-width plans;
  // the differential generator's programs have runtime-sized chains.
  NameSource NS;
  auto C = compileSource(
      "fun main (n: i32) (a0: [n]i32): ([n]i32, i32) =\n"
      "  let a1 = map (\\(x: i32): i32 -> x * 3 - 1) a0\n"
      "  let a2 = scan (+) 0 a1\n"
      "  let s0 = reduce (+) 0 a2\n"
      "  in (a2, s0)\n",
      NS);
  ASSERT_OK(C);
}

TEST(ShardVerifyTest, BlockCutsPartitionEveryWidth) {
  // Every sharded launch is cut by blockCuts at run time, so its cuts are
  // the row ownership: in device order they must cover [0, W) with no gap
  // and no overlap, and balance the rows to within one.
  for (int N = 1; N <= 8; ++N)
    for (int64_t W = 0; W <= 257; ++W) {
      SCOPED_TRACE("W=" + std::to_string(W) + " N=" + std::to_string(N));
      auto Cuts = shard::blockCuts(W, N);
      ASSERT_EQ(Cuts.size(), static_cast<size_t>(N));
      int64_t Next = 0, Min = W, Max = 0;
      for (const auto &[Start, End] : Cuts) {
        ASSERT_EQ(Start, Next);
        ASSERT_LE(Start, End);
        Min = std::min(Min, End - Start);
        Max = std::max(Max, End - Start);
        Next = End;
      }
      EXPECT_EQ(Next, W);
      EXPECT_LE(Max - Min, 1);
    }
}

TEST(ShardVerifyTest, DroppedBoundaryTransferRejected) {
  // Remove the recorded all-gather: kernel 0's partitioned output is then
  // consumed whole by the reduction with no transfer to reassemble it.
  expectRejected(
      [](shard::ShardPlan &SP) {
        shard::FunShardPlan *FP = shardedFun(SP);
        ASSERT_NE(FP, nullptr);
        ASSERT_FALSE(FP->Transfers.empty());
        FP->Transfers.clear();
      },
      {"missing inter-device transfer"});
}

TEST(ShardVerifyTest, WidthMismatchRejected) {
  // Claim the kernel shards a different outer width than its grid has.
  expectRejected(
      [](shard::ShardPlan &SP) {
        shard::FunShardPlan *FP = shardedFun(SP);
        ASSERT_NE(FP, nullptr);
        for (shard::KernelShard &KS : FP->Kernels)
          if (KS.Sharded) {
            KS.Width = i32(999);
            return;
          }
      },
      {"but its outer grid dimension is"});
}

TEST(ShardVerifyTest, UnshardableKernelMarkedShardedRejected) {
  // Promote the gridless segmented reduction to sharded: the verifier's
  // independent analyseShardability re-derivation must refuse it.
  expectRejected(
      [](shard::ShardPlan &SP) {
        shard::FunShardPlan *FP = shardedFun(SP);
        ASSERT_NE(FP, nullptr);
        for (shard::KernelShard &KS : FP->Kernels)
          if (!KS.Sharded) {
            KS.Sharded = true;
            return;
          }
      },
      {"marked sharded but cannot be partitioned"});
}

TEST(ShardVerifyTest, DroppedHistMergeRejected) {
  // Unmark the histogram: its full-width partials would then be taken
  // for row blocks and concatenated instead of folded.
  expectRejected(
      [](shard::ShardPlan &SP) {
        shard::KernelShard *KS = histKernel(SP);
        ASSERT_NE(KS, nullptr);
        KS->HistMerge = false;
      },
      {"is a histogram but not marked for partial-merge"}, kHistProgram);
}

TEST(ShardVerifyTest, BroadcastInputClassifiedAlignedRejected) {
  // Classify the histogram's destination aligned: each device would then
  // hold only a row block of an array it scatters into at any bin.
  expectRejected(
      [](shard::ShardPlan &SP) {
        shard::KernelShard *KS = histKernel(SP);
        ASSERT_NE(KS, nullptr);
        for (shard::ShardInput &SI : KS->Inputs)
          if (SI.Class == shard::InputClass::Broadcast) {
            SI.Class = shard::InputClass::Aligned;
            return;
          }
        FAIL() << "the histogram kernel has no broadcast input";
      },
      {"is classified aligned but its uses require the whole array"},
      kHistProgram);
}
