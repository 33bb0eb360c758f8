//===- shardplan_golden_test.cpp - Pinned --print-shard-plan output --------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// Pins the stable textual format of ShardPlan::str(P, N), which is what
// the --print-shard-plan driver flag emits, and the N=1 no-op invariant:
// a run wired through the shard plan at one device must not change a
// cycle or byte of the simulated run.  The plan holds no device count, so
// one compile prints and runs at every count.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardPlan.h"

#include "driver/Compiler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;

namespace {

/// Constant sizes throughout: blocks, transfer bytes and peaks are all
/// static, so the dump pins the planner's concrete decisions.
const char *kConstProgram =
    "fun main (x: i32): ([16]i32, i32) =\n"
    "  let a = map (\\(i: i32): i32 -> i * 2 + x) (iota 16)\n"
    "  let b = map (\\(y: i32): i32 -> y * y + x) a\n"
    "  let s = reduce (+) 0 b\n"
    "  in (b, s)\n";

/// Runtime-sized pipeline: width, blocks and bytes are all symbolic, so
/// the dump pins the symbolic rendering and the host-gather edge.
const char *kSymbolicProgram =
    "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
    "  let ys = map (\\(x: i32): i32 -> x * 2 + 1) xs\n"
    "  in map (\\(y: i32): i32 -> y * y) ys\n";

/// A histogram tail: the value map fuses into the SegHist kernel, the
/// index producer stays a separate aligned kernel, and the plan must mark
/// the histogram for partial-merge with an explicit merge edge.
const char *kHistProgram =
    "fun main (x: i32): [8]i32 =\n"
    "  let a = map (\\(i: i32): i32 -> i % 8) (iota 16)\n"
    "  let v = map (\\(i: i32): i32 -> i + x) (iota 16)\n"
    "  in reduce_by_index (replicate 8 0) (+) 0 a v\n";

} // namespace

TEST(ShardPlanGolden, ConstantWidthPipelineAtTwoDevices) {
  // The fused map kernel shards 16 rows as [0,8)[8,16); its partitioned
  // output feeds the gridless reduction whole, so the plan must carry the
  // 64-byte all-gather and a 64-byte static peak on both devices.
  NameSource NS;
  auto C = compileSource(kConstProgram, NS);
  ASSERT_OK(C);
  EXPECT_EQ(C->Shards.str(C->P, 2),
            "shard plan (devices=2)\n"
            "function 'main': 2 kernels (1 sharded), 1 transfers\n"
            "  kernel 0: sharded width=16i32 blocks=[0,8)[8,16)\n"
            "    output dist_26\n"
            "  kernel 1: whole (gridless segmented reduction)\n"
            "    input dist_26: broadcast\n"
            "  transfer 'dist_26': kernel 0 -> kernel 1 (all-gather, "
            "64 bytes)\n"
            "  peak bytes/device: 64 64\n");
}

TEST(ShardPlanGolden, SingleDevicePlanIsDegenerate) {
  // At one device the plan still exists (the analysis is device-count
  // independent) but every kernel owns all of [0, W).
  NameSource NS;
  auto C = compileSource(kConstProgram, NS);
  ASSERT_OK(C);
  EXPECT_EQ(C->Shards.str(C->P, 1),
            "shard plan (devices=1)\n"
            "function 'main': 2 kernels (1 sharded), 1 transfers\n"
            "  kernel 0: sharded width=16i32 blocks=[0,16)\n"
            "    output dist_26\n"
            "  kernel 1: whole (gridless segmented reduction)\n"
            "    input dist_26: broadcast\n"
            "  transfer 'dist_26': kernel 0 -> kernel 1 (all-gather, "
            "64 bytes)\n"
            "  peak bytes/device: 64\n");
}

TEST(ShardPlanGolden, SymbolicWidthPipelineAtFourDevices) {
  // Symbolic width n_0: no static blocks (cut at runtime), the aligned
  // input classification, a symbolic host gather for the returned array,
  // and unknown (-1) peaks on all four devices.
  NameSource NS;
  auto C = compileSource(kSymbolicProgram, NS);
  ASSERT_OK(C);
  EXPECT_EQ(C->Shards.str(C->P, 4),
            "shard plan (devices=4)\n"
            "function 'main': 1 kernels (1 sharded), 1 transfers\n"
            "  kernel 0: sharded width=n_0\n"
            "    input xs_1: aligned\n"
            "    output dist_20\n"
            "  transfer 'dist_20': kernel 0 -> host (gather, symbolic)\n"
            "  peak bytes/device: -1 -1 -1 -1\n");
}

TEST(ShardPlanGolden, HistogramMergePlanAtTwoDevices) {
  // The SegHist kernel shards along its 16 input elements but its
  // destination is broadcast and its output replicated: the plan says
  // "hist-merge", skips the dest in the aligned classification, and
  // carries a producer==consumer merge edge (32 bytes of partials folded
  // with the operator) instead of an all-gather.
  NameSource NS;
  auto C = compileSource(kHistProgram, NS);
  ASSERT_OK(C);
  EXPECT_EQ(C->Shards.str(C->P, 2),
            "shard plan (devices=2)\n"
            "function 'main': 2 kernels (2 sharded), 1 transfers\n"
            "  kernel 0: sharded width=16i32 blocks=[0,8)[8,16)\n"
            "    output dist_21\n"
            "  kernel 1: sharded width=16i32 blocks=[0,8)[8,16) "
            "hist-merge\n"
            "    input dist_21: aligned\n"
            "    input repl_9: broadcast\n"
            "    output hist_32\n"
            "  transfer 'hist_32': kernel 1 -> kernel 1 (merge, 32 bytes)\n"
            "  peak bytes/device: 96 64\n");
}

TEST(ShardPlanGolden, TidRebindStaysAligned) {
  // Regression: a thread body that rebinds the thread index through a
  // let (a copy the simplifier does not always collapse inside kernels)
  // must still classify xs[j] as an aligned access — the planner used to
  // see the rebound name, miss the tid identity, and fall back to
  // broadcasting the input to every device.
  NameSource NS;
  VName Tid = NS.fresh("tid");
  VName Xs = NS.fresh("xs");
  VName J = NS.fresh("j");
  VName V = NS.fresh("v");
  Type ArrTy =
      Type::array(ScalarKind::I32, {SubExp::constant(PrimValue::makeI32(16))});

  auto K = std::make_unique<KernelExp>();
  K->Op = KernelExp::OpKind::ThreadBody;
  K->GridDims = {SubExp::constant(PrimValue::makeI32(16))};
  K->ThreadIndices = {Tid};
  K->Inputs.push_back({Xs, ArrTy, {}, false});
  Body TB;
  TB.Stms.emplace_back(
      std::vector<Param>{Param(J, Type::scalar(ScalarKind::I32))},
      std::make_unique<SubExpExp>(SubExp::var(Tid)));
  TB.Stms.emplace_back(
      std::vector<Param>{Param(V, Type::scalar(ScalarKind::I32))},
      std::make_unique<IndexExp>(Xs, std::vector<SubExp>{SubExp::var(J)}));
  TB.Result = {SubExp::var(V)};
  K->ThreadBody = std::move(TB);
  K->RetTypes = {ArrTy};

  Stm S({Param(NS.fresh("out"), ArrTy)}, std::move(K));
  shard::KernelShard A = shard::analyseShardability(
      *expCast<KernelExp>(S.E.get()), S, /*TopLevel=*/true);
  ASSERT_TRUE(A.Sharded) << A.WhyNot;
  ASSERT_EQ(A.Inputs.size(), 1u);
  EXPECT_EQ(A.Inputs[0].Arr, Xs);
  EXPECT_EQ(A.Inputs[0].Class, shard::InputClass::Aligned)
      << "tid rebound through a let must stay an aligned access";
}

TEST(ShardPlanGolden, PlanIsDeterministic) {
  NameSource N1, N2;
  auto A = compileSource(kConstProgram, N1);
  auto B = compileSource(kConstProgram, N2);
  ASSERT_OK(A);
  ASSERT_OK(B);
  for (int Devices : {2, 4})
    EXPECT_EQ(A->Shards.str(A->P, Devices), B->Shards.str(B->P, Devices));
  EXPECT_EQ(A->fingerprint(), B->fingerprint());
}

TEST(ShardPlanGolden, SingleDeviceIsNoOp) {
  // The pinned no-op: a run wired through the shard plan at one device
  // must reproduce the plain run cycle-for-cycle and byte-for-byte.
  NameSource NS;
  auto C = compileSource(kConstProgram, NS);
  ASSERT_OK(C);

  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(3))};
  DeviceRunOptions RO;
  RO.MemPlan = &C->MemPlan;
  auto Base = runOnDevice(C->P, Args, RO);
  ASSERT_OK(Base);

  DeviceRunOptions RO1 = RO;
  RO1.Shards = &C->Shards;
  RO1.Devices = 1;
  auto Sharded = runOnDevice(C->P, Args, RO1);
  ASSERT_OK(Sharded);

  EXPECT_EQ(firstDifference(Sharded->Outputs, Base->Outputs), "");
  EXPECT_EQ(Base->Cost.TotalCycles, Sharded->Cost.TotalCycles);
  EXPECT_EQ(Base->Cost.PeakDeviceBytes, Sharded->Cost.PeakDeviceBytes);
  EXPECT_EQ(Base->Cost.str(), Sharded->Cost.str());
}
