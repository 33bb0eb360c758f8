//===- uniqueness_oracle_test.cpp - Section 3's O(1) promise, checked ------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The paper promises that an in-place update the uniqueness checker accepts
// costs O(1): its source array is held by nobody else.  This test runs the
// reference run of each of the 16 benchmarks (the uniqueness-checked
// frontend output on the reference interpreter) and, through the
// interpreter's observation hook, inspects the source of every in-place
// update and the destination of every reduce_by_index and SegHist.  A
// source whose payload is shared would have to be copied.  The hook sees
// the source before it is consumed, so the interpreter also counts the
// copies where they happen (Interpreter::copiedConsumes), which catches a
// consume of an array bound outside the innermost loop body or lambda: its
// binding must survive the body, so it is copied although the hook saw it
// held only by its slot.  Both counts are pinned: none is shared or copied,
// except on kmeans, where stream_red starts every chunk's accumulator from
// the same neutral array by design.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"

#include <gtest/gtest.h>

#include <map>

using namespace fut;
using namespace fut::bench;

namespace {

struct ConsumeCounts {
  int64_t Consumed = 0; ///< Arrays an update or histogram consumed.
  int64_t Shared = 0;   ///< Of those, the ones whose payload was shared.
  int64_t Copied = 0;   ///< The ones the interpreter mutated a copy of.
};

/// The pinned counts, per benchmark.
const std::map<std::string, ConsumeCounts> &pinned() {
  static const std::map<std::string, ConsumeCounts> Counts = {
      {"backprop", {0, 0, 0}},
      {"cfd", {0, 0, 0}},
      {"hotspot", {0, 0, 0}},
      {"kmeans", {40960, 2, 2}},
      {"lavamd", {0, 0, 0}},
      {"myocyte", {1048576, 0, 0}},
      {"nn", {12, 0, 0}},
      {"pathfinder", {0, 0, 0}},
      {"srad", {0, 0, 0}},
      {"locvolcalib", {0, 0, 0}},
      {"optionpricing", {262144, 0, 0}},
      {"mriq", {0, 0, 0}},
      {"crystal", {0, 0, 0}},
      {"fluid", {0, 0, 0}},
      {"mandelbrot", {0, 0, 0}},
      {"nbody", {0, 0, 0}},
  };
  return Counts;
}

void countConsumed(const EnvView &Env, const VName &Arr, ConsumeCounts &C) {
  const Value *V = Env.find(Arr);
  if (!V || !V->isArray())
    return;
  ++C.Consumed;
  C.Shared += !V->uniquelyHeld();
}

class UniquenessOracle : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> benchmarkNames() {
  std::vector<std::string> Out;
  for (const BenchmarkDef &B : allBenchmarks())
    Out.push_back(B.Name);
  return Out;
}

} // namespace

TEST_P(UniquenessOracle, AcceptedUpdatesHitUniquePayloads) {
  const BenchmarkDef *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  auto It = pinned().find(B->Name);
  ASSERT_NE(It, pinned().end()) << "no pinned counts for " << B->Name;
  NameSource Names;
  auto P = frontend(B->Source, Names);
  ASSERT_TRUE(static_cast<bool>(P)) << P.getError().str();

  ConsumeCounts Got;
  InterpOptions IO;
  IO.StreamInterleave = B->VerifyInterleave;
  IO.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (const auto *X = expDynCast<UpdateExp>(&E))
      countConsumed(Env, X->Arr, Got);
    else if (const auto *X = expDynCast<ReduceByIndexExp>(&E))
      countConsumed(Env, X->Dest, Got);
    else if (const auto *X = expDynCast<KernelExp>(&E))
      if (X->Op == KernelExp::OpKind::SegHist)
        countConsumed(Env, X->HistDest, Got);
  };
  Interpreter I(*P, IO);
  auto R = I.run(B->MakeInputs());
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_EQ(Got.Consumed, It->second.Consumed);
  EXPECT_EQ(Got.Shared, It->second.Shared)
      << Got.Shared << " of " << Got.Consumed
      << " consumed arrays were shared and had to be copied";
  EXPECT_EQ(I.copiedConsumes(), It->second.Copied)
      << I.copiedConsumes() << " of " << Got.Consumed
      << " consumed arrays were copied by the interpreter";
}

INSTANTIATE_TEST_SUITE_P(All, UniquenessOracle,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });
