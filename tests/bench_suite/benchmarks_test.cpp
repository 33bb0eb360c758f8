//===- benchmarks_test.cpp - Integration tests for the 16 benchmarks -------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Every benchmark must compile through the full pipeline, pass the
// uniqueness checker, run on the simulated device, and produce the same
// values as the reference interpreter: bit-identical, except for the
// outputs whose BenchmarkDef declares a tolerance.  The reference
// configurations must also compile and run, and a device holding exactly
// the static memory plan's bound must run each benchmark unchanged.
// Finally, the headline properties of the paper's evaluation must hold:
// Futhark wins where the paper says it wins, and loses where it loses.
//
// The reference run that checks the outputs also checks Section 3's O(1)
// promise: an in-place update the uniqueness checker accepts finds its
// source array held by nobody else.  Through the interpreter's
// observation hook it inspects the source of every in-place update and the
// destination of every reduce_by_index and SegHist; a source whose payload
// is shared would have to be copied.  The hook sees the source before it
// is consumed, so the interpreter also counts the copies where they happen
// (Interpreter::copiedConsumes), which catches a consume of an array bound
// outside the innermost loop body or lambda: its binding must survive the
// body, so it is copied although the hook saw it held only by its slot.
// Both counts are pinned: none is shared or copied, except on kmeans,
// where stream_red starts every chunk's accumulator from the same neutral
// array by design.
//
// Each benchmark's declared tolerances are checked against main's result
// types without running it: a 1-ulp change fails every output that
// declares none.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "parser/Desugar.h"

#include <gtest/gtest.h>

#include <cmath>
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
const std::map<std::string, ConsumeCounts> &pinnedConsumes() {
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

/// \p V moved by the smallest step its kind has: the next float up, the
/// next integer, or the other truth value.
PrimValue nudged(const PrimValue &V) {
  switch (V.kind()) {
  case ScalarKind::Bool:
    return PrimValue::makeBool(!V.getBool());
  case ScalarKind::I32:
    return PrimValue::makeI32(static_cast<int32_t>(V.getInt() + 1));
  case ScalarKind::I64:
    return PrimValue::makeI64(V.getInt() + 1);
  case ScalarKind::F32:
    return PrimValue::makeF32(
        std::nextafter(static_cast<float>(V.getFloat()), 2.0f));
  case ScalarKind::F64:
    return PrimValue::makeF64(std::nextafter(V.getFloat(), 2.0));
  }
  return V;
}

/// One (or true) of kind \p K.
PrimValue oneOf(ScalarKind K) {
  switch (K) {
  case ScalarKind::Bool:
    return PrimValue::makeBool(true);
  case ScalarKind::I32:
    return PrimValue::makeI32(1);
  case ScalarKind::I64:
    return PrimValue::makeI64(1);
  case ScalarKind::F32:
    return PrimValue::makeF32(1.0f);
  case ScalarKind::F64:
    return PrimValue::makeF64(1.0);
  }
  return PrimValue();
}

class BenchmarkSweep : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> benchmarkNames() {
  std::vector<std::string> Out;
  for (const BenchmarkDef &B : allBenchmarks())
    Out.push_back(B.Name);
  return Out;
}

} // namespace

TEST_P(BenchmarkSweep, CompilesRunsAndMatchesReference) {
  const BenchmarkDef *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  auto Pinned = pinnedConsumes().find(B->Name);
  ASSERT_NE(Pinned, pinnedConsumes().end())
      << "no pinned consume counts for " << B->Name;
  std::vector<Value> Inputs = B->MakeInputs();
  auto R = runBenchmark(*B, CompilerOptions{},
                        gpusim::DeviceParams::gtx780());
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_GT(R->Cost.TotalCycles, 0);
  EXPECT_GE(R->Cost.KernelLaunches, 1)
      << "every benchmark must actually use the device";
  // Observed residency stays within the static memory plan's layout.
  EXPECT_GT(R->Cost.PlannedPeakBytes, 0);
  EXPECT_LE(R->Cost.PeakDeviceBytes, R->Cost.PlannedPeakBytes)
      << "observed residency must stay within the plan's layout";

  // One reference run checks the outputs and counts the consumes.
  ConsumeCounts Got;
  InterpOptions Hooks;
  Hooks.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (const auto *X = expDynCast<UpdateExp>(&E))
      countConsumed(Env, X->Arr, Got);
    else if (const auto *X = expDynCast<ReduceByIndexExp>(&E))
      countConsumed(Env, X->Dest, Got);
    else if (const auto *X = expDynCast<KernelExp>(&E))
      if (X->Op == KernelExp::OpKind::SegHist)
        countConsumed(Env, X->HistDest, Got);
  };
  MaybeError Mismatch =
      verifyOutputs(*B, Inputs, R->Outputs, std::move(Hooks), &Got.Copied);
  EXPECT_FALSE(static_cast<bool>(Mismatch)) << Mismatch.getError().str();
  EXPECT_EQ(Got.Consumed, Pinned->second.Consumed);
  EXPECT_EQ(Got.Shared, Pinned->second.Shared)
      << Got.Shared << " of " << Got.Consumed
      << " consumed arrays were shared and had to be copied";
  EXPECT_EQ(Got.Copied, Pinned->second.Copied)
      << Got.Copied << " of " << Got.Consumed
      << " consumed arrays were copied by the interpreter";
}

TEST_P(BenchmarkSweep, PlannedPeakIsEnoughDeviceMemory) {
  // The static memory plan's bound is a sufficient device: shrinking
  // device memory to exactly PlannedPeakBytes changes nothing — no kernel
  // is pushed back to the host, and the cost line and results are those
  // of the 8 GiB run.
  const BenchmarkDef *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  gpusim::DeviceParams Roomy = gpusim::DeviceParams::gtx780();
  auto R = runBenchmark(*B, CompilerOptions{}, Roomy);
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  ASSERT_GT(R->Cost.PlannedPeakBytes, 0);

  gpusim::DeviceParams Tight = Roomy;
  Tight.DeviceMemBytes = R->Cost.PlannedPeakBytes;
  auto T = runBenchmark(*B, CompilerOptions{}, Tight);
  ASSERT_TRUE(static_cast<bool>(T)) << T.getError().str();
  EXPECT_EQ(T->Cost.str(), R->Cost.str());
  EXPECT_EQ(firstDifference(T->Outputs, R->Outputs), "");
}

TEST_P(BenchmarkSweep, OneUlpFailsEveryUndeclaredOutput) {
  // A declared tolerance sits on a float result of main, is at most 1e-5
  // and covers its own output only: on a stand-in for main's results
  // (every element 1, arrays 2 wide per dimension), a 1-ulp change to
  // output J is accepted exactly when J declares a tolerance.
  const BenchmarkDef *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  NameSource Names;
  auto P = frontend(B->Source, Names);
  ASSERT_TRUE(static_cast<bool>(P)) << P.getError().str();
  const FunDef *Main = P->findFun("main");
  ASSERT_NE(Main, nullptr);
  const std::vector<Type> &Ret = Main->RetTypes;
  ASSERT_LE(B->RelTol.size(), Ret.size()) << "a tolerance past the results";

  std::vector<Value> Want;
  for (const Type &T : Ret) {
    PrimValue One = oneOf(T.elemKind());
    Want.push_back(T.isScalar()
                       ? Value::scalar(One)
                       : Value::filledArray(T.elemKind(),
                                            std::vector<int64_t>(T.rank(), 2),
                                            One));
  }
  for (size_t J = 0; J < Ret.size(); ++J) {
    double Tol = J < B->RelTol.size() ? B->RelTol[J] : 0;
    if (Tol > 0) {
      EXPECT_TRUE(isFloatKind(Ret[J].elemKind()))
          << "output " << J << " is not a float";
      EXPECT_LE(Tol, 1e-5) << "output " << J;
    }
    std::vector<Value> Got = Want;
    if (Got[J].isScalar()) {
      Got[J] = Value::scalar(nudged(Got[J].getScalar()));
    } else {
      std::vector<PrimValue> &Flat = Got[J].flatMut();
      Flat.back() = nudged(Flat.back());
    }
    std::string Diff = firstDifference(Got, Want, B->RelTol);
    if (Tol > 0)
      EXPECT_EQ(Diff, "") << "output " << J << " declares " << Tol;
    else
      EXPECT_EQ(Diff.rfind("output " + std::to_string(J) + " differs", 0), 0u)
          << "output " << J << ": " << Diff;
  }
}

TEST_P(BenchmarkSweep, ReferenceConfigurationRuns) {
  const BenchmarkDef *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  auto R = runBenchmark(*B, refCompilerOptions(B->Ref),
                        gpusim::DeviceParams::gtx780());
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_GT(R->Cost.TotalCycles, 0);
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkSweep,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(BenchmarkShape, WinnersAndLosersMatchThePaper) {
  // The paper's qualitative claims: Futhark wins big on NN, wins on
  // K-means/Backprop/Myocyte/Crystal/N-body, and loses on CFD/HotSpot/
  // LavaMD (GTX).  Checked with loose bounds so the test is robust to
  // cost-model adjustments.
  struct Expect {
    const char *Name;
    double Lo, Hi;
  };
  const Expect Cases[] = {
      {"nn", 8, 40},         {"kmeans", 1.5, 6},   {"backprop", 1.3, 5},
      {"myocyte", 2, 10},    {"crystal", 2.5, 10}, {"nbody", 3, 14},
      {"cfd", 0.5, 1.0},     {"hotspot", 0.5, 1.0}, {"lavamd", 0.4, 1.0},
      {"locvolcalib", 0.4, 1.0},
  };
  for (const Expect &E : Cases) {
    const BenchmarkDef *B = findBenchmark(E.Name);
    ASSERT_NE(B, nullptr) << E.Name;
    auto S = measureSpeedup(*B, gpusim::DeviceParams::gtx780());
    ASSERT_TRUE(static_cast<bool>(S)) << E.Name << ": "
                                      << S.getError().str();
    EXPECT_GE(S->Speedup, E.Lo) << E.Name;
    EXPECT_LE(S->Speedup, E.Hi) << E.Name;
  }
}

TEST(BenchmarkShape, NNGainsLessOnTheAMDDevice) {
  // Section 6.1: NN's speedup is smaller on the W8100 because of kernel
  // launch overhead.
  const BenchmarkDef *B = findBenchmark("nn");
  auto G = measureSpeedup(*B, gpusim::DeviceParams::gtx780());
  auto A = measureSpeedup(*B, gpusim::DeviceParams::w8100());
  ASSERT_TRUE(static_cast<bool>(G) && static_cast<bool>(A));
  EXPECT_LT(A->Speedup, G->Speedup / 1.5);
}

TEST(BenchmarkShape, HotSpotCrossoverBetweenDevices) {
  // The reference's time tiling pays off on the NVIDIA-like device but
  // not on the AMD-like one: the speedup crosses 1.0 between them.
  const BenchmarkDef *B = findBenchmark("hotspot");
  auto G = measureSpeedup(*B, gpusim::DeviceParams::gtx780());
  auto A = measureSpeedup(*B, gpusim::DeviceParams::w8100());
  ASSERT_TRUE(static_cast<bool>(G) && static_cast<bool>(A));
  EXPECT_LT(G->Speedup, 1.0);
  EXPECT_GT(A->Speedup, 1.0);
}

TEST(BenchmarkShape, AblationDirectionsHold) {
  // Disabling an optimisation never helps the benchmarks the paper lists
  // as depending on it.
  struct Case {
    const char *Bench;
    enum { Fusion, Coalescing, Tiling } What;
  };
  const Case Cases[] = {{"crystal", Case::Fusion},
                        {"myocyte", Case::Coalescing},
                        {"nbody", Case::Tiling},
                        {"mriq", Case::Tiling}};
  for (const Case &C : Cases) {
    const BenchmarkDef *B = findBenchmark(C.Bench);
    ASSERT_NE(B, nullptr);
    CompilerOptions Off;
    if (C.What == Case::Fusion)
      Off.EnableFusion = false;
    else if (C.What == Case::Coalescing)
      Off.Locality.EnableCoalescing = false;
    else
      Off.Locality.EnableTiling = false;
    auto Full = runBenchmark(*B, CompilerOptions{},
                             gpusim::DeviceParams::gtx780());
    auto Disabled = runBenchmark(*B, Off, gpusim::DeviceParams::gtx780());
    ASSERT_TRUE(static_cast<bool>(Full) && static_cast<bool>(Disabled))
        << C.Bench;
    EXPECT_GT(Disabled->Cost.TotalCycles, Full->Cost.TotalCycles * 1.05)
        << C.Bench << ": disabling the optimisation should cost >5%";
  }
}
