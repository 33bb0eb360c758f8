//===- device_test.cpp - End-to-end compiler + simulator tests -------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Full-pipeline correctness (device results == reference interpreter on
// the unoptimised program) and cost-model properties: coalescing reduces
// transactions, tiling reduces transactions, fusion reduces traffic, and
// uncoalesced access costs roughly a warp's worth more.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;
using namespace fut::gpusim;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}
Value fvec(const std::vector<double> &Xs) {
  return makeVectorValue(ScalarKind::F32, Xs);
}

/// Compiles + runs on the device, checking outputs against the reference
/// interpretation of the unoptimised program; returns the cost report.
CostReport runChecked(const std::string &Src, const std::vector<Value> &Args,
                      CompilerOptions Opts = {},
                      DeviceParams DP = DeviceParams::gtx780()) {
  auto Want = fuzz::referenceRun(Src, Args);
  EXPECT_TRUE(static_cast<bool>(Want)) << Want.getError().str();

  NameSource NS;
  auto C = compileSource(Src, NS, Opts);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  if (!C)
    return {};

  Device D(DP);
  auto R = D.runMain(C->P, Args);
  EXPECT_TRUE(static_cast<bool>(R))
      << R.getError().str() << "\n"
      << printProgram(C->P);
  if (!R || !Want)
    return {};

  EXPECT_EQ(R->Outputs.size(), Want->size());
  for (size_t I = 0; I < Want->size() && I < R->Outputs.size(); ++I)
    EXPECT_TRUE(R->Outputs[I].approxEqual((*Want)[I]))
        << "result " << I << ":\ndevice: " << R->Outputs[I].str()
        << "\nreference: " << (*Want)[I].str() << "\n"
        << printProgram(C->P);
  return R->Cost;
}

Value matrix(int64_t R, int64_t C, uint64_t Seed) {
  return makeMatrixValue(ScalarKind::F32, R, C,
                         randomDoubles(R * C, Seed, 0, 10));
}

} // namespace

TEST(DeviceTest, MapKernelRuns) {
  CostReport Cost = runChecked(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs",
      {iv(100), ivec(randomInts(100, 1))});
  EXPECT_EQ(Cost.KernelLaunches, 1);
  EXPECT_GT(Cost.GlobalTransactions, 0);
  EXPECT_GT(Cost.TotalCycles, 0);
}

TEST(DeviceTest, CoalescedMapUsesFewTransactions) {
  // 1024 reads + 1024 writes of i32, perfectly coalesced:
  // 2 * 1024 * 4B / 128B = 64 transactions.
  CostReport Cost = runChecked(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs",
      {iv(1024), ivec(randomInts(1024, 2))});
  EXPECT_LE(Cost.GlobalTransactions, 80);
  EXPECT_GE(Cost.GlobalTransactions, 64);
}

TEST(DeviceTest, ReduceOnDevice) {
  std::vector<int64_t> Data = randomInts(1000, 3, 0, 10);
  int64_t Want = 0;
  for (int64_t X : Data)
    Want += X;
  NameSource NS;
  auto C = compileSource(
      "fun main (n: i32) (xs: [n]i32): i32 = reduce (+) 0 xs", NS);
  ASSERT_OK(C);
  Device D;
  auto R = D.runMain(C->P, {iv(1000), ivec(Data)});
  ASSERT_OK(R);
  EXPECT_EQ(R->Outputs[0].getScalar().getInt(), Want);
}

TEST(DeviceTest, RowSumsCoalescingReducesCost) {
  // map (\row -> reduce (+) 0 row): uncoalesced without the transposition
  // optimisation.  Compare transactions with coalescing on and off.
  const char *Src = "fun main (a: [n][m]f32): [n]f32 =\n"
                    "  map (\\(row: [m]f32): f32 ->\n"
                    "         reduce (+) 0.0 row) a";
  Value A = matrix(64, 64, 11);

  CompilerOptions On;
  CompilerOptions Off;
  Off.Locality.EnableCoalescing = false;
  CostReport COn = runChecked(Src, {A}, On);
  CostReport COff = runChecked(Src, {A}, Off);

  EXPECT_LT(COn.GlobalTransactions, COff.GlobalTransactions)
      << "coalescing should reduce memory transactions";
  // Uncoalesced segment-striding costs about a warp's factor more.
  EXPECT_GE(static_cast<double>(COff.GlobalTransactions) /
                std::max<int64_t>(1, COn.GlobalTransactions),
            4.0);
}

TEST(DeviceTest, TilingReducesTransactions) {
  // The N-body pattern: every thread reads the whole invariant array.
  const char *Src =
      "fun main (n: i32) (bodies: [n]f32): [n]f32 =\n"
      "  map (\\(p: f32): f32 ->\n"
      "         reduce (+) 0.0 (map (\\(q: f32): f32 -> q - p) bodies))\n"
      "      bodies";
  std::vector<Value> Args = {iv(128), fvec(randomDoubles(128, 5))};

  CompilerOptions On;
  CompilerOptions Off;
  Off.Locality.EnableTiling = false;
  CostReport COn = runChecked(Src, Args, On);
  CostReport COff = runChecked(Src, Args, Off);

  EXPECT_GT(COn.LocalAccesses, 0) << "tiled reads go through local memory";
  EXPECT_LT(COn.GlobalTransactions, COff.GlobalTransactions);
}

TEST(DeviceTest, FusionReducesTraffic) {
  const char *Src = "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                    "  map (+1) (map (*2) (map (+3) xs))";
  std::vector<Value> Args = {iv(2048), ivec(randomInts(2048, 7))};

  CompilerOptions Fused;
  CompilerOptions Unfused;
  Unfused.EnableFusion = false;
  CostReport CF = runChecked(Src, Args, Fused);
  CostReport CU = runChecked(Src, Args, Unfused);

  EXPECT_EQ(CF.KernelLaunches, 1);
  EXPECT_EQ(CU.KernelLaunches, 3);
  EXPECT_LT(CF.GlobalTransactions, CU.GlobalTransactions);
  EXPECT_LT(CF.TotalCycles, CU.TotalCycles);
}

TEST(DeviceTest, HostLoopLaunchesKernelPerIteration) {
  const char *Src =
      "fun main (n: i32) (xs: [n]f32) (iters: i32): [n]f32 =\n"
      "  loop (a = xs) for t < iters do map (\\(x: f32): f32 -> x * 0.9) a";
  CostReport Cost = runChecked(Src, {iv(256), fvec(randomDoubles(256, 9)),
                                     iv(5)});
  EXPECT_EQ(Cost.KernelLaunches, 5);
}

TEST(DeviceTest, KMeansCountsFullPipeline) {
  const char *Src =
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  stream_red (map (+))\n"
      "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
      "       loop (acc) for i < chunksize do\n"
      "         let cluster = chunk[i]\n"
      "         in acc with [cluster] <- acc[cluster] + 1)\n"
      "    (replicate k 0) membership";
  std::vector<int64_t> Member = randomInts(500, 13, 0, 4);
  CostReport Cost = runChecked(Src, {iv(5), iv(500), ivec(Member)});
  EXPECT_GE(Cost.KernelLaunches, 2); // chunked fold + segmented combine
}

TEST(DeviceTest, LaunchOverheadDiffersBetweenDevices) {
  const char *Src = "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs";
  std::vector<Value> Args = {iv(64), ivec(randomInts(64, 17))};
  CostReport A = runChecked(Src, Args, {}, DeviceParams::gtx780());
  CostReport B = runChecked(Src, Args, {}, DeviceParams::w8100());
  // A tiny kernel is dominated by launch overhead: the W8100-like device
  // must be slower (the NN effect of Section 6.1).
  EXPECT_GT(B.KernelCycles, A.KernelCycles);
}

TEST(DeviceTest, SequentialHostReduceForcesTransfer) {
  // A program whose reduce is kept on the host (kernels disabled) pays
  // host cycles; the device version does not.
  const char *Src = "fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce (+) 0 (map (*2) xs)";
  std::vector<Value> Args = {iv(4096), ivec(randomInts(4096, 19))};

  NameSource NS1;
  auto OnDev = compileSource(Src, NS1);
  ASSERT_OK(OnDev);
  NameSource NS2;
  CompilerOptions NoKernels;
  NoKernels.ExtractKernels = false;
  auto OnHost = compileSource(Src, NS2, NoKernels);
  ASSERT_OK(OnHost);

  Device D;
  auto RDev = D.runMain(OnDev->P, Args);
  auto RHost = D.runMain(OnHost->P, Args);
  ASSERT_OK(RDev);
  ASSERT_OK(RHost);
  EXPECT_EQ(RDev->Outputs[0], RHost->Outputs[0]);
  EXPECT_GT(RHost->Cost.HostCycles, RDev->Cost.HostCycles * 10);
  EXPECT_LT(RDev->Cost.TotalCycles, RHost->Cost.TotalCycles);
}

TEST(DeviceTest, MatMulLikeNestedKernel) {
  const char *Src =
      "fun main (a: [n][m]f32) (b: [m][p]f32): [n][p]f32 =\n"
      "  map (\\(arow: [m]f32): [p]f32 ->\n"
      "         map (\\(j: i32): f32 ->\n"
      "                let col = map (\\(i: i32): f32 -> b[i, j]) (iota m)\n"
      "                in reduce (+) 0.0 (map (*) arow col))\n"
      "             (iota p))\n"
      "      a";
  CostReport Cost = runChecked(Src, {matrix(8, 12, 21), matrix(12, 6, 22)});
  EXPECT_GE(Cost.KernelLaunches, 1);
}

TEST(DeviceTest, CostReportPrints) {
  CostReport Cost = runChecked(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs",
      {iv(32), ivec(randomInts(32, 23))});
  std::string S = Cost.str();
  EXPECT_NE(S.find("cycles="), std::string::npos);
  EXPECT_NE(S.find("launches=1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// In-kernel shape checks
//===----------------------------------------------------------------------===//

const char *kKernelReshapeSrc =
    "fun main (n: i32) (m: i32) (xs0: [n]i32): [n]i32 =\n"
    "  map (\\(i: i32): i32 ->\n"
    "         let xs = map (\\(j: i32): i32 -> xs0[i] + j) (iota 4)\n"
    "         let ys = reshape (m, 2) xs\n"
    "         in reduce (+) 0 (map (\\(r: [2]i32): i32 -> r[0] + r[1]) ys))\n"
    "      (iota n)\n";

/// Both the device and the reference interpreter must reject the run
/// with \p Msg and the same error kind.
void expectKernelError(const Program &Compiled, const std::string &Src,
                       const std::vector<Value> &Args, const char *Msg,
                       ErrorKind Kind) {
  Device D;
  auto R = D.runMain(Compiled, Args);
  ASSERT_FALSE(static_cast<bool>(R)) << "device accepted the run";
  EXPECT_EQ(R.getError().Message, Msg);
  EXPECT_EQ(R.getError().Kind, Kind);

  auto Want = fuzz::referenceRun(Src, Args);
  ASSERT_FALSE(static_cast<bool>(Want)) << "interpreter accepted the run";
  EXPECT_EQ(Want.getError().Message, Msg);
  EXPECT_EQ(Want.getError().Kind, Kind);
}

TEST(DeviceTest, KernelReshapeChecksElementCount) {
  NameSource NS;
  auto C = compileSource(kKernelReshapeSrc, NS);
  ASSERT_TRUE(static_cast<bool>(C)) << C.getError().str();
  // Growing the array used to read past the payload; shrinking it
  // silently dropped elements.
  for (int32_t M : {3, 1}) {
    SCOPED_TRACE(M);
    expectKernelError(C->P, kKernelReshapeSrc, {iv(2), iv(M), ivec({1, 2})},
                      "reshape changes number of elements",
                      ErrorKind::Compile);
  }
  expectKernelError(C->P, kKernelReshapeSrc, {iv(2), iv(-2), ivec({1, 2})},
                    "reshape to a negative dimension", ErrorKind::Runtime);
  // A reshape that keeps the element count still runs.
  runChecked(kKernelReshapeSrc, {iv(2), iv(2), ivec({1, 2})});
}

/// The first rearrange inside a kernel's thread body nested in \p B.
RearrangeExp *findKernelRearrange(Body &B, bool InKernel = false) {
  for (Stm &S : B.Stms) {
    if (auto *X = expDynCast<RearrangeExp>(S.E.get()); X && InKernel)
      return X;
    bool Kernel = InKernel || S.E->kind() == ExpKind::Kernel;
    RearrangeExp *Found = nullptr;
    forEachChildBody(*S.E, [&](Body &Inner) {
      if (!Found)
        Found = findKernelRearrange(Inner, Kernel);
    });
    if (Found)
      return Found;
  }
  return nullptr;
}

TEST(DeviceTest, KernelRearrangeChecksRank) {
  const char *Src =
      "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
      "  map (\\(x: i32): i32 ->\n"
      "         let m = map (\\(i: i32): [3]i32 ->\n"
      "                        map (\\(j: i32): i32 -> x + i * j) (iota 3))\n"
      "                     (iota 2)\n"
      "         let t = transpose m\n"
      "         in reduce (+) 0 (map (\\(r: [2]i32): i32 -> r[0] * r[1]) t))\n"
      "      xs\n";
  std::vector<Value> Args{iv(3), ivec({1, 2, 3})};
  runChecked(Src, Args);

  // The verifier rejects a rank-mismatched permutation at compile time,
  // so plant one in the compiled kernel: the simulator must refuse it
  // like the interpreter does instead of indexing past the shape.
  NameSource NS;
  auto C = compileSource(Src, NS);
  ASSERT_TRUE(static_cast<bool>(C)) << C.getError().str();
  RearrangeExp *X = findKernelRearrange(C->P.findFun("main")->FBody);
  ASSERT_NE(X, nullptr) << printProgram(C->P);
  X->Perm = {0};
  Device D;
  auto R = D.runMain(C->P, Args);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Message, "rearrange rank mismatch");
  EXPECT_EQ(R.getError().Kind, ErrorKind::Compile);
}

TEST(DeviceTest, InKernelStreamRedCombineBindsParameterDims) {
  // The sequentialised stream_red's combine is map<k> over its [k]
  // parameters: like any closed operator, k is bound from the
  // arguments' shapes when the combine is applied.
  const char *Src =
      "fun main (n: i32) (k: i32) (xss: [n][8]i32): [n][k]i32 =\n"
      "  map (\\(xs: [8]i32): [k]i32 ->\n"
      "         stream_red (map (+))\n"
      "           (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
      "              loop (acc) for i < chunksize do\n"
      "                let c = chunk[i] % k\n"
      "                in acc with [c] <- acc[c] + 1)\n"
      "           (replicate k 0) xs) xss\n";
  Value Xss = makeMatrixValue(ScalarKind::I32, 4, 8,
                              randomDoubles(32, 41, 0, 50));
  runChecked(Src, {iv(4), iv(3), Xss});
}

//===----------------------------------------------------------------------===//
// Randomised full-pipeline semantics sweep
//===----------------------------------------------------------------------===//

struct E2ECase {
  const char *Name;
  const char *Src;
};

class DevicePreservation : public ::testing::TestWithParam<E2ECase> {};

TEST_P(DevicePreservation, DeviceMatchesReference) {
  std::vector<int64_t> Data = randomInts(77, 31, 0, 20);
  runChecked(GetParam().Src, {iv(77), ivec(Data)});
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DevicePreservation,
    ::testing::Values(
        E2ECase{"scanmap", "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                           "  scan (+) 0 (map (+1) xs)"},
        E2ECase{"updateloop",
                "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                "  loop (a = replicate n 0) for i < n do\n"
                "    a with [i] <- xs[i] * 2"},
        E2ECase{"maxofsquares",
                "fun main (n: i32) (xs: [n]i32): i32 =\n"
                "  reduce max 0 (map (\\(x: i32): i32 -> x * x) xs)"},
        E2ECase{"nestedseq",
                "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                "  map (\\(x: i32): i32 ->\n"
                "         loop (acc = 0) for i < 8 do acc * 2 + x) xs"},
        E2ECase{"histogram",
                "fun main (n: i32) (xs: [n]i32): [21]i32 =\n"
                "  stream_red (map (+))\n"
                "    (\\(acc: *[21]i32) (c: [csz]i32): [21]i32 ->\n"
                "       loop (acc) for i < csz do\n"
                "         let b = c[i] % 21\n"
                "         in acc with [b] <- acc[b] + 1)\n"
                "    (replicate 21 0) xs"}),
    [](const ::testing::TestParamInfo<E2ECase> &Info) {
      return Info.param.Name;
    });
