//===- vjp_test.cpp - Tests for reverse-mode AD (VJP) ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// Every compile here runs with the default options, i.e. the type-rederiving
// IR verifier after every pass and the memory-plan verifier on the flattened
// result — so each test doubles as "the generated adjoints pass the
// verifiers unmodified".
//
//===----------------------------------------------------------------------===//

#include "ad/Vjp.h"

#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace fut;
using namespace fut::test;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value dv(double V) { return Value::scalar(PrimValue::makeF64(V)); }
Value dvec(const std::vector<double> &Xs) {
  return makeVectorValue(ScalarKind::F64, Xs);
}

/// Compiles \p Src with --vjp=main through the full default pipeline
/// (verifier on at every pass boundary, memory planner + plan verifier on
/// the flattened result).
ErrorOr<CompileResult> compileVjp(const std::string &Src,
                                  CompilerOptions O = {}) {
  NameSource NS;
  O.VJP = "main";
  return compileSource(Src, NS, O);
}

/// Runs a function on the reference interpreter, whose in-place updates
/// consume their source (the semantics the AD save-on-consume copies
/// assume).
std::vector<Value> interpFun(const Program &P, const std::string &Fun,
                             const std::vector<Value> &Args) {
  Interpreter I(P);
  auto R = I.runFunction(Fun, Args);
  EXPECT_TRUE(static_cast<bool>(R)) << R.getError().str();
  return R ? R.take() : std::vector<Value>{};
}

/// Central finite differences of a scalar-result primal with respect to
/// one component of one argument, through the interpreter.
double centralFd(const Program &P, const std::vector<Value> &Args,
                 size_t ArgIdx, int64_t Elem) {
  auto Perturb = [&](double H) {
    std::vector<Value> A = Args;
    if (A[ArgIdx].isScalar()) {
      A[ArgIdx] = dv(A[ArgIdx].getScalar().getFloat() + H);
    } else {
      Value V = A[ArgIdx];
      V.flatMut()[static_cast<size_t>(Elem)] = PrimValue::makeF64(
          V.flat()[static_cast<size_t>(Elem)].getFloat() + H);
      A[ArgIdx] = V;
    }
    auto R = interpFun(P, "main", A);
    return R[0].getScalar().getFloat();
  };
  double X = Args[ArgIdx].isScalar()
                 ? Args[ArgIdx].getScalar().getFloat()
                 : Args[ArgIdx].flat()[static_cast<size_t>(Elem)].getFloat();
  double H = 1e-6 * std::max(1.0, std::fabs(X));
  return (Perturb(H) - Perturb(-H)) / (2 * H);
}

} // namespace

TEST(VjpTest, ScalarSquare) {
  auto C = compileVjp("fun main (x: f64): f64 = x * x");
  ASSERT_OK(C);
  // main_vjp : (x, seed) -> (x*x, 2*x*seed)
  auto R = interpFun(C->P, "main_vjp", {dv(3.0), dv(1.0)});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 9.0);
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), 6.0);

  // The seed scales the pullback linearly.
  R = interpFun(C->P, "main_vjp", {dv(3.0), dv(-2.5)});
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), -15.0);
}

TEST(VjpTest, ScalarChainOfUnOps) {
  auto C = compileVjp("fun main (x: f64): f64 = exp (sin (x * x))");
  ASSERT_OK(C);
  double X = 0.7;
  auto R = interpFun(C->P, "main_vjp", {dv(X), dv(1.0)});
  double Want = std::exp(std::sin(X * X)) * std::cos(X * X) * 2 * X;
  EXPECT_NEAR(R[1].getScalar().getFloat(), Want, 1e-12);
}

TEST(VjpTest, MapReduceSumOfSquares) {
  auto C = compileVjp(
      "fun main (n: i32) (xs: [n]f64): f64 =\n"
      "  reduce (+) 0.0f64 (map (\\(x: f64): f64 -> x * x) xs)");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, -2.0, 3.5, 0.0};
  auto R = interpFun(C->P, "main_vjp", {iv(4), dvec(Xs), dv(1.0)});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 1.0 + 4.0 + 12.25);
  ASSERT_TRUE(R[1].isArray());
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), 2 * Xs[I]) << "at " << I;
}

TEST(VjpTest, MapFreeVariableGetsReducedAdjoint) {
  // d/dc sum(c * x_i) = sum(x_i): the free variable's per-element
  // contributions must be reduced with (+).
  auto C = compileVjp(
      "fun main (n: i32) (c: f64) (xs: [n]f64): f64 =\n"
      "  reduce (+) 0.0f64 (map (\\(x: f64): f64 -> c * x) xs)");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, 2.0, 3.0};
  auto R = interpFun(C->P, "main_vjp", {iv(3), dv(2.0), dvec(Xs), dv(1.0)});
  ASSERT_EQ(R.size(), 3u);
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), 6.0); // adj(c)
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[2].flat()[I].getFloat(), 2.0); // adj(xs) = c
}

TEST(VjpTest, DotProduct) {
  auto C = compileVjp(
      "fun main (n: i32) (xs: [n]f64) (ys: [n]f64): f64 =\n"
      "  reduce (+) 0.0f64 (map (\\(x: f64) (y: f64): f64 -> x * y) xs ys)");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, 2.0, 3.0}, Ys{4.0, 5.0, 6.0};
  auto R = interpFun(C->P, "main_vjp", {iv(3), dvec(Xs), dvec(Ys), dv(1.0)});
  ASSERT_EQ(R.size(), 3u);
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 32.0);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Ys[I]);
    EXPECT_DOUBLE_EQ(R[2].flat()[I].getFloat(), Xs[I]);
  }
}

TEST(VjpTest, ReduceMulExchangesPrefixSuffix) {
  // d/dx_i prod(xs) = prod_{j != i} x_j, including through a zero.
  auto C = compileVjp("fun main (n: i32) (xs: [n]f64): f64 =\n"
                      "  reduce (*) 1.0f64 xs");
  ASSERT_OK(C);
  std::vector<double> Xs{2.0, 0.0, 3.0, -1.5};
  auto R = interpFun(C->P, "main_vjp", {iv(4), dvec(Xs), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 0.0);
  for (size_t I = 0; I < Xs.size(); ++I) {
    double Want = 1.0;
    for (size_t J = 0; J < Xs.size(); ++J)
      if (J != I)
        Want *= Xs[J];
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want) << "at " << I;
  }
}

TEST(VjpTest, ReduceMaxRoutesSeedToFirstAttainer) {
  auto C = compileVjp("fun main (n: i32) (xs: [n]f64): f64 =\n"
                      "  reduce max 0.0f64 xs");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, 7.0, 3.0, 7.0};
  auto R = interpFun(C->P, "main_vjp", {iv(4), dvec(Xs), dv(2.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 7.0);
  std::vector<double> Want{0.0, 2.0, 0.0, 0.0}; // first attainer only
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want[I]) << "at " << I;
}

TEST(VjpTest, ReduceMaxNeutralAttainsNoAdjoint) {
  // When the neutral element wins, no input element receives the seed.
  auto C = compileVjp("fun main (n: i32) (xs: [n]f64): f64 =\n"
                      "  reduce max 0.0f64 xs");
  ASSERT_OK(C);
  std::vector<double> Xs{-1.0, -7.0, -3.0};
  auto R = interpFun(C->P, "main_vjp", {iv(3), dvec(Xs), dv(2.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 0.0);
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), 0.0) << "at " << I;
}

TEST(VjpTest, ScanSumIsSuffixSumOfSeeds) {
  auto C = compileVjp("fun main (n: i32) (xs: [n]f64): [n]f64 =\n"
                      "  scan (+) 0.0f64 xs");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> Seeds{1.0, 10.0, 100.0, 1000.0};
  auto R = interpFun(C->P, "main_vjp", {iv(4), dvec(Xs), dvec(Seeds)});
  ASSERT_EQ(R.size(), 2u);
  // adj(x_i) = sum_{j >= i} seed_j.
  std::vector<double> Want{1111.0, 1110.0, 1100.0, 1000.0};
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want[I]) << "at " << I;
}

TEST(VjpTest, LoopPower) {
  // acc = x^n via a loop; d/dx = n * x^(n-1).
  auto C = compileVjp("fun main (x: f64) (n: i32): f64 =\n"
                      "  loop (acc = 1.0f64) for i < n do acc * x");
  ASSERT_OK(C);
  auto R = interpFun(C->P, "main_vjp", {dv(1.5), iv(4), dv(1.0)});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_NEAR(R[0].getScalar().getFloat(), std::pow(1.5, 4), 1e-12);
  EXPECT_NEAR(R[1].getScalar().getFloat(), 4 * std::pow(1.5, 3), 1e-12);
}

TEST(VjpTest, MemoryPlanAccountsTheTape) {
  // A pinned trip count makes the stack-of-iterates statically sized: one
  // tape array of 16 f64 iterates.  The primal plan must stay tape-free,
  // and a runtime trip count must be accounted as symbolic, not silently
  // dropped.
  auto C = compileVjp("fun main (x: f64): f64 =\n"
                      "  loop (acc = 1.0f64) for i < 16 do acc * x * 0.9f64");
  ASSERT_OK(C);
  const mem::FunPlan *FP = C->MemPlan.forFun("main_vjp");
  ASSERT_NE(FP, nullptr);
  EXPECT_EQ(FP->TapeArrays, 1);
  EXPECT_EQ(FP->TapeSymbolic, 0);
  EXPECT_EQ(FP->TapeBytes, 16 * 8);
  const mem::FunPlan *Primal = C->MemPlan.forFun("main");
  ASSERT_NE(Primal, nullptr);
  EXPECT_EQ(Primal->TapeArrays, 0);
  EXPECT_EQ(Primal->TapeBytes, 0);
  EXPECT_NE(C->MemPlan.str().find("stack-of-iterates"), std::string::npos);

  auto D = compileVjp("fun main (x: f64) (n: i32): f64 =\n"
                      "  loop (acc = 1.0f64) for i < n do acc * x");
  ASSERT_OK(D);
  const mem::FunPlan *DP = D->MemPlan.forFun("main_vjp");
  ASSERT_NE(DP, nullptr);
  EXPECT_EQ(DP->TapeArrays, 1);
  EXPECT_EQ(DP->TapeSymbolic, 1);
  EXPECT_EQ(DP->TapeBytes, 0);
}

TEST(VjpTest, LoopOverArrayIterates) {
  // A loop whose merge parameter depends on the previous iterate and an
  // indexed element: acc' = acc * xs[i].  The tape must restore each
  // iterate for the reverse sweep.
  auto C = compileVjp("fun main (n: i32) (xs: [n]f64): f64 =\n"
                      "  loop (acc = 1.0f64) for i < n do acc * xs[i]");
  ASSERT_OK(C);
  std::vector<double> Xs{2.0, 3.0, 4.0};
  auto R = interpFun(C->P, "main_vjp", {iv(3), dvec(Xs), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 24.0);
  std::vector<double> Want{12.0, 8.0, 6.0};
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want[I]) << "at " << I;
}

TEST(VjpTest, InPlaceUpdateMasksOverwrittenCell) {
  // ys[0] is overwritten before the reduce, so xs[0]'s contribution
  // through ys[0] must vanish; the stored value is a constant, so its
  // adjoint is dropped entirely.
  auto C = compileVjp(
      "fun main (n: i32) (xs: [n]f64): f64 =\n"
      "  let ys = map (\\(x: f64): f64 -> x * 2.0f64) xs\n"
      "  let ys[0] = 5.0f64\n"
      "  in reduce (+) 0.0f64 ys");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, 2.0, 3.0};
  auto R = interpFun(C->P, "main_vjp", {iv(3), dvec(Xs), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 5.0 + 4.0 + 6.0);
  std::vector<double> Want{0.0, 2.0, 2.0};
  for (size_t I = 0; I < Xs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want[I]) << "at " << I;
}

TEST(VjpTest, UpdateRoutesAdjointToStoredValue) {
  // The overwritten cell's adjoint flows to the *stored value* x, on top
  // of x's direct contribution: y = [x*2, x*3] with y[0] <- x gives
  // d(sum)/dx = 1 + 3 (cell 0's map contribution is masked out).
  auto C = compileVjp(
      "fun main (x: f64): f64 =\n"
      "  let cs = map (\\(i: i32): f64 -> f64 (i + 2)) (iota 2)\n"
      "  let ys = map (\\(c: f64): f64 -> x * c) cs\n"
      "  let ys[0] = x\n"
      "  in reduce (+) 0.0f64 ys");
  ASSERT_OK(C);
  auto R = interpFun(C->P, "main_vjp", {dv(10.0), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[0].getScalar().getFloat(), 10.0 + 30.0);
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), 4.0);
}

TEST(VjpTest, ReduceByIndexGathersContributions) {
  // hist = reduce_by_index dest (+) 0 is vs; adj(vs_j) = seed[is_j] when
  // the bin is in range, 0 otherwise; adj(dest) = seed.
  auto C = compileVjp(
      "fun main (n: i32) (is: [n]i32) (vs: [n]f64): [4]f64 =\n"
      "  reduce_by_index (replicate 4 0.0f64) (+) 0.0f64 is vs");
  ASSERT_OK(C);
  std::vector<double> Vs{1.0, 2.0, 3.0, 4.0};
  auto R = interpFun(
      C->P, "main_vjp",
      {iv(4), makeIntVectorValue(ScalarKind::I32, {0, 2, 9, 2}),
       dvec(Vs), dvec({1.0, 10.0, 100.0, 1000.0})});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_DOUBLE_EQ(R[0].flat()[0].getFloat(), 1.0);
  EXPECT_DOUBLE_EQ(R[0].flat()[2].getFloat(), 2.0 + 4.0);
  std::vector<double> Want{1.0, 100.0, 0.0, 100.0}; // bin 9 out of range
  for (size_t I = 0; I < Vs.size(); ++I)
    EXPECT_DOUBLE_EQ(R[1].flat()[I].getFloat(), Want[I]) << "at " << I;
}

TEST(VjpTest, InactiveIntParamsGetNoAdjoint) {
  auto C = compileVjp("fun main (n: i32) (x: f64): f64 = x * x");
  ASSERT_OK(C);
  const FunDef *G = C->P.findFun("main_vjp");
  ASSERT_NE(G, nullptr);
  // Params: n, x, seed.  Results: primal, adj(x) — nothing for n.
  EXPECT_EQ(G->Params.size(), 3u);
  EXPECT_EQ(G->RetTypes.size(), 2u);
}

TEST(VjpTest, IfBranchesPullBackSeparately) {
  auto C = compileVjp("fun main (x: f64): f64 =\n"
                      "  if x < 0.0f64 then x * x else x * 3.0f64");
  ASSERT_OK(C);
  auto R = interpFun(C->P, "main_vjp", {dv(-2.0), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), -4.0);
  R = interpFun(C->P, "main_vjp", {dv(2.0), dv(1.0)});
  EXPECT_DOUBLE_EQ(R[1].getScalar().getFloat(), 3.0);
}

TEST(VjpTest, FiniteDifferenceSpotCheck) {
  const char *Src =
      "fun main (n: i32) (xs: [n]f64): f64 =\n"
      "  let ys = map (\\(x: f64): f64 -> exp (x * 0.1f64) + sin x) xs\n"
      "  in reduce (+) 0.0f64 ys";
  auto C = compileVjp(Src);
  ASSERT_OK(C);
  std::vector<double> Xs{0.3, -1.2, 2.7, 0.0, -0.5};
  std::vector<Value> Args{iv(5), dvec(Xs)};
  std::vector<Value> VjpArgs = Args;
  VjpArgs.push_back(dv(1.0));
  auto R = interpFun(C->P, "main_vjp", VjpArgs);
  for (size_t I = 0; I < Xs.size(); ++I) {
    double Fd = centralFd(C->P, Args, 1, static_cast<int64_t>(I));
    EXPECT_NEAR(R[1].flat()[I].getFloat(), Fd, 1e-5) << "at " << I;
  }
}

TEST(VjpTest, DeviceMatchesInterpreter) {
  // The generated adjoint code must survive the full pipeline (fusion,
  // flattening, memory planning — all verified) and run on the simulated
  // device.  Floats may be re-associated by kernel extraction, so the
  // comparison is approximate, not bitwise.
  auto C = compileVjp(
      "fun main (n: i32) (xs: [n]f64): f64 =\n"
      "  reduce (+) 0.0f64 (map (\\(x: f64): f64 -> x * x) xs)");
  ASSERT_OK(C);
  std::vector<double> Xs{1.0, -2.0, 3.5, 0.25};
  std::vector<Value> Args{iv(4), dvec(Xs), dv(1.0)};
  auto FromInterp = interpFun(C->P, "main_vjp", Args);

  DeviceRunOptions RO;
  RO.MemPlan = &C->MemPlan;
  auto R = runOnDevice(C->P, Args, RO, "main_vjp");
  ASSERT_OK(R);
  ASSERT_EQ(R->Outputs.size(), FromInterp.size());
  for (size_t I = 0; I < FromInterp.size(); ++I)
    EXPECT_TRUE(R->Outputs[I].approxEqual(FromInterp[I]))
        << "output " << I << ": " << R->Outputs[I].str() << " vs "
        << FromInterp[I].str();
}

TEST(VjpTest, UnsupportedReductionOperatorIsNamed) {
  EXPECT_ERR_CONTAINS(compileVjp("fun main (n: i32) (xs: [n]f64): f64 =\n"
                                 "  reduce (\\(a: f64) (b: f64): f64 -> "
                                 "a / b) 1.0f64 xs"),
                      "vjp: ");
}

TEST(VjpTest, UnknownFunctionIsNamed) {
  NameSource NS;
  CompilerOptions O;
  O.VJP = "nosuchfun";
  EXPECT_ERR_CONTAINS(compileSource("fun main (x: f64): f64 = x", NS, O),
                      "no function named");
}

TEST(VjpTest, VjpEntersCacheKey) {
  CompilerOptions Plain, Grad;
  Grad.VJP = "main";
  EXPECT_NE(Plain.cacheCanonical(), Grad.cacheCanonical());
  // And the default stays byte-identical (pinned golden hashes elsewhere).
  EXPECT_EQ(Plain.cacheCanonical().find("vjp"), std::string::npos);
  const std::string Src = "fun main (x: f64): f64 = x * x";
  EXPECT_NE(artifactCacheKey(Src, Plain), artifactCacheKey(Src, Grad));
}
