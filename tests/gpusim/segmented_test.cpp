//===- segmented_test.cpp - Segmented kernel edge cases ---------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Exercises the segmented-reduction/scan machinery (footnote 5 / rule G5)
// on the simulated device: empty inputs, single elements, non-commutative
// operators, per-segment independence, and the two thread mappings
// (thread-per-segment with a grid, parallel-within-segment without).
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "gpusim/Device.h"
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

std::vector<Value> runOnDevice(const std::string &Src,
                               const std::vector<Value> &Args) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  if (!C)
    return {};
  Device D;
  auto R = D.runMain(C->P, Args);
  EXPECT_TRUE(static_cast<bool>(R)) << R.getError().str();
  return R ? std::move(R->Outputs) : std::vector<Value>{};
}

} // namespace

TEST(SegmentedTest, EmptyReduceYieldsNeutral) {
  auto R = runOnDevice(
      "fun main (n: i32) (xs: [n]i32): i32 = reduce (+) 0 xs",
      {iv(0), ivec({})});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], iv(0));
}

TEST(SegmentedTest, SingleElementReduce) {
  auto R = runOnDevice(
      "fun main (n: i32) (xs: [n]i32): i32 = reduce (+) 0 xs",
      {iv(1), ivec({42})});
  EXPECT_EQ(R[0], iv(42));
}

TEST(SegmentedTest, EmptyScanYieldsEmpty) {
  auto R = runOnDevice(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = scan (+) 0 xs",
      {iv(0), ivec({})});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].numElems(), 0);
}

TEST(SegmentedTest, NonCommutativeOperatorOrderPreserved) {
  // Matrix-like 2x2 "operator" encoded on pairs would be overkill; use
  // string-concat-like order sensitivity via f(a,b) = a*10 + b on digits.
  // Associative? (a*10+b)*10+c == a*100+b*10+c: yes on digit streams with
  // neutral 0 (leading zeros vanish).
  auto R = runOnDevice(
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  reduce (\\(a: i32) (b: i32): i32 -> a * 10 + b) 0 xs",
      {iv(4), ivec({1, 2, 3, 4})});
  EXPECT_EQ(R[0], iv(1234));
}

TEST(SegmentedTest, SegmentsAreIndependent) {
  // Per-row maxima of a matrix with adversarial values.
  auto R = runOnDevice(
      "fun main (a: [n][m]i32): [n]i32 =\n"
      "  map (\\(row: [m]i32): i32 -> reduce max 0 row) a",
      {Value::array(ScalarKind::I32, {3, 2},
                    {PrimValue::makeI32(9), PrimValue::makeI32(1),
                     PrimValue::makeI32(2), PrimValue::makeI32(8),
                     PrimValue::makeI32(5), PrimValue::makeI32(5)})});
  EXPECT_EQ(R[0], ivec({9, 8, 5}));
}

TEST(SegmentedTest, SegScanMatchesInterpreterPerSegment) {
  const char *Src = "fun main (a: [n][m]i32): [n][m]i32 =\n"
                    "  map (\\(row: [m]i32): [m]i32 -> scan (+) 0 row) a";
  std::vector<int64_t> Flat = randomInts(24, 99, 0, 9);
  std::vector<PrimValue> Data;
  for (int64_t X : Flat)
    Data.push_back(PrimValue::makeI32(static_cast<int32_t>(X)));
  Value In = Value::array(ScalarKind::I32, {4, 6}, Data);

  auto Want = fuzz::referenceRun(Src, {In});
  ASSERT_OK(Want);

  auto Got = runOnDevice(Src, {In});
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0], (*Want)[0]);
}

TEST(SegmentedTest, TupleReduceOnDevice) {
  // Two accumulators (min + argmin), the NN operator.
  auto R = runOnDevice(
      "fun main (n: i32) (xs: [n]i32): (i32, i32) =\n"
      "  reduce (\\(v1: i32, i1: i32) (v2: i32, i2: i32): (i32, i32) ->\n"
      "            if v1 < v2 then (v1, i1) else (v2, i2))\n"
      "         (1000000, -1) (zip xs (iota n))",
      {iv(6), ivec({5, 3, 8, 1, 9, 1})});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0], iv(1));
  // With the strict < the fold keeps the *right* operand on ties, so the
  // later duplicate minimum (index 5) wins — matching the interpreter's
  // left-fold semantics.
  EXPECT_EQ(R[1], iv(5));
}

TEST(SegmentedTest, ManySmallSegments) {
  // 64 segments of width 3 — exercises warp batching across segments in
  // thread-per-segment mode.
  std::vector<PrimValue> Data;
  for (int I = 0; I < 64 * 3; ++I)
    Data.push_back(PrimValue::makeI32(I % 7));
  auto R = runOnDevice(
      "fun main (a: [n][m]i32): [n]i32 =\n"
      "  map (\\(row: [m]i32): i32 -> reduce (+) 0 row) a",
      {Value::array(ScalarKind::I32, {64, 3}, Data)});
  ASSERT_EQ(R.size(), 1u);
  for (int I = 0; I < 64; ++I) {
    int Want = (3 * I) % 7 + (3 * I + 1) % 7 + (3 * I + 2) % 7;
    EXPECT_EQ(R[0].at({I}).asInt64(), Want) << "segment " << I;
  }
}

TEST(SegmentedTest, GridlessReduceCoalesces) {
  // A full (gridless) reduction parallelises within the segment: its
  // element reads are consecutive -> near-minimal transactions.
  NameSource NS;
  auto C = compileSource(
      "fun main (n: i32) (xs: [n]i32): i32 = reduce (+) 0 xs", NS);
  ASSERT_OK(C);
  Device D;
  auto R = D.runMain(C->P, {iv(4096), ivec(randomInts(4096, 3, 0, 9))});
  ASSERT_OK(R);
  // 4096 i32 reads = 16 KiB = 128 segments of 128 B (plus result writes).
  EXPECT_LE(R->Cost.GlobalTransactions, 256);
}

TEST(SegmentedTest, VectorisedOperatorFallbackWithoutG5) {
  // With G5 disabled the vectorised reduce runs with array-valued
  // elements; results must be identical.
  const char *Src =
      "fun main (k: i32) (n: i32) (ms: [n]i32): [k]i32 =\n"
      "  let incr = map (\\(c: i32): [k]i32 ->\n"
      "        let z = replicate k 0\n"
      "        in z with [c] <- 1) ms\n"
      "  in reduce (map (+)) (replicate k 0) incr";
  std::vector<Value> Args = {iv(4), iv(50), ivec(randomInts(50, 8, 0, 3))};

  NameSource NS1, NS2;
  auto CG5 = compileSource(Src, NS1);
  CompilerOptions NoG5;
  NoG5.Flatten.EnableSegReduce = false;
  auto CNo = compileSource(Src, NS2, NoG5);
  ASSERT_OK(CG5);
  ASSERT_OK(CNo);
  EXPECT_GE(CG5->Flatten.VectorisedReduceInterchanges, 1);
  EXPECT_EQ(CNo->Flatten.VectorisedReduceInterchanges, 0);

  Device D;
  auto R1 = D.runMain(CG5->P, Args);
  auto R2 = D.runMain(CNo->P, Args);
  ASSERT_OK(R1);
  ASSERT_OK(R2);
  EXPECT_EQ(R1->Outputs[0], R2->Outputs[0]);
}
