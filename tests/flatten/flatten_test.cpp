//===- flatten_test.cpp - Tests for kernel extraction ----------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Property: flattening preserves semantics (checked against the reference
// interpreter), and produces the kernel structures Section 5 prescribes
// (including the Fig 11 example).
//
//===----------------------------------------------------------------------===//

#include "flatten/Flatten.h"

#include "fusion/Fusion.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "opt/Simplify.h"
#include "parser/Desugar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <utility>

using namespace fut;
using namespace fut::test;

namespace {

struct Compiled {
  Program Before;
  Program After;
  FlattenStats Stats;
};

Compiled compileAndFlatten(const std::string &Src, bool Fuse = true,
                           FlattenOptions Opts = {}) {
  NameSource NS;
  auto P = frontend(Src, NS);
  EXPECT_TRUE(static_cast<bool>(P)) << P.getError().str();
  Compiled Out{Program{}, P ? P.take() : Program{}, {}};
  inlineFunctions(Out.After, NS);
  simplifyProgram(Out.After, NS);
  if (Fuse)
    fuseProgram(Out.After, NS);
  simplifyProgram(Out.After, NS);
  for (const FunDef &F : Out.After.Funs)
    Out.Before.Funs.push_back(
        {F.Name, F.Params, F.RetTypes, cloneBody(F.FBody)});
  Out.Stats = extractKernels(Out.After, NS, Opts);
  simplifyProgram(Out.After, NS);
  return Out;
}

int countKernels(const Body &B, KernelExp::OpKind Op) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (const auto *K = expDynCast<KernelExp>(S.E.get()))
      if (K->Op == Op)
        ++N;
    forEachChildBody(*S.E, [&](const Body &Inner) {
      N += countKernels(Inner, Op);
    });
  }
  return N;
}

/// SOACs remaining at host level (outside kernels) — should always be 0
/// after flattening.
int hostSOACs(const Body &B) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (S.E->isSOAC())
      ++N;
    if (const auto *L = expDynCast<LoopExp>(S.E.get()))
      N += hostSOACs(L->LoopBody);
    if (const auto *I = expDynCast<IfExp>(S.E.get())) {
      N += hostSOACs(I->Then);
      N += hostSOACs(I->Else);
    }
  }
  return N;
}

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}
Value fvec(const std::vector<double> &Xs) {
  return makeVectorValue(ScalarKind::F32, Xs);
}

void expectSame(const Compiled &C, const std::vector<Value> &Args) {
  Interpreter I1(C.Before), I2(C.After);
  auto R1 = I1.run(Args);
  auto R2 = I2.run(Args);
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.getError().str();
  ASSERT_TRUE(static_cast<bool>(R2))
      << R2.getError().str() << "\n"
      << printProgram(C.After);
  ASSERT_EQ(R1->size(), R2->size());
  for (size_t I = 0; I < R1->size(); ++I)
    EXPECT_TRUE((*R1)[I].approxEqual((*R2)[I]))
        << "result " << I << ":\n"
        << (*R1)[I].str() << "\nvs\n"
        << (*R2)[I].str() << "\n"
        << printProgram(C.After);
}

} // namespace

TEST(FlattenTest, SimpleMapBecomesKernel) {
  Compiled C = compileAndFlatten(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = map (+1) xs");
  EXPECT_EQ(C.Stats.ThreadKernels, 1);
  EXPECT_EQ(hostSOACs(C.After.Funs[0].FBody), 0);
  expectSame(C, {iv(4), ivec({1, 2, 3, 4})});
}

TEST(FlattenTest, NestedMapBecomesDeepGrid) {
  Compiled C = compileAndFlatten(
      "fun main (a: [n][m]i32): [n][m]i32 =\n"
      "  map (\\(row: [m]i32): [m]i32 -> map (*2) row) a");
  // One kernel with a two-dimensional grid.
  const Body &B = C.After.Funs[0].FBody;
  bool Found = false;
  std::function<void(const Body &)> Scan = [&](const Body &Bo) {
    for (const Stm &S : Bo.Stms) {
      if (const auto *K = expDynCast<KernelExp>(S.E.get())) {
        Found = true;
        EXPECT_EQ(K->GridDims.size(), 2u) << printProgram(C.After);
      }
      forEachChildBody(std::as_const(*S.E), Scan);
    }
  };
  Scan(B);
  EXPECT_TRUE(Found);
  expectSame(C, {makeMatrixValue(ScalarKind::I32, 2, 3,
                                 {1, 2, 3, 4, 5, 6})});
}

TEST(FlattenTest, MapReduceRowSums) {
  Compiled C = compileAndFlatten(
      "fun main (a: [n][m]f32): [n]f32 =\n"
      "  map (\\(row: [m]f32): f32 -> reduce (+) 0.0 row) a",
      /*Fuse=*/false);
  EXPECT_EQ(C.Stats.SegReduces, 1);
  expectSame(C, {makeMatrixValue(ScalarKind::F32, 3, 2,
                                 {1, 2, 3, 4, 5, 6})});
}

TEST(FlattenTest, PaperIntroExample) {
  Compiled C = compileAndFlatten(
      "fun main (xss: [n][m]f32): ([n][m]f32, [n]f32) =\n"
      "  let r = map (\\(row: [m]f32): ([m]f32, f32) ->\n"
      "       let row2 = map (\\(x: f32): f32 -> x + 1.0) row\n"
      "       let s = reduce (+) 0.0 row\n"
      "       in (row2, s))\n"
      "    xss\n"
      "  in r");
  EXPECT_EQ(hostSOACs(C.After.Funs[0].FBody), 0);
  expectSame(C, {makeMatrixValue(ScalarKind::F32, 2, 3,
                                 {1, 2, 3, 4, 5, 6})});
}

TEST(FlattenTest, HostReduceBecomesSegReduce) {
  Compiled C = compileAndFlatten(
      "fun main (n: i32) (xs: [n]i32): i32 = reduce (+) 0 xs",
      /*Fuse=*/false);
  EXPECT_EQ(C.Stats.SegReduces, 1);
  expectSame(C, {iv(5), ivec({1, 2, 3, 4, 5})});
}

TEST(FlattenTest, HostScanBecomesSegScan) {
  Compiled C = compileAndFlatten(
      "fun main (n: i32) (xs: [n]i32): [n]i32 = scan (+) 0 xs",
      /*Fuse=*/false);
  EXPECT_EQ(C.Stats.SegScans, 1);
  expectSame(C, {iv(5), ivec({1, 2, 3, 4, 5})});
}

TEST(FlattenTest, VectorisedReduceBecomesSegmentedG5) {
  // Rule G5: reduce (map (+)) (replicate k 0) over [n][k] data.
  Compiled C = compileAndFlatten(
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  let increments =\n"
      "    map (\\(cluster: i32): [k]i32 ->\n"
      "           let incr = replicate k 0\n"
      "           let incr[cluster] = 1\n"
      "           in incr)\n"
      "        membership\n"
      "  in reduce (map (+)) (replicate k 0) increments",
      /*Fuse=*/false);
  EXPECT_GE(C.Stats.VectorisedReduceInterchanges, 1)
      << printProgram(C.After);
  expectSame(C, {iv(3), iv(6), ivec({0, 1, 0, 2, 1, 0})});
}

TEST(FlattenTest, MapLoopInterchangeG7) {
  // A loop separating the outer map from an inner map (the LocVolCalib
  // structure): G7 hoists the loop to the host.
  const char *Src =
      "fun main (a: [n][m]f32) (steps: i32): [n][m]f32 =\n"
      "  map (\\(row: [m]f32): [m]f32 ->\n"
      "         loop (r = row) for t < steps do\n"
      "           map (\\(x: f32): f32 -> x * 0.5 + 1.0) r)\n"
      "      a";
  Compiled C = compileAndFlatten(Src);
  EXPECT_EQ(C.Stats.Interchanges, 1) << printProgram(C.After);
  // The loop must now be at host level containing a kernel.
  bool HostLoopWithKernel = false;
  for (const Stm &S : C.After.Funs[0].FBody.Stms)
    if (const auto *L = expDynCast<LoopExp>(S.E.get()))
      HostLoopWithKernel =
          countKernels(L->LoopBody, KernelExp::OpKind::ThreadBody) > 0;
  EXPECT_TRUE(HostLoopWithKernel) << printProgram(C.After);
  expectSame(C, {makeMatrixValue(ScalarKind::F32, 2, 3,
                                 {1, 2, 3, 4, 5, 6}),
                 iv(3)});
}

TEST(FlattenTest, InterchangeDisabledSequentialises) {
  const char *Src =
      "fun main (a: [n][m]f32) (steps: i32): [n][m]f32 =\n"
      "  map (\\(row: [m]f32): [m]f32 ->\n"
      "         loop (r = row) for t < steps do\n"
      "           map (\\(x: f32): f32 -> x * 0.5 + 1.0) r)\n"
      "      a";
  FlattenOptions Opts;
  Opts.EnableInterchange = false;
  Compiled C = compileAndFlatten(Src, true, Opts);
  EXPECT_EQ(C.Stats.Interchanges, 0);
  expectSame(C, {makeMatrixValue(ScalarKind::F32, 2, 3,
                                 {1, 2, 3, 4, 5, 6}),
                 iv(2)});
}

TEST(FlattenTest, IrregularInnerSizeIsSequentialised) {
  // The paper's Fig 11 pattern: scan (+) 0 (iota p) where p is variant to
  // the nest — would create an irregular array, so it is sequentialised.
  const char *Src =
      "fun main (ps: [m]i32): [m]i32 =\n"
      "  map (\\(p: i32): i32 ->\n"
      "         let cs = scan (+) 0 (iota p)\n"
      "         in reduce (+) 0 cs)\n"
      "      ps";
  Compiled C = compileAndFlatten(Src, /*Fuse=*/false);
  EXPECT_GE(C.Stats.SequentialisedSOACs, 1);
  EXPECT_EQ(C.Stats.SegScans, 0);
  expectSame(C, {ivec({1, 2, 3, 4})});
}

TEST(FlattenTest, Fig11ComplicatedNesting) {
  // The (slightly de-contrived) example of Fig 11: an outer map over an
  // inner map with irregular sequential work, plus a loop with a nested
  // map-reduce, distributing into several perfect nests.
  const char *Src =
      "fun main (pss: [m][m]i32) (q: i32): ([m][m]i32, [m][m]i32) =\n"
      "  let r = map (\\(ps: [m]i32): ([m]i32, [m]i32) ->\n"
      "        let ass = map (\\(p: i32): i32 ->\n"
      "                let cs = scan (+) 0 (iota p)\n"
      "                let r2 = reduce (+) 0 cs\n"
      "                in r2 + p) ps\n"
      "        let bs =\n"
      "          loop (ws = ps) for i < q do\n"
      "            map (\\(a: i32) (w: i32): i32 ->\n"
      "                   let d = a * 2\n"
      "                   let e = d + w\n"
      "                   in 2 * e)\n"
      "                ass ws\n"
      "        in (ass, bs)) pss\n"
      "  in r";
  Compiled C = compileAndFlatten(Src);
  EXPECT_GE(C.Stats.Interchanges, 1) << printProgram(C.After);
  EXPECT_EQ(hostSOACs(C.After.Funs[0].FBody), 0);
  expectSame(C, {Value::array(ScalarKind::I32, {2, 2},
                              {PrimValue::makeI32(1), PrimValue::makeI32(2),
                               PrimValue::makeI32(3),
                               PrimValue::makeI32(4)}),
                 iv(3)});
}

TEST(FlattenTest, StreamRedBecomesChunkedKernels) {
  Compiled C = compileAndFlatten(
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  stream_red (map (+))\n"
      "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
      "       loop (acc) for i < chunksize do\n"
      "         let cluster = chunk[i]\n"
      "         in acc with [cluster] <- acc[cluster] + 1)\n"
      "    (replicate k 0) membership");
  EXPECT_GE(C.Stats.ThreadKernels, 1);
  EXPECT_GE(C.Stats.SegReduces, 1);
  EXPECT_EQ(hostSOACs(C.After.Funs[0].FBody), 0) << printProgram(C.After);
  expectSame(C, {iv(3), iv(8), ivec({0, 1, 0, 2, 1, 0, 2, 2})});
}

TEST(FlattenTest, HostLoopWithInnerMapStaysHostLoop) {
  // HotSpot-like: a sequential host loop of stencil kernels.
  const char *Src =
      "fun main (n: i32) (xs: [n]f32) (iters: i32): [n]f32 =\n"
      "  loop (a = xs) for t < iters do\n"
      "    map (\\(i: i32): f32 ->\n"
      "           let l = if i > 0 then a[i - 1] else a[i]\n"
      "           let r = if i < n - 1 then a[i + 1] else a[i]\n"
      "           in (l + r + a[i]) / 3.0)\n"
      "        (iota n)";
  Compiled C = compileAndFlatten(Src);
  EXPECT_GE(C.Stats.ThreadKernels, 1);
  EXPECT_EQ(hostSOACs(C.After.Funs[0].FBody), 0);
  expectSame(C, {iv(5), fvec({1, 2, 3, 4, 5}), iv(3)});
}

TEST(FlattenTest, MandelbrotLikeLoopStaysInThread) {
  // A sequential scalar loop inside a map must NOT be interchanged
  // (it would make the program memory-bound, as the paper notes).
  const char *Src =
      "fun main (n: i32) (cs: [n]f32): [n]i32 =\n"
      "  map (\\(c: f32): i32 ->\n"
      "         let (z, count) = loop ((z, count) = (0.0, 0)) for i < 16 do\n"
      "           let z2 = z * z + c\n"
      "           let cnt = if z2 < 2.0 then count + 1 else count\n"
      "           in (z2, cnt)\n"
      "         in count)\n"
      "      cs";
  Compiled C = compileAndFlatten(Src);
  EXPECT_EQ(C.Stats.Interchanges, 0);
  EXPECT_EQ(C.Stats.ThreadKernels, 1);
  expectSame(C, {iv(4), fvec({0.1, -0.5, 0.3, -1.0})});
}

TEST(FlattenTest, FusedRedomapSequentialisedInsideMap) {
  // N-body structure: after fusion the inner map+reduce is a stream_red,
  // which a nested context sequentialises (Section 5.1 heuristics).
  const char *Src =
      "fun main (n: i32) (bodies: [n]f32): [n]f32 =\n"
      "  map (\\(p: f32): f32 ->\n"
      "         reduce (+) 0.0 (map (\\(q: f32): f32 -> q - p) bodies))\n"
      "      bodies";
  Compiled C = compileAndFlatten(Src);
  EXPECT_GE(C.Stats.SequentialisedSOACs, 1);
  EXPECT_EQ(C.Stats.ThreadKernels, 1);
  expectSame(C, {iv(4), fvec({1, 2, 3, 4})});
}

// Regression for the checked-lookup sweep: the flattener's name-resolution
// maps (TopTypes, Avail, InnerTypes) are read with .at() instead of
// operator[], so a missing key is a loud lookup failure instead of a
// silently default-inserted empty Type/Expansion that would flow onward as
// a rank-0 i32.  These programs drive every converted read site — the
// host-level reduce_by_index index-array type lookup, the loop-in-map
// merge-init expansion lookup, and the segment-result typing of kernel
// body results — and must still flatten and agree with the interpreter.
TEST(FlattenTest, CheckedLookupsResolveAcrossConstructs) {
  // TopTypes.at(IndexArr): a computed (non-iota) index array.
  Compiled Hist = compileAndFlatten(
      "fun main (n: i32) (xs: [n]i32): [8]i32 =\n"
      "  let bins = map (\\(x: i32): i32 -> x % 8) xs\n"
      "  let ones = map (\\(x: i32): i32 -> 1) xs\n"
      "  in reduce_by_index (replicate 8 0) (+) 0 bins ones");
  std::vector<int64_t> Data = randomInts(12, 11, 0, 99);
  expectSame(Hist, {iv(12), ivec(Data)});

  // Avail.at(init)/InnerTypes.at(result): a sequential loop inside a map
  // whose merge init is an expanded inner binding (the G7 interchange
  // path), with a multi-value flavour via the outer map's own results.
  Compiled LoopInMap = compileAndFlatten(
      "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
      "  map (\\(x: i32): i32 ->\n"
      "        let s = x + 1\n"
      "        in loop (a = s) for i < 3 do a * 2 - 1) xs");
  expectSame(LoopInMap, {iv(12), ivec(Data)});
}

//===----------------------------------------------------------------------===//
// Randomised semantics-preservation sweep
//===----------------------------------------------------------------------===//

struct FlattenCase {
  const char *Name;
  const char *Src;
};

class FlattenPreservation : public ::testing::TestWithParam<FlattenCase> {};

TEST_P(FlattenPreservation, SameResults) {
  Compiled C = compileAndFlatten(GetParam().Src);
  std::vector<int64_t> Data = randomInts(12, 7, 0, 9);
  expectSame(C, {iv(12), ivec(Data)});
}

INSTANTIATE_TEST_SUITE_P(
    Programs, FlattenPreservation,
    ::testing::Values(
        FlattenCase{"mapchain",
                    "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                    "  map (+1) (map (*2) (map (+3) xs))"},
        FlattenCase{"mapreduce",
                    "fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce (+) 0 (map (\\(x: i32): i32 -> x * x) xs)"},
        FlattenCase{"scanofmap",
                    "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                    "  scan (+) 0 (map (+1) xs)"},
        FlattenCase{"loopofmaps",
                    "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                    "  loop (a = xs) for i < 4 do map (+1) a"},
        FlattenCase{"maxreduce",
                    "fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce max 0 (map (*3) xs)"}),
    [](const ::testing::TestParamInfo<FlattenCase> &Info) {
      return Info.param.Name;
    });
