//===- simplify_test.cpp - Tests for the simplification engine -------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "opt/Simplify.h"

#include "check/Verify.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "parser/Desugar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;

namespace {

Program compile(const std::string &Src, NameSource &NS) {
  auto P = frontend(Src, NS);
  EXPECT_TRUE(static_cast<bool>(P)) << P.getError().str();
  return P ? P.take() : Program{};
}

/// Counts statements of a given kind in a function body (recursively).
int countExps(const Body &B, ExpKind K) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (S.E->kind() == K)
      ++N;
    forEachChildBody(*S.E,
                     [&](const Body &Inner) { N += countExps(Inner, K); });
  }
  return N;
}

int countStms(const Body &B) {
  int N = static_cast<int>(B.Stms.size());
  for (const Stm &S : B.Stms)
    forEachChildBody(*S.E, [&](const Body &Inner) { N += countStms(Inner); });
  return N;
}

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}

/// Checks that simplification preserves semantics on the given arguments.
void expectSamePostSimplify(const std::string &Src,
                            const std::vector<Value> &Args) {
  NameSource NS;
  Program P = compile(Src, NS);
  Interpreter I1(P);
  auto R1 = I1.run(Args);
  ASSERT_OK(R1);

  inlineFunctions(P, NS);
  simplifyProgram(P, NS);
  Interpreter I2(P);
  auto R2 = I2.run(Args);
  ASSERT_OK(R2);

  ASSERT_EQ(R1->size(), R2->size());
  for (size_t I = 0; I < R1->size(); ++I)
    EXPECT_TRUE((*R1)[I].approxEqual((*R2)[I]))
        << "mismatch at result " << I << "\n"
        << printProgram(P);
}

} // namespace

TEST(SimplifyTest, ConstantFolding) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 = 2 + 3 * 4", NS);
  simplifyProgram(P, NS);
  // Everything folds away; the body should have no statements left.
  EXPECT_EQ(countStms(P.Funs[0].FBody), 0);
  ASSERT_EQ(P.Funs[0].FBody.Result.size(), 1u);
  EXPECT_EQ(P.Funs[0].FBody.Result[0].getConst(), PrimValue::makeI32(14));
}

TEST(SimplifyTest, AlgebraicIdentities) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 = (x + 0) * 1 - 0", NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countStms(P.Funs[0].FBody), 0);
  EXPECT_TRUE(P.Funs[0].FBody.Result[0].isVar());
}

TEST(SimplifyTest, DivisionByZeroIsNotFolded) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 = x + 1 / 0", NS);
  simplifyProgram(P, NS);
  // The faulting division must survive to runtime.
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::BinOpE), 2);
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({iv(1)}), "division by zero");
}

TEST(SimplifyTest, DeadCodeRemoval) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 =\n"
                      "  let dead = iota 100\n"
                      "  let alive = x + 1\n"
                      "  in alive",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Iota), 0);
}

TEST(SimplifyTest, CSEMergesIdenticalExpressions) {
  NameSource NS;
  Program P = compile("fun main (x: i32) (ys: [n]i32): i32 =\n"
                      "  let a = ys[x]\n"
                      "  let b = ys[x]\n"
                      "  in a + b",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Index), 1);
}

TEST(SimplifyTest, IotaIndexFolds) {
  NameSource NS;
  Program P = compile("fun main (i: i32): i32 =\n"
                      "  let r = iota 100\n"
                      "  in r[i] + 1",
                      NS);
  simplifyProgram(P, NS);
  // (iota 100)[i] == i, and then the iota is dead.
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Iota), 0);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Index), 0);
}

TEST(SimplifyTest, ReplicateIndexFolds) {
  NameSource NS;
  Program P = compile("fun main (i: i32) (x: i32): i32 =\n"
                      "  let r = replicate 10 x\n"
                      "  in r[i]",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Replicate), 0);
}

TEST(SimplifyTest, TransposeTransposeCancels) {
  NameSource NS;
  Program P = compile("fun main (a: [n][m]i32): [n][m]i32 =\n"
                      "  transpose (transpose a)",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Rearrange), 0);
}

TEST(SimplifyTest, ConstantIfSplices) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 =\n"
                      "  if true then x + 1 else x - 1",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::If), 0);
  Interpreter I(P);
  auto R = I.run({iv(5)});
  ASSERT_OK(R);
  EXPECT_EQ((*R)[0], iv(6));
}

TEST(SimplifyTest, InvariantHoistedOutOfLoop) {
  NameSource NS;
  Program P = compile("fun main (x: i32) (n: i32): i32 =\n"
                      "  loop (acc = 0) for i < n do\n"
                      "    let inv = x * 2\n"
                      "    in acc + inv",
                      NS);
  simplifyProgram(P, NS);
  // The multiplication must now be outside the loop.
  const Body &B = P.Funs[0].FBody;
  bool FoundLoop = false;
  for (const Stm &S : B.Stms) {
    if (const auto *L = expDynCast<LoopExp>(S.E.get())) {
      FoundLoop = true;
      EXPECT_EQ(countExps(L->LoopBody, ExpKind::BinOpE), 1)
          << printProgram(P); // only acc + inv remains
    }
  }
  EXPECT_TRUE(FoundLoop);
}

TEST(SimplifyTest, InvariantHoistedOutOfMapLambda) {
  NameSource NS;
  Program P = compile("fun main (x: i32) (xs: [n]i32): [n]i32 =\n"
                      "  map (\\(v: i32): i32 -> v + (x * x)) xs",
                      NS);
  simplifyProgram(P, NS);
  const Body &B = P.Funs[0].FBody;
  bool FoundMap = false;
  for (const Stm &S : B.Stms)
    if (const auto *M = expDynCast<MapExp>(S.E.get())) {
      FoundMap = true;
      EXPECT_EQ(countExps(M->Fn.B, ExpKind::BinOpE), 1) << printProgram(P);
    }
  EXPECT_TRUE(FoundMap);
}

TEST(SimplifyTest, InliningRemovesCalls) {
  NameSource NS;
  Program P = compile("fun helper (x: i32): i32 = x * 3\n"
                      "fun main (y: i32): i32 = helper (helper y)",
                      NS);
  inlineFunctions(P, NS);
  simplifyProgram(P, NS);
  removeDeadFunctions(P);
  EXPECT_EQ(P.Funs.size(), 1u);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Apply), 0);
  Interpreter I(P);
  auto R = I.run({iv(2)});
  ASSERT_OK(R);
  EXPECT_EQ((*R)[0], iv(18));
}

TEST(SimplifyTest, CopyOfFreshArrayElided) {
  NameSource NS;
  Program P = compile("fun main (n: i32): [n]i32 =\n"
                      "  let a = iota n\n"
                      "  in copy a",
                      NS);
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Copy), 0);
}

//===----------------------------------------------------------------------===//
// Semantics preservation (property tests): simplify(P) ≡ P on the
// reference interpreter.
//===----------------------------------------------------------------------===//

struct SimplifyCase {
  const char *Name;
  const char *Src;
  int NumInts; // arguments: scalar n, then a vector of size n
};

class SimplifyPreservation : public ::testing::TestWithParam<SimplifyCase> {};

TEST_P(SimplifyPreservation, SameResults) {
  const SimplifyCase &C = GetParam();
  std::vector<int64_t> Data = randomInts(C.NumInts, 42, 1, 50);
  expectSamePostSimplify(
      C.Src, {iv(static_cast<int32_t>(C.NumInts)), ivec(Data)});
}

INSTANTIATE_TEST_SUITE_P(
    Programs, SimplifyPreservation,
    ::testing::Values(
        SimplifyCase{"mapreduce",
                     "fun main (n: i32) (xs: [n]i32): i32 =\n"
                     "  reduce (+) 0 (map (\\(x: i32): i32 -> x * 2 + 0) xs)",
                     16},
        SimplifyCase{"loopupdate",
                     "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                     "  loop (a = replicate n 0) for i < n do\n"
                     "    a with [i] <- xs[i] * 1 + xs[i]",
                     9},
        SimplifyCase{"nested",
                     "fun main (n: i32) (xs: [n]i32): i32 =\n"
                     "  let m = map (\\(x: i32): i32 ->\n"
                     "    let y = x * x\n"
                     "    let z = y + x\n"
                     "    in z - y) xs\n"
                     "  in reduce (+) 0 m",
                     13},
        SimplifyCase{"scanstream",
                     "fun main (n: i32) (xs: [n]i32): i32 =\n"
                     "  let s = scan (+) 0 xs\n"
                     "  let r = reduce max 0 s\n"
                     "  in r + s[n - 1]",
                     7}),
    [](const ::testing::TestParamInfo<SimplifyCase> &Info) {
      return Info.param.Name;
    });

TEST(SimplifyTest, IntMinDividedByMinusOneIsNotFolded) {
  // INT64_MIN / -1 overflows two's-complement division; constant folding
  // must not evaluate it (that was UB in ir/Prim.cpp's floorDiv) but leave
  // it to fault at runtime exactly like the interpreter does.
  NameSource NS;
  BodyBuilder BB(NS);
  Type I64 = Type::scalar(ScalarKind::I64);
  VName D = BB.bind(
      "d", I64,
      std::make_unique<BinOpExp>(
          BinOp::Div, SubExp::constant(PrimValue::makeI64(INT64_MIN)),
          SubExp::constant(PrimValue::makeI64(-1))));
  Program P = singleFun({}, {I64}, BB.finish({SubExp::var(D)}));
  simplifyProgram(P, NS);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::BinOpE), 1);
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({}), "division overflow");
}

TEST(SimplifyTest, NegativeExponentIsNotFolded) {
  NameSource NS;
  Program P = compile("fun main (x: i32): i32 = x + 2 ** -3", NS);
  simplifyProgram(P, NS);
  // The faulting power must survive to runtime.
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({iv(1)}), "negative integer exponent");
}

TEST(SimplifyTest, CSEKeepsExistentialDimsBound) {
  // Regression for a fuzzer-found miscompile (seeds 180/190/195/479/489,
  // tests/regress/cases/concat-length-cse.fut): CSE dropped the second
  // concat binding but its existential length variable stayed referenced
  // by the second reduce's width, leaving a dangling name after simplify.
  NameSource NS;
  Program P = compile("fun main (n: i32) (a0: [n]i32): i32 =\n"
                      "  let s0 = reduce (+) (0 + 3) (concat a0 a0)\n"
                      "  let s1 = reduce (+) (0 + 1) (concat a0 a0)\n"
                      "  in s0 + s1",
                      NS);
  simplifyProgram(P, NS);
  auto Err = verifyProgram(P, "simplify");
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
  // The two concats merged into one; nothing dangles.
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Concat), 1);
  Interpreter I(P);
  auto R = I.run({iv(3), ivec({1, 2, 3})});
  ASSERT_OK(R);
  EXPECT_EQ(R.take()[0].getScalar().getInt(), 28);
}
