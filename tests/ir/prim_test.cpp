//===- prim_test.cpp - Tests for primitive values and operators ------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Prim.h"

#include "TestUtil.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <vector>

using namespace fut;

TEST(PrimValueTest, KindsAndAccessors) {
  EXPECT_EQ(PrimValue::makeI32(42).getInt(), 42);
  EXPECT_EQ(PrimValue::makeI64(1LL << 40).getInt(), 1LL << 40);
  EXPECT_FLOAT_EQ(PrimValue::makeF32(1.5f).getFloat(), 1.5f);
  EXPECT_DOUBLE_EQ(PrimValue::makeF64(2.5).getFloat(), 2.5);
  EXPECT_TRUE(PrimValue::makeBool(true).getBool());
}

TEST(PrimValueTest, I32Truncates) {
  PrimValue V = PrimValue::makeI32(static_cast<int32_t>(0x1'0000'0001LL));
  EXPECT_EQ(V.getInt(), 1);
}

TEST(PrimValueTest, ZeroOf) {
  EXPECT_EQ(PrimValue::zeroOf(ScalarKind::I32), PrimValue::makeI32(0));
  EXPECT_EQ(PrimValue::zeroOf(ScalarKind::F64), PrimValue::makeF64(0.0));
  EXPECT_EQ(PrimValue::zeroOf(ScalarKind::Bool), PrimValue::makeBool(false));
}

TEST(PrimValueTest, EqualityIsKindSensitive) {
  EXPECT_NE(PrimValue::makeI32(1), PrimValue::makeI64(1));
  EXPECT_EQ(PrimValue::makeI32(7), PrimValue::makeI32(7));
}

TEST(PrimOpsTest, IntegerArithmetic) {
  auto Eval = [](BinOp Op, int64_t A, int64_t B) {
    auto R = evalBinOp(Op, PrimValue::makeI32(static_cast<int32_t>(A)),
                       PrimValue::makeI32(static_cast<int32_t>(B)));
    EXPECT_TRUE(static_cast<bool>(R));
    return R.take().getInt();
  };
  EXPECT_EQ(Eval(BinOp::Add, 3, 4), 7);
  EXPECT_EQ(Eval(BinOp::Sub, 3, 4), -1);
  EXPECT_EQ(Eval(BinOp::Mul, 3, 4), 12);
  EXPECT_EQ(Eval(BinOp::Min, 3, 4), 3);
  EXPECT_EQ(Eval(BinOp::Max, 3, 4), 4);
  EXPECT_EQ(Eval(BinOp::Pow, 2, 10), 1024);
}

TEST(PrimOpsTest, FloorDivisionSemantics) {
  // Futhark-style floor division: -7 / 2 == -4, -7 % 2 == 1.
  auto Div = evalBinOp(BinOp::Div, PrimValue::makeI32(-7),
                       PrimValue::makeI32(2));
  auto Mod = evalBinOp(BinOp::Mod, PrimValue::makeI32(-7),
                       PrimValue::makeI32(2));
  ASSERT_OK(Div);
  ASSERT_OK(Mod);
  EXPECT_EQ(Div.take().getInt(), -4);
  EXPECT_EQ(Mod.take().getInt(), 1);
}

TEST(PrimOpsTest, DivisionByZeroFails) {
  EXPECT_ERR_CONTAINS(evalBinOp(BinOp::Div, PrimValue::makeI32(1),
                                PrimValue::makeI32(0)),
                      "division by zero");
  EXPECT_ERR_CONTAINS(evalBinOp(BinOp::Mod, PrimValue::makeI64(1),
                                PrimValue::makeI64(0)),
                      "modulo by zero");
}

TEST(PrimOpsTest, MismatchedKindsFail) {
  EXPECT_ERR_CONTAINS(evalBinOp(BinOp::Add, PrimValue::makeI32(1),
                                PrimValue::makeF32(1.0f)),
                      "mismatched kinds");
}

TEST(PrimOpsTest, ComparisonsYieldBool) {
  auto R = evalBinOp(BinOp::Lt, PrimValue::makeF64(1.0),
                     PrimValue::makeF64(2.0));
  ASSERT_OK(R);
  EXPECT_EQ(R.take(), PrimValue::makeBool(true));
  EXPECT_EQ(binOpResultKind(BinOp::Lt, ScalarKind::F64), ScalarKind::Bool);
  EXPECT_EQ(binOpResultKind(BinOp::Add, ScalarKind::F64), ScalarKind::F64);
}

TEST(PrimOpsTest, F32ArithmeticRoundsToSinglePrecision) {
  auto R = evalBinOp(BinOp::Add, PrimValue::makeF32(1e8f),
                     PrimValue::makeF32(1.0f));
  ASSERT_OK(R);
  // In f32, 1e8 + 1 == 1e8.
  EXPECT_FLOAT_EQ(static_cast<float>(R.take().getFloat()), 1e8f);
}

TEST(PrimOpsTest, UnaryOps) {
  auto Abs = evalUnOp(UnOp::Abs, PrimValue::makeI32(-5));
  ASSERT_OK(Abs);
  EXPECT_EQ(Abs.take().getInt(), 5);

  auto Sqrt = evalUnOp(UnOp::Sqrt, PrimValue::makeF64(9.0));
  ASSERT_OK(Sqrt);
  EXPECT_DOUBLE_EQ(Sqrt.take().getFloat(), 3.0);

  auto Neg = evalUnOp(UnOp::Neg, PrimValue::makeF32(2.0f));
  ASSERT_OK(Neg);
  EXPECT_FLOAT_EQ(static_cast<float>(Neg.take().getFloat()), -2.0f);

  EXPECT_ERR_CONTAINS(evalUnOp(UnOp::Sqrt, PrimValue::makeI32(4)),
                      "undefined");
}

TEST(PrimOpsTest, LogicalOps) {
  auto R = evalBinOp(BinOp::LogAnd, PrimValue::makeBool(true),
                     PrimValue::makeBool(false));
  ASSERT_OK(R);
  EXPECT_FALSE(R.take().getBool());
  EXPECT_ERR_CONTAINS(evalBinOp(BinOp::LogAnd, PrimValue::makeI32(1),
                                PrimValue::makeI32(1)),
                      "undefined");
}

TEST(PrimOpsTest, Conversions) {
  EXPECT_EQ(evalConvOp({ScalarKind::F64, ScalarKind::I32},
                       PrimValue::makeF64(3.9)),
            PrimValue::makeI32(3));
  EXPECT_EQ(evalConvOp({ScalarKind::I32, ScalarKind::F64},
                       PrimValue::makeI32(3)),
            PrimValue::makeF64(3.0));
  EXPECT_EQ(evalConvOp({ScalarKind::I64, ScalarKind::I32},
                       PrimValue::makeI64((1LL << 32) + 5)),
            PrimValue::makeI32(5));
}

class BinOpKindSweep
    : public ::testing::TestWithParam<std::tuple<BinOp, ScalarKind>> {};

TEST_P(BinOpKindSweep, DefinedOpsEvaluateAndPreserveKind) {
  auto [Op, K] = GetParam();
  if (!binOpDefinedOn(Op, K))
    GTEST_SKIP() << "op not defined on kind";
  PrimValue A = PrimValue::zeroOf(K);
  PrimValue B = K == ScalarKind::Bool
                    ? PrimValue::makeBool(true)
                    : (isIntKind(K) ? PrimValue::makeI32(1) : A);
  // Normalise B to the right kind.
  B = evalConvOp({B.kind(), K}, B);
  auto R = evalBinOp(Op, A, B);
  ASSERT_OK(R);
  EXPECT_EQ(R.take().kind(), binOpResultKind(Op, K));
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllKinds, BinOpKindSweep,
    ::testing::Combine(
        ::testing::Values(BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min,
                          BinOp::Max, BinOp::LogAnd, BinOp::LogOr, BinOp::Eq,
                          BinOp::Neq, BinOp::Lt, BinOp::Leq, BinOp::Gt,
                          BinOp::Geq),
        ::testing::Values(ScalarKind::Bool, ScalarKind::I32, ScalarKind::I64,
                          ScalarKind::F32, ScalarKind::F64)));

TEST(PrimOpsTest, EvalBinOpIntoNamesEvalBinOpsOutcome) {
  // evalBinOpInto succeeds exactly when evalBinOp does, with the same
  // value, and names each failure by the error evalBinOp reports.
  const std::map<BinOpFault, std::string> Message = {
      {BinOpFault::MismatchedKinds, "mismatched kinds"},
      {BinOpFault::Undefined, "undefined on"},
      {BinOpFault::DivisionByZero, "integer division by zero"},
      {BinOpFault::DivisionOverflow, "integer division overflow"},
      {BinOpFault::ModuloByZero, "integer modulo by zero"},
      {BinOpFault::ModuloOverflow, "integer modulo overflow"},
      {BinOpFault::NegativeExponent, "negative integer exponent"}};
  std::vector<PrimValue> Vals = {
      PrimValue::makeBool(true),       PrimValue::makeI32(0),
      PrimValue::makeI32(-7),          PrimValue::makeI64(INT64_MIN),
      PrimValue::makeI64(-1),          PrimValue::makeI64(3),
      PrimValue::makeF32(2.5f),        PrimValue::makeF64(-0.0)};
  for (int Op = 0; Op <= static_cast<int>(BinOp::Geq); ++Op)
    for (const PrimValue &A : Vals)
      for (const PrimValue &B : Vals) {
        SCOPED_TRACE(std::string(binOpName(static_cast<BinOp>(Op))) + " " +
                     A.str() + " " + B.str());
        PrimValue Out;
        BinOpFault F = evalBinOpInto(static_cast<BinOp>(Op), A, B, Out);
        auto R = evalBinOp(static_cast<BinOp>(Op), A, B);
        ASSERT_EQ(F == BinOpFault::None, static_cast<bool>(R));
        if (R) {
          EXPECT_EQ(Out.str(), R->str());
          EXPECT_EQ(Out.kind(), R->kind());
        } else if (Message.count(F)) {
          EXPECT_NE(R.getError().Message.find(Message.at(F)),
                    std::string::npos)
              << R.getError().Message;
        }
      }
}

TEST(PrimOpsTest, SignedOverflowWrapsToTwosComplement) {
  // Add/Sub/Mul/Neg wrap modulo 2^64 instead of invoking signed-overflow
  // UB; the interpreter, constant folder and simulated device all funnel
  // through these, so wrapping here pins the semantics everywhere.
  auto I64 = [](int64_t V) { return PrimValue::makeI64(V); };
  auto Add = evalBinOp(BinOp::Add, I64(INT64_MAX), I64(1));
  ASSERT_OK(Add);
  EXPECT_EQ(Add.take().getInt(), INT64_MIN);

  auto Sub = evalBinOp(BinOp::Sub, I64(INT64_MIN), I64(1));
  ASSERT_OK(Sub);
  EXPECT_EQ(Sub.take().getInt(), INT64_MAX);

  auto Mul = evalBinOp(BinOp::Mul, I64(INT64_MIN), I64(-1));
  ASSERT_OK(Mul);
  EXPECT_EQ(Mul.take().getInt(), INT64_MIN);

  auto Neg = evalUnOp(UnOp::Neg, I64(INT64_MIN));
  ASSERT_OK(Neg);
  EXPECT_EQ(Neg.take().getInt(), INT64_MIN);

  auto Abs = evalUnOp(UnOp::Abs, I64(INT64_MIN));
  ASSERT_OK(Abs);
  EXPECT_EQ(Abs.take().getInt(), INT64_MIN);
}

TEST(PrimOpsTest, DivisionOverflowIsATypedRuntimeError) {
  // INT64_MIN / -1 has no representable result; it must be the same typed
  // runtime error on every execution path, never UB.
  auto Div = evalBinOp(BinOp::Div, PrimValue::makeI64(INT64_MIN),
                       PrimValue::makeI64(-1));
  ASSERT_FALSE(static_cast<bool>(Div));
  EXPECT_EQ(Div.getError().Kind, ErrorKind::Runtime);
  EXPECT_NE(Div.getError().Message.find("division overflow"),
            std::string::npos);

  auto Mod = evalBinOp(BinOp::Mod, PrimValue::makeI64(INT64_MIN),
                       PrimValue::makeI64(-1));
  ASSERT_FALSE(static_cast<bool>(Mod));
  EXPECT_EQ(Mod.getError().Kind, ErrorKind::Runtime);
  EXPECT_NE(Mod.getError().Message.find("modulo overflow"),
            std::string::npos);
}

TEST(PrimOpsTest, DivModByZeroAreRuntimeKind) {
  // The error kind matters: the resilient host runtime only retries
  // device-side faults, and the fuzzer's differential oracle treats two
  // identical runtime errors as agreement.
  auto Div = evalBinOp(BinOp::Div, PrimValue::makeI32(1),
                       PrimValue::makeI32(0));
  ASSERT_FALSE(static_cast<bool>(Div));
  EXPECT_EQ(Div.getError().Kind, ErrorKind::Runtime);
  auto Mod = evalBinOp(BinOp::Mod, PrimValue::makeI32(1),
                       PrimValue::makeI32(0));
  ASSERT_FALSE(static_cast<bool>(Mod));
  EXPECT_EQ(Mod.getError().Kind, ErrorKind::Runtime);
}

TEST(PrimOpsTest, NegativeIntegerExponentIsATypedRuntimeError) {
  auto R = evalBinOp(BinOp::Pow, PrimValue::makeI32(2),
                     PrimValue::makeI32(-1));
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Kind, ErrorKind::Runtime);
  EXPECT_NE(R.getError().Message.find("negative integer exponent"),
            std::string::npos);

  // Edge cases around zero stay total.
  auto Zero = evalBinOp(BinOp::Pow, PrimValue::makeI32(0),
                        PrimValue::makeI32(0));
  ASSERT_OK(Zero);
  EXPECT_EQ(Zero.take().getInt(), 1);
}

TEST(PrimOpsTest, INT32EdgesSurviveI32Division) {
  // INT32_MIN / -1 is representable at the i64 evaluation width and
  // truncates back to INT32_MIN: defined wraparound, not an error.
  auto R = evalBinOp(BinOp::Div, PrimValue::makeI32(INT32_MIN),
                     PrimValue::makeI32(-1));
  ASSERT_OK(R);
  EXPECT_EQ(R.take().getInt(), INT32_MIN);
}
