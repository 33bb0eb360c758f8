//===- value_test.cpp - Tests for the runtime value representation ---------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace fut;

namespace {

Value mat23() {
  return Value::array(ScalarKind::I32, {2, 3},
                      {PrimValue::makeI32(1), PrimValue::makeI32(2),
                       PrimValue::makeI32(3), PrimValue::makeI32(4),
                       PrimValue::makeI32(5), PrimValue::makeI32(6)});
}

} // namespace

TEST(ValueTest, ScalarBasics) {
  Value V = Value::scalar(PrimValue::makeF64(2.5));
  EXPECT_TRUE(V.isScalar());
  EXPECT_EQ(V.rank(), 0);
  EXPECT_EQ(V.numElems(), 1);
  EXPECT_EQ(V.elemKind(), ScalarKind::F64);
}

TEST(ValueTest, ArrayShapeAndIndexing) {
  Value M = mat23();
  EXPECT_EQ(M.rank(), 2);
  EXPECT_EQ(M.outerSize(), 2);
  EXPECT_EQ(M.rowElems(), 3);
  EXPECT_EQ(M.numElems(), 6);
  EXPECT_EQ(M.at({1, 2}), PrimValue::makeI32(6));
  EXPECT_EQ(M.flatIndex({1, 0}), 3);
  EXPECT_TRUE(M.inBounds({1, 2}));
  EXPECT_FALSE(M.inBounds({2, 0}));
  EXPECT_FALSE(M.inBounds({0, -1}));
}

TEST(ValueTest, RowSlicing) {
  Value M = mat23();
  Value R1 = M.row(1);
  EXPECT_EQ(R1.rank(), 1);
  EXPECT_EQ(R1.outerSize(), 3);
  EXPECT_EQ(R1.at({0}), PrimValue::makeI32(4));

  // A full-depth slice is a scalar.
  Value S = M.slice({0, 1});
  EXPECT_TRUE(S.isScalar());
  EXPECT_EQ(S.getScalar(), PrimValue::makeI32(2));
}

TEST(ValueTest, CopyOnWriteSharing) {
  Value A = mat23();
  Value B = A; // shares the payload
  EXPECT_FALSE(A.uniquelyHeld());
  B.flatMut()[0] = PrimValue::makeI32(99);
  // The write went to a private copy.
  EXPECT_EQ(A.at({0, 0}), PrimValue::makeI32(1));
  EXPECT_EQ(B.at({0, 0}), PrimValue::makeI32(99));
}

TEST(ValueTest, UniquelyHeldUpdatesInPlace) {
  Value A = mat23();
  EXPECT_TRUE(A.uniquelyHeld());
  const PrimValue *Before = A.flat().data();
  A.flatMut()[0] = PrimValue::makeI32(7);
  EXPECT_EQ(A.flat().data(), Before)
      << "no copy for a uniquely held array (the O(1) update of §3)";
}

TEST(ValueTest, EqualityIsStructural) {
  EXPECT_EQ(mat23(), mat23());
  Value Other = mat23();
  Other.flatMut()[5] = PrimValue::makeI32(0);
  EXPECT_NE(mat23(), Other);
  // Shape matters even with equal payloads.
  Value Flat = Value::array(ScalarKind::I32, {6},
                            mat23().flat());
  EXPECT_NE(mat23(), Flat);
}

TEST(ValueTest, ApproxEqualTolerance) {
  Value A = makeVectorValue(ScalarKind::F32, {1.0, 2.0, 3.0});
  Value B = makeVectorValue(ScalarKind::F32, {1.0 + 1e-7, 2.0, 3.0});
  Value C = makeVectorValue(ScalarKind::F32, {1.1, 2.0, 3.0});
  EXPECT_TRUE(A.approxEqual(B));
  EXPECT_FALSE(A.approxEqual(C));
  // Kind-sensitive.
  Value D = makeVectorValue(ScalarKind::F64, {1.0, 2.0, 3.0});
  EXPECT_FALSE(A.approxEqual(D));
}

TEST(ValueTest, FirstDifferenceIsExact) {
  auto F32 = [](float X) { return Value::scalar(PrimValue::makeF32(X)); };
  float One = 1.0f, NextUp = std::nextafter(One, 2.0f);
  EXPECT_EQ(firstDifference({F32(One), mat23()}, {F32(One), mat23()}), "");
  // Signed zeroes and a 1-ulp f32 difference are both reported, and the
  // message prints the values at full precision.
  EXPECT_NE(firstDifference({F32(0.0f)}, {F32(-0.0f)}), "");
  std::string Ulp = firstDifference({F32(NextUp)}, {F32(One)});
  EXPECT_NE(Ulp.find("output 0 differs"), std::string::npos) << Ulp;
  EXPECT_NE(Ulp.find("1.00000012f32 vs 1f32"), std::string::npos) << Ulp;
  // NaN agrees with NaN, whatever PrimValue's == says.
  float NaN = std::nanf("");
  EXPECT_NE(PrimValue::makeF32(NaN), PrimValue::makeF32(NaN));
  EXPECT_EQ(firstDifference({F32(NaN)}, {F32(NaN)}), "");
  EXPECT_NE(firstDifference({F32(NaN)}, {F32(One)}), "");
  // Arity, kind and shape.
  EXPECT_NE(firstDifference({F32(One)}, {}), "");
  EXPECT_NE(firstDifference({F32(One)},
                            {Value::scalar(PrimValue::makeF64(1.0))}),
            "");
  Value Flat = Value::array(ScalarKind::I32, {6}, mat23().flat());
  EXPECT_NE(firstDifference({Flat}, {mat23()}), "");
  // Array elements name their flat index.
  Value Other = mat23();
  Other.flatMut()[4] = PrimValue::makeI32(0);
  std::string Elem = firstDifference({Other}, {mat23()});
  EXPECT_NE(Elem.find("at flat element 4"), std::string::npos) << Elem;
}

TEST(ValueTest, FirstDifferenceToleranceCoversOnlyItsOutput) {
  auto F32 = [](float X) { return Value::scalar(PrimValue::makeF32(X)); };
  float One = 1.0f, NextUp = std::nextafter(One, 2.0f);
  std::vector<double> OnSecond = {0, 1e-6};
  // A declared tolerance accepts its own output index ...
  EXPECT_EQ(firstDifference({F32(One), F32(NextUp)}, {F32(One), F32(One)},
                            OnSecond),
            "");
  // ... and no other one.
  std::string Msg = firstDifference({F32(NextUp), F32(One)},
                                    {F32(One), F32(One)}, OnSecond);
  EXPECT_NE(Msg.find("output 0 differs"), std::string::npos) << Msg;
  // Within its own output it is still a bound, and an infinity agrees
  // only with itself.
  EXPECT_NE(firstDifference({F32(One), F32(1.001f)}, {F32(One), F32(One)},
                            OnSecond),
            "");
  float Inf = INFINITY;
  EXPECT_EQ(firstDifference({F32(One), F32(Inf)}, {F32(One), F32(Inf)},
                            OnSecond),
            "");
  EXPECT_NE(firstDifference({F32(One), F32(Inf)}, {F32(One), F32(One)},
                            OnSecond),
            "");
  EXPECT_NE(firstDifference({F32(One), F32(Inf)}, {F32(One), F32(-Inf)},
                            OnSecond),
            "");
}

TEST(ValueTest, FilledArrayAndHelpers) {
  Value Z = Value::filledArray(ScalarKind::F32, {4}, PrimValue::makeF32(0));
  EXPECT_EQ(Z.numElems(), 4);
  for (int64_t I = 0; I < 4; ++I)
    EXPECT_EQ(Z.at({I}), PrimValue::makeF32(0));

  Value M = makeMatrixValue(ScalarKind::F64, 2, 2, {1, 2, 3, 4});
  EXPECT_EQ(M.at({1, 1}), PrimValue::makeF64(4));
  Value IV = makeIntVectorValue(ScalarKind::I64, {10, 20});
  EXPECT_EQ(IV.at({1}), PrimValue::makeI64(20));
}

TEST(ValueTest, EmptyArrays) {
  Value E = Value::array(ScalarKind::I32, {0}, {});
  EXPECT_EQ(E.numElems(), 0);
  EXPECT_EQ(E.outerSize(), 0);
  EXPECT_EQ(E, Value::array(ScalarKind::I32, {0}, {}));
  EXPECT_NE(E, Value::array(ScalarKind::F32, {0}, {}));
}

TEST(ValueTest, StringificationTruncates) {
  std::vector<double> Big(100, 1.0);
  Value V = makeVectorValue(ScalarKind::F32, Big);
  std::string S = V.str();
  EXPECT_NE(S.find("..."), std::string::npos);
  EXPECT_LT(S.size(), 2000u);
}
