//===- traversal_test.cpp - Tests for free vars, substitution, renaming ----===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Traversal.h"

#include "ir/Builder.h"
#include "ir/Printer.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;

namespace {

/// map (\x -> x + c) xs — c free, x bound.
MapExp *makeMapPlusC(NameSource &NS, const VName &Xs, const VName &C,
                     ExpPtr &Storage) {
  VName X = NS.fresh("x");
  BodyBuilder BB(NS);
  SubExp R = BB.binOp(BinOp::Add, SubExp::var(X), SubExp::var(C),
                      ScalarKind::I32);
  Lambda Fn({Param(X, Type::scalar(ScalarKind::I32))}, BB.finish({R}),
            {Type::scalar(ScalarKind::I32)});
  VName W = NS.fresh("n");
  Storage = std::make_unique<MapExp>(SubExp::var(W), std::move(Fn),
                                     std::vector<VName>{Xs});
  return expCast<MapExp>(Storage.get());
}

} // namespace

TEST(FreeVarsTest, LambdaParamsAreBound) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  VName C = NS.fresh("c");
  ExpPtr E;
  makeMapPlusC(NS, Xs, C, E);
  NameSet Free = freeVarsInExp(*E);
  EXPECT_TRUE(Free.count(Xs));
  EXPECT_TRUE(Free.count(C));
  // The lambda parameter must not leak.
  for (const VName &N : Free)
    EXPECT_NE(N.Base, "x");
}

TEST(FreeVarsTest, LoopBindsIndexAndMergeParams) {
  NameSource NS;
  VName Acc = NS.fresh("acc");
  VName I = NS.fresh("i");
  VName N = NS.fresh("n");
  BodyBuilder BB(NS);
  SubExp R = BB.binOp(BinOp::Add, SubExp::var(Acc), SubExp::var(I),
                      ScalarKind::I32);
  Body LoopBody = BB.finish({R});
  LoopExp L({Param(Acc, Type::scalar(ScalarKind::I32))}, {i32(0)}, I,
            SubExp::var(N), std::move(LoopBody));
  NameSet Free = freeVarsInExp(L);
  EXPECT_TRUE(Free.count(N));
  EXPECT_FALSE(Free.count(Acc));
  EXPECT_FALSE(Free.count(I));
}

TEST(FreeVarsTest, TypeDimensionsAreFree) {
  NameSource NS;
  VName M = NS.fresh("m");
  VName Xs = NS.fresh("xs");
  // let ys : [m]i32 = copy xs — the dim var m must count as free in a body
  // mentioning it in a pattern type.
  BodyBuilder BB(NS);
  VName Ys = BB.bind("ys", Type::array(ScalarKind::I32, {SubExp::var(M)}),
                     std::make_unique<CopyExp>(Xs));
  Body B = BB.finish({SubExp::var(Ys)});
  NameSet Free = freeVarsInBody(B);
  EXPECT_TRUE(Free.count(M));
  EXPECT_TRUE(Free.count(Xs));
  EXPECT_FALSE(Free.count(Ys));
}

TEST(SubstitutionTest, ReplacesOperandsAndDims) {
  NameSource NS;
  VName A = NS.fresh("a");
  VName B = NS.fresh("b");
  VName N = NS.fresh("n");
  VName M = NS.fresh("m");

  BinOpExp E(BinOp::Add, SubExp::var(A), SubExp::var(B));
  NameMap<SubExp> Subst;
  Subst[A] = i32(5);
  substituteInExp(Subst, E);
  EXPECT_TRUE(E.A.isConst());
  EXPECT_EQ(E.A.getConst(), PrimValue::makeI32(5));
  EXPECT_TRUE(E.B.isVar());

  Type T = Type::array(ScalarKind::F32, {SubExp::var(N), SubExp::var(M)});
  NameMap<SubExp> DimSubst;
  DimSubst[N] = i64c(4);
  Type T2 = substituteInType(DimSubst, T);
  EXPECT_TRUE(T2.shape()[0].isConst());
  EXPECT_TRUE(T2.shape()[1].isVar());
}

TEST(SubstitutionTest, VariablePositionRequiresVariable) {
  NameSource NS;
  VName A = NS.fresh("a");
  VName B = NS.fresh("b");
  IndexExp E(A, {i32(0)});
  NameMap<SubExp> Subst;
  Subst[A] = SubExp::var(B);
  substituteInExp(Subst, E);
  EXPECT_EQ(E.Arr, B);
}

TEST(RenamingTest, RenameBodyFreshensBindings) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  VName C = NS.fresh("c");
  ExpPtr E;
  makeMapPlusC(NS, Xs, C, E);

  BodyBuilder BB(NS);
  VName Out = BB.bind(
      "out", Type::array(ScalarKind::I32, {i64c(3)}), std::move(E));
  Body B = BB.finish({SubExp::var(Out)});

  Body R = renameBody(B, NS);
  // The bound name must change, free names must not.
  ASSERT_EQ(R.Stms.size(), 1u);
  EXPECT_NE(R.Stms[0].Pat[0].Name, Out);
  const auto *M = expCast<MapExp>(R.Stms[0].E.get());
  EXPECT_EQ(M->Arrays[0], Xs);
  NameSet Free = freeVarsInBody(R);
  EXPECT_TRUE(Free.count(Xs));
  EXPECT_TRUE(Free.count(C));
}

TEST(RenamingTest, RenamedBodyEvaluatesIdentically) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  VName N = NS.fresh("n");
  ExpPtr E;
  VName C = NS.fresh("c");
  MapExp *M = makeMapPlusC(NS, Xs, C, E);
  M->Width = SubExp::var(N);

  BodyBuilder BB(NS);
  VName Out =
      BB.bind("out", Type::array(ScalarKind::I32, {SubExp::var(N)}),
              std::move(E));
  Body B = BB.finish({SubExp::var(Out)});
  Body R = renameBody(B, NS);

  Program P1 = test::singleFun(
      {Param(N, Type::scalar(ScalarKind::I32)),
       Param(Xs, Type::array(ScalarKind::I32, {SubExp::var(N)})),
       Param(C, Type::scalar(ScalarKind::I32))},
      {Type::array(ScalarKind::I32, {SubExp::var(N)})}, std::move(B));
  Program P2 = test::singleFun(
      {Param(N, Type::scalar(ScalarKind::I32)),
       Param(Xs, Type::array(ScalarKind::I32, {SubExp::var(N)})),
       Param(C, Type::scalar(ScalarKind::I32))},
      {Type::array(ScalarKind::I32, {SubExp::var(N)})}, std::move(R));

  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(3)),
                             makeIntVectorValue(ScalarKind::I32, {1, 2, 3}),
                             Value::scalar(PrimValue::makeI32(10))};
  auto R1 = test::runOk(P1, Args);
  auto R2 = test::runOk(P2, Args);
  ASSERT_EQ(R1.size(), 1u);
  ASSERT_EQ(R2.size(), 1u);
  EXPECT_EQ(R1[0], R2[0]);
}

TEST(FieldListTest, AbsentFieldsAreRewrittenButNotRead) {
  // A thread-body kernel's segment size is absent: it is no operand and no
  // free variable, but substitution still rewrites it.
  NameSource NS;
  VName N = NS.fresh("n"), S = NS.fresh("s"), T = NS.fresh("t");
  KernelExp K;
  K.GridDims = {SubExp::var(N)};
  K.ThreadIndices = {NS.fresh("i")};
  K.SegSize = SubExp::var(S);
  std::vector<SubExp> Ops;
  forEachFreeOperand(K, [&](const SubExp &Op) { Ops.push_back(Op); });
  EXPECT_EQ(Ops, std::vector<SubExp>{SubExp::var(N)});
  EXPECT_FALSE(freeVarsInExp(K).count(S));
  substituteInExp({{S, SubExp::var(T)}}, K);
  EXPECT_EQ(K.SegSize, SubExp::var(T));

  // Segmented, the same field is read.
  K.Op = KernelExp::OpKind::SegReduce;
  EXPECT_TRUE(freeVarsInExp(K).count(T));
}

TEST(FieldListTest, CloneKeepsEveryFieldAndTheLocation) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  VName C = NS.fresh("c");
  ExpPtr E;
  makeMapPlusC(NS, Xs, C, E);
  E->Loc = SrcLoc{7, 3};
  ExpPtr Copy = E->clone();
  EXPECT_EQ(printExp(*Copy), printExp(*E));
  EXPECT_EQ(Copy->Loc.str(), "7:3");
  // A deep copy: the lambda body is not shared.
  auto *M = expCast<MapExp>(Copy.get());
  M->Fn.B.Stms.clear();
  EXPECT_NE(printExp(*Copy), printExp(*E));
}

TEST(PermTest, ComposeAndInvert) {
  std::vector<int> P = {2, 0, 1};
  EXPECT_EQ(composePerms(P, inversePerm(P)), identityPerm(3));
  EXPECT_EQ(composePerms(inversePerm(P), P), identityPerm(3));
  EXPECT_TRUE(isIdentityPerm(identityPerm(4)));
  EXPECT_FALSE(isIdentityPerm(P));
}

TEST(CSEHelpersTest, StructuralEquality) {
  NameSource NS;
  VName A = NS.fresh("a");
  VName B = NS.fresh("b");
  BinOpExp E1(BinOp::Add, SubExp::var(A), SubExp::var(B));
  BinOpExp E2(BinOp::Add, SubExp::var(A), SubExp::var(B));
  BinOpExp E3(BinOp::Sub, SubExp::var(A), SubExp::var(B));
  EXPECT_TRUE(expsStructurallyEqual(E1, E2));
  EXPECT_EQ(hashExpShallow(E1), hashExpShallow(E2));
  EXPECT_FALSE(expsStructurallyEqual(E1, E3));

  // Expressions with bodies are never CSE-able.
  ExpPtr M;
  makeMapPlusC(NS, A, B, M);
  EXPECT_FALSE(expIsCSEable(*M));
}

TEST(PrinterTest, ProducesReadableOutput) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  VName C = NS.fresh("c");
  ExpPtr E;
  makeMapPlusC(NS, Xs, C, E);
  std::string S = printExp(*E);
  EXPECT_NE(S.find("map"), std::string::npos);
  EXPECT_NE(S.find("xs_0"), std::string::npos);
}
