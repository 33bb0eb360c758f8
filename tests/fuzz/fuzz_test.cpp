//===- fuzz_test.cpp - Tests for the seeded program fuzzer -----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer itself is test infrastructure, so these tests pin the
/// properties the regress corpus and CI smoke depend on: seeded generation
/// is bit-stable, plan subsets stay well-typed (the shrinker's soundness
/// condition), the shared shrink passes find the minimal plan, and the .fut
/// serialisation round-trips.  The fixed seeds' agreement across both
/// execution paths is DifferentialTest's job.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::fuzz;

TEST(FuzzTest, GenerationIsDeterministic) {
  for (uint64_t Seed : {1u, 7u, 180u, 499u}) {
    FuzzCase A = generate(Seed);
    FuzzCase B = generate(Seed);
    EXPECT_EQ(A.Source, B.Source) << "seed " << Seed;
    ASSERT_EQ(A.Args.size(), B.Args.size());
    for (size_t I = 0; I < A.Args.size(); ++I)
      EXPECT_TRUE(A.Args[I] == B.Args[I]) << "seed " << Seed << " arg " << I;
  }
  // Not a strict requirement seed-by-seed, but the pool as a whole must
  // not collapse to one program.
  int Distinct = 0;
  FuzzCase First = generate(1);
  for (uint64_t Seed = 2; Seed <= 20; ++Seed)
    Distinct += generate(Seed).Source != First.Source ? 1 : 0;
  EXPECT_GT(Distinct, 15);
}

TEST(FuzzTest, CrossModelSeedsAgree) {
  // The cost model prices cycles and must not change what runs: both
  // models must produce bit-identical outputs and exactly equal
  // model-independent counters.  CI runs a 150-seed leg of this oracle.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Outcome O = runCrossModel(generate(Seed));
    EXPECT_TRUE(O.Ok) << "seed " << Seed << ":\n" << O.Message;
  }
}

TEST(FuzzTest, PlanSubsetsStayWellTyped) {
  // The shrinker removes arbitrary steps; any subset must still compile
  // and agree.  Exercise every leave-one-out subset of one plan.
  Plan P = samplePlan(180);
  for (size_t Drop = 0; Drop < P.Steps.size(); ++Drop) {
    Plan Q = P;
    Q.Steps.erase(Q.Steps.begin() + static_cast<long>(Drop));
    Outcome O = runDifferential(renderPlan(Q, 180));
    EXPECT_TRUE(O.Ok) << "dropped step " << Drop << ":\n" << O.Message;
  }
}

TEST(FuzzTest, ShrinkPassesFindTheMinimalPlan) {
  // A synthetic failure: it needs a DivVar step, at least 10 elements and
  // a nonzero fourth input.  The shared passes must strip everything else.
  Plan P;
  P.N = 40;
  for (Step::Kind K : {Step::Kind::Map, Step::Kind::DivVar, Step::Kind::Scan,
                       Step::Kind::Reduce}) {
    Step S;
    S.K = K;
    P.Steps.push_back(S);
  }
  for (int32_t I = 1; I <= 40; ++I)
    P.Input.push_back(I);
  auto Failure = [](const Plan &Q) {
    bool Div = false;
    for (const Step &S : Q.Steps)
      Div = Div || S.K == Step::Kind::DivVar;
    if (!Div || Q.N < 10 || Q.Input[3] == 0)
      return std::string();
    return "fails at N=" + std::to_string(Q.N);
  };
  auto Inputs = [](Plan &Q) {
    std::vector<int32_t *> In;
    for (int32_t &X : Q.Input)
      In.push_back(&X);
    return In;
  };

  ShrinkResult SR = shrinkPlan(P, Failure, Inputs);
  ASSERT_EQ(SR.MinimalPlan.Steps.size(), 1u);
  EXPECT_EQ(SR.MinimalPlan.Steps[0].K, Step::Kind::DivVar);
  EXPECT_EQ(SR.StepsRemoved, 3);
  EXPECT_EQ(SR.MinimalPlan.N, 10);
  EXPECT_EQ(SR.MinimalPlan.Input,
            std::vector<int32_t>({0, 0, 0, 4, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(SR.Message, "fails at N=10");
  // 1 initial run, 6 step drops, 3 halvings (40, 20, 10 -> 5 passes) and
  // one try per nonzero input.
  EXPECT_EQ(SR.Attempts, 20);
}

TEST(FuzzTest, ShrinkLeavesAPassingCaseAlone) {
  Plan P = samplePlan(1);
  ShrinkResult SR = shrink(P, 1);
  EXPECT_EQ(SR.Message, "case does not fail; nothing to shrink");
  EXPECT_EQ(SR.Attempts, 1);
  EXPECT_EQ(SR.StepsRemoved, 0);
  EXPECT_EQ(SR.Minimal.Source, generate(1).Source);
}

TEST(FuzzTest, RegressionFileRoundTrips) {
  FuzzCase C = generate(42);
  std::string Text = toRegressionFile(C, {"round-trip test"});
  FuzzCase Back;
  ASSERT_TRUE(loadRegressionFile(Text, Back));
  EXPECT_EQ(Back.Source, C.Source);
  ASSERT_EQ(Back.Args.size(), C.Args.size());
  for (size_t I = 0; I < C.Args.size(); ++I)
    EXPECT_TRUE(Back.Args[I] == C.Args[I]) << "arg " << I;
}

TEST(FuzzTest, ArgsLineRejectsMalformedInput) {
  std::vector<Value> Out;
  EXPECT_FALSE(parseArgsLine("args: 1", Out));
  EXPECT_FALSE(parseArgsLine("-- args: [1,2", Out));
  EXPECT_TRUE(parseArgsLine("-- args: 8 [1,-2,3]", Out));
  ASSERT_EQ(Out.size(), 2u);
}
