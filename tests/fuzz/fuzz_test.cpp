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
/// serialisation round-trips; and the leg oracle's own contracts: the
/// fixed sweep table, twin checks that name the failing leg and check,
/// and shrinking on the failing leg alone.  The fixed seeds' agreement
/// under each fault and device configuration is DifferentialTest's job.
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

namespace {

/// The legs of sweepLegs() named \p Names, in that order.
std::vector<Leg> sweepLegsNamed(std::initializer_list<std::string> Names) {
  std::vector<Leg> Out;
  for (const std::string &N : Names)
    for (const Leg &L : sweepLegs())
      if (L.Name == N)
        Out.push_back(L);
  EXPECT_EQ(Out.size(), Names.size());
  return Out;
}

/// Legs default, split and pipeline, where both twins disagree with
/// default on every program that launches a kernel: "split" also charges
/// one more launch cycle, "pipeline" also moves 32-byte segments.
std::vector<Leg> brokenTwins() {
  std::vector<Leg> Legs = sweepLegsNamed({"default", "split", "pipeline"});
  Legs[1].Device.LaunchCycles += 1;
  Legs[2].Device.SegmentBytes = 32;
  return Legs;
}

std::vector<std::string> legNames(const std::vector<Leg> &Legs) {
  std::vector<std::string> Out;
  for (const Leg &L : Legs)
    Out.push_back(L.Name);
  return Out;
}

bool contains(const std::string &S, const std::string &Part) {
  return S.find(Part) != std::string::npos;
}

} // namespace

TEST(FuzzTest, SweepLegsAreFixed) {
  EXPECT_EQ(legNames(sweepLegs()),
            (std::vector<std::string>{"default", "split", "devices2",
                                      "hist-global", "hist-global-devices2",
                                      "pipeline"}));
}

TEST(FuzzTest, CrossModelSeedsAgree) {
  // The cost model prices cycles and must not change what runs: the
  // pipeline leg must agree with the reference and keep the default
  // leg's model-independent counters.  The CI sweep runs this twin check
  // on every seed.
  std::vector<Leg> Legs = sweepLegsNamed({"default", "pipeline"});
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    for (const Outcome &O : runDifferential(generate(Seed), Legs))
      EXPECT_TRUE(O.Ok) << "seed " << Seed << ":\n" << O.Message;
}

TEST(FuzzTest, TwinDisagreementsNameTheLegAndTheCheck) {
  // Both broken twins still agree with the reference; only the twin
  // checks see the difference.
  std::vector<Outcome> Os = runDifferential(generate(1), brokenTwins());
  ASSERT_EQ(Os.size(), 3u);
  EXPECT_TRUE(Os[0].Ok) << Os[0].Message;
  EXPECT_FALSE(Os[1].Ok);
  EXPECT_TRUE(contains(Os[1].Message,
                       "leg split: cost line differs from leg default"))
      << Os[1].Message;
  EXPECT_FALSE(Os[2].Ok);
  EXPECT_TRUE(contains(Os[2].Message, "leg pipeline: counter "
                                      "GlobalTransactions differs from leg "
                                      "default"))
      << Os[2].Message;

  // A twin whose base leg does not run cannot pass unchecked.
  Outcome Alone = runDifferential(generate(1), sweepLegsNamed({"split"}))[0];
  EXPECT_FALSE(Alone.Ok);
  EXPECT_TRUE(contains(Alone.Message, "leg split: twin of leg default, "
                                      "which is not run"))
      << Alone.Message;
}

TEST(FuzzTest, ShrinkRerunsOnlyTheFailingLeg) {
  std::vector<Leg> Legs = brokenTwins();
  // A twin reruns with its base, any other leg alone.
  EXPECT_EQ(legNames(rerunLegs(Legs, 2)),
            (std::vector<std::string>{"default", "pipeline"}));
  EXPECT_EQ(legNames(rerunLegs(sweepLegs(), 2)),
            (std::vector<std::string>{"devices2"}));

  // Seed 1 fails on both twins; shrinking the pipeline failure must see
  // only the pipeline leg's check, never the split leg's, and the minimal
  // case must still fail on that leg.
  Plan P = samplePlan(1);
  ShrinkResult SR = shrink(P, 1, Legs, 2);
  EXPECT_TRUE(contains(SR.Message, "leg pipeline: counter")) << SR.Message;
  EXPECT_GT(SR.StepsRemoved, 0);
  EXPECT_LT(SR.MinimalPlan.Steps.size(), P.Steps.size());
  std::vector<Outcome> Os = runDifferential(SR.Minimal, Legs);
  EXPECT_FALSE(Os[2].Ok);
  EXPECT_EQ(Os[2].Message, SR.Message);
}

TEST(FuzzTest, NaNAndNegativeZeroOutputsAgree) {
  // Bit-identity is judged by firstDifference: a NaN agrees with a NaN,
  // and a zero only with a zero of the same sign.  PrimValue's own ==
  // says NaN != NaN, so an oracle built on it rejected 0/0 on both sides.
  std::vector<Value> Zero = {Value::scalar(PrimValue::makeF32(0.0f))};
  Outcome NaN =
      runSourceDifferential("fun main (x: f32): f32 = x / x", Zero).front();
  EXPECT_TRUE(NaN.Ok) << NaN.Message;
  Outcome NegZero =
      runSourceDifferential("fun main (x: f32): f32 = x * -1.0", Zero)
          .front();
  EXPECT_TRUE(NegZero.Ok) << NegZero.Message;
}

TEST(FuzzTest, PlanSubsetsStayWellTyped) {
  // The shrinker removes arbitrary steps; any subset must still compile
  // and agree.  Exercise every leave-one-out subset of one plan.
  Plan P = samplePlan(180);
  for (size_t Drop = 0; Drop < P.Steps.size(); ++Drop) {
    Plan Q = P;
    Q.Steps.erase(Q.Steps.begin() + static_cast<long>(Drop));
    Outcome O = runDifferential(renderPlan(Q, 180)).front();
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
