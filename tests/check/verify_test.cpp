//===- verify_test.cpp - Tests for the type-rederiving IR verifier ---------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier's contract: accept everything the real pipeline produces,
/// and reject a deliberately broken rewrite at the pass boundary that
/// produced it, naming the pass and the offending binding.  The broken
/// rewrite is injected through CompilerOptions::PostPassHook, the
/// test-only corruption point that runs before the verifier at every pass
/// boundary.
///
//===----------------------------------------------------------------------===//

#include "check/Verify.h"

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "ir/Builder.h"
#include "parser/Desugar.h"
#include "support/Utils.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

using namespace fut;
using namespace fut::test;

namespace {

Type i32s() { return Type::scalar(ScalarKind::I32); }

/// Verifies a hand-built malformed program and expects an ErrorKind::Verify
/// diagnostic whose message contains \p Needle.
void expectRejected(const Program &P, const std::string &Needle) {
  auto Err = verifyProgram(P, "test-pass", {});
  ASSERT_TRUE(static_cast<bool>(Err)) << "malformed program verified";
  EXPECT_EQ(Err.getError().Kind, ErrorKind::Verify) << Err.getError().str();
  EXPECT_NE(Err.getError().Message.find(Needle), std::string::npos)
      << Err.getError().str();
}

/// Plants corruption number \p Kind in \p B, choosing the site from
/// \p Pick: 0 returns a fresh never-bound name, 1 re-binds an earlier
/// statement's name in a later statement, 2 drops the last name of a
/// pattern.  Returns false when \p B has no site for that corruption.
/// CorruptionNeedles[Kind] is what the verifier's diagnostic must say.
const char *const CorruptionNeedles[] = {"unbound", "bound twice", "arity"};
bool plantCorruption(Body &B, uint64_t Kind, uint64_t Pick,
                     NameSource &Names) {
  std::vector<Stm *> Bound;
  for (Stm &S : B.Stms)
    if (!S.Pat.empty())
      Bound.push_back(&S);
  switch (Kind) {
  case 0:
    if (B.Result.empty())
      return false;
    B.Result[Pick % B.Result.size()] = SubExp::var(Names.fresh("planted"));
    return true;
  case 1: {
    if (Bound.size() < 2)
      return false;
    size_t Later = 1 + Pick % (Bound.size() - 1);
    size_t Earlier = (Pick / Bound.size()) % Later;
    Bound[Later]->Pat[0].Name = Bound[Earlier]->Pat[0].Name;
    return true;
  }
  default:
    if (Bound.empty())
      return false;
    Bound[Pick % Bound.size()]->Pat.pop_back();
    return true;
  }
}

} // namespace

TEST(VerifyTest, AcceptsFrontendOutput) {
  NameSource NS;
  auto P = frontend("fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce (+) 0 (map (+1) xs)",
                    NS);
  ASSERT_OK(P);
  auto Err = verifyProgram(*P, "frontend", {});
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
}

TEST(VerifyTest, AcceptsWholePipelineOutput) {
  // compileSource already verifies after every pass (VerifyIR defaults
  // on); additionally verify the final flattened program explicitly, for a
  // loop nest and for a stream_red with an in-place accumulator.
  const char *Sources[] = {
      "fun main (a: [n][m]f32) (steps: i32): [n][m]f32 =\n"
      "  map (\\(row: [m]f32): [m]f32 ->\n"
      "         loop (r = row) for t < steps do\n"
      "           map (\\(x: f32): f32 -> x * 0.5) r)\n"
      "      a",
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  stream_red (map (+))\n"
      "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
      "       loop (acc) for i < chunksize do\n"
      "         let cl = chunk[i]\n"
      "         in acc with [cl] <- acc[cl] + 1)\n"
      "    (replicate k 0) membership",
  };
  for (const char *Src : Sources) {
    NameSource NS;
    auto C = compileSource(Src, NS);
    ASSERT_OK(C);
    VerifyOptions VO;
    VO.Flattened = true;
    auto Err = verifyProgram(C->P, "final", VO);
    EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
  }
}

TEST(VerifyTest, BrokenRewriteCaughtAtPassBoundaryWithBindingName) {
  // Corrupt the program right after the simplify pass: re-declare the
  // first binding of main at the wrong rank.  The verifier must fail
  // compilation with an ErrorKind::Verify diagnostic naming both the pass
  // and the binding.
  NameSource NS;
  CompilerOptions Opts;
  std::string Corrupted;
  Opts.PostPassHook = [&](Program &P, const std::string &Pass) {
    if (Pass != "simplify" || !Corrupted.empty())
      return;
    FunDef *F = P.findFun("main");
    ASSERT_NE(F, nullptr);
    ASSERT_FALSE(F->FBody.Stms.empty());
    Param &Pat = F->FBody.Stms.front().Pat.front();
    Pat.Ty = Type::array(Pat.Ty.elemKind(), {i32(3), i32(3), i32(3)});
    Corrupted = Pat.Name.str();
  };
  auto C = compileSource("fun main (n: i32) (xs: [n]i32): i32 =\n"
                         "  reduce (+) 0 (map (\\(x: i32): i32 -> x + n) xs)",
                         NS, Opts);
  ASSERT_FALSE(static_cast<bool>(C)) << "corrupted program compiled";
  ASSERT_FALSE(Corrupted.empty()) << "hook never fired";
  const CompilerError &E = C.getError();
  EXPECT_EQ(E.Kind, ErrorKind::Verify) << E.str();
  EXPECT_NE(E.Message.find("after pass 'simplify'"), std::string::npos)
      << E.str();
  EXPECT_NE(E.Message.find(Corrupted), std::string::npos) << E.str();
}

TEST(VerifyTest, DanglingOperandNamesTheBinding) {
  NameSource NS;
  VName Ghost = NS.fresh("ghost");
  BodyBuilder BB(NS);
  VName R = BB.bind("r", i32s(),
                    std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(Ghost),
                                               i32(1)));
  Program P = singleFun({}, {i32s()}, BB.finish({SubExp::var(R)}));
  auto Err = verifyProgram(P, "test-pass", {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.getError().Kind, ErrorKind::Verify);
  EXPECT_NE(Err.getError().Message.find("unbound"), std::string::npos)
      << Err.getError().str();
  EXPECT_NE(Err.getError().Message.find(R.str()), std::string::npos)
      << Err.getError().str();
}

TEST(VerifyTest, SeededCorruptionsCaughtAtEveryPassBoundary) {
  // For each fuzz seed, plant one seeded corruption in main at one seeded
  // boundary of the default pipeline (frontend through locality: eight
  // boundaries) and demand that compilation fails right there with an
  // ErrorKind::Verify diagnostic naming that pass and the corruption.
  // Seeds whose chosen site does not exist (say, a one-statement body)
  // plant nothing and must compile cleanly.
  constexpr uint64_t Seeds = 300;
  constexpr uint64_t Boundaries = 8;
  int Applicable = 0;
  std::set<std::string> PassesHit;
  std::set<uint64_t> KindsHit;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SplitMix64 Rng(Seed);
    uint64_t Target = Rng.nextBelow(Boundaries);
    uint64_t Kind = Rng.nextBelow(3);
    uint64_t Pick = Rng.next();
    NameSource NS;
    CompilerOptions Opts;
    uint64_t Boundary = 0;
    std::string PlantedAt;
    Opts.PostPassHook = [&](Program &P, const std::string &Pass) {
      if (Boundary++ != Target)
        return;
      FunDef *F = P.findFun("main");
      if (F && plantCorruption(F->FBody, Kind, Pick, NS))
        PlantedAt = Pass;
    };
    auto C = compileSource(fuzz::generate(Seed).Source, NS, Opts);
    ASSERT_GT(Boundary, Target) << "seed " << Seed << ": boundary unreached";
    if (PlantedAt.empty()) {
      EXPECT_TRUE(static_cast<bool>(C)) << "seed " << Seed << ": "
                                        << C.getError().str();
      continue;
    }
    ++Applicable;
    PassesHit.insert(PlantedAt);
    KindsHit.insert(Kind);
    ASSERT_FALSE(static_cast<bool>(C))
        << "seed " << Seed << ": corruption " << Kind << " planted after '"
        << PlantedAt << "' got through";
    EXPECT_EQ(C.getError().Kind, ErrorKind::Verify)
        << "seed " << Seed << ": " << C.getError().str();
    for (std::string Needle :
         {"after pass '" + PlantedAt + "'",
          std::string(CorruptionNeedles[Kind])})
      EXPECT_NE(C.getError().Message.find(Needle), std::string::npos)
          << "seed " << Seed << ": " << C.getError().str();
  }
  std::printf("planted a corruption in %d of %d seeds\n", Applicable,
              static_cast<int>(Seeds));
  EXPECT_GE(Applicable, 200);
  EXPECT_EQ(PassesHit.size(), Boundaries);
  EXPECT_EQ(KindsHit.size(), 3u);
}

TEST(VerifyTest, DoubleBindingDetected) {
  NameSource NS;
  VName X = NS.fresh("x");
  BodyBuilder BB(NS);
  BB.append({Param(X, i32s())}, subExpE(i32(1)));
  BB.append({Param(X, i32s())}, subExpE(i32(2)));
  expectRejected(singleFun({}, {i32s()}, BB.finish({SubExp::var(X)})),
                 "bound twice");
}

TEST(VerifyTest, PatternArityMismatchDetected) {
  NameSource NS;
  VName C = NS.fresh("c");
  BodyBuilder TB(NS), EB(NS), BB(NS);
  Body Then = TB.finish({i32(1), i32(2)});
  Body Else = EB.finish({i32(3), i32(4)});
  // The if produces two values but the pattern binds one.
  VName R = NS.fresh("r");
  BB.append({Param(R, i32s())},
            std::make_unique<IfExp>(SubExp::var(C), std::move(Then),
                                    std::move(Else),
                                    std::vector<Type>{i32s(), i32s()}));
  expectRejected(singleFun({Param(C, Type::scalar(ScalarKind::Bool))},
                           {i32s()}, BB.finish({SubExp::var(R)})),
                 "arity");
}

TEST(VerifyTest, BadPermutationDetected) {
  NameSource NS;
  VName A = NS.fresh("a");
  Type Sq = Type::array(ScalarKind::I32, {i32(2), i32(2)});
  BodyBuilder BB(NS);
  VName T = BB.bind("t", Sq,
                    std::make_unique<RearrangeExp>(std::vector<int>{0, 0},
                                                   A));
  expectRejected(singleFun({Param(A, Sq)}, {Sq}, BB.finish({SubExp::var(T)})),
                 "permutation");
}

TEST(VerifyTest, ScalarUsedAsArrayDetected) {
  NameSource NS;
  VName X = NS.fresh("x");
  BodyBuilder BB(NS);
  SubExp R = BB.index(X, {i32(0)}, i32s());
  expectRejected(singleFun({Param(X, i32s())}, {i32s()}, BB.finish({R})),
                 "scalar");
}

TEST(VerifyTest, ReduceOperatorArityDetected) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  BodyBuilder BB(NS);
  // A reduce whose operator takes one parameter instead of two.
  VName P1 = NS.fresh("p");
  BodyBuilder LB(NS);
  Lambda Bad({Param(P1, i32s())}, LB.finish({SubExp::var(P1)}), {i32s()});
  VName R = BB.bind("r", i32s(),
                    std::make_unique<ReduceExp>(
                        i32(4), std::move(Bad), std::vector<SubExp>{i32(0)},
                        std::vector<VName>{Xs}));
  expectRejected(
      singleFun({Param(Xs, Type::array(ScalarKind::I32, {i32(4)}))},
                {i32s()}, BB.finish({SubExp::var(R)})),
      "parameters");
}

TEST(VerifyTest, ConsumedArrayObservedAgainDetected) {
  // let b = a with [0] <- x consumes a; reading a afterwards violates the
  // post-uniq discipline the verifier enforces on every pass's output.
  NameSource NS;
  VName A = NS.fresh("a"), X = NS.fresh("x");
  Type ArrT = Type::array(ScalarKind::I32, {i32(4)});
  BodyBuilder BB(NS);
  VName B = BB.bind("b", ArrT,
                    std::make_unique<UpdateExp>(
                        A, std::vector<SubExp>{i32(0)}, SubExp::var(X)));
  SubExp Read = BB.index(A, {i32(0)}, i32s());
  Program P = singleFun({Param(A, ArrT), Param(X, i32s())}, {i32s()},
                        BB.finish({Read}));
  (void)B;
  auto Err = verifyProgram(P, "test-pass", {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("consumed"), std::string::npos)
      << Err.getError().str();
}

TEST(VerifyTest, HostSOACRejectedOnlyAfterFlattening) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  Type ArrT = Type::array(ScalarKind::I32, {i32(4)});
  VName LP = NS.fresh("p");
  BodyBuilder LB(NS);
  Lambda Id({Param(LP, i32s())}, LB.finish({SubExp::var(LP)}), {i32s()});
  BodyBuilder BB(NS);
  VName M = BB.bind("m", ArrT,
                    std::make_unique<MapExp>(i32(4), std::move(Id),
                                             std::vector<VName>{Xs}));
  Program P = singleFun({Param(Xs, ArrT)}, {ArrT},
                        BB.finish({SubExp::var(M)}));

  // Before kernel extraction a host map is fine...
  auto Pre = verifyProgram(P, "simplify", {});
  EXPECT_FALSE(static_cast<bool>(Pre)) << Pre.getError().str();

  // ...after it, it is nested parallelism that escaped flattening.
  VerifyOptions Flat;
  Flat.Flattened = true;
  auto Post = verifyProgram(P, "kernel-extraction", Flat);
  ASSERT_TRUE(static_cast<bool>(Post));
  EXPECT_NE(Post.getError().Message.find("host-level"), std::string::npos)
      << Post.getError().str();

  // ...unless the ablation pipeline legitimately leaves SOACs on the host.
  Flat.AllowHostSOACs = true;
  auto Ablation = verifyProgram(P, "kernel-extraction", Flat);
  EXPECT_FALSE(static_cast<bool>(Ablation)) << Ablation.getError().str();
}

TEST(VerifyTest, PatternTypeMismatchDetected) {
  NameSource NS;
  BodyBuilder BB(NS);
  // iota 4 derives [4]i32 but the pattern declares a scalar.
  VName R = BB.bind("r", i32s(), std::make_unique<IotaExp>(i32(4)));
  Program P = singleFun({}, {i32s()}, BB.finish({SubExp::var(R)}));
  auto Err = verifyProgram(P, "test-pass", {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find(R.str()), std::string::npos)
      << Err.getError().str();
}

TEST(VerifyTest, OverlappingMemoryPlanRejected) {
  // Corrupt the memory plan right after planning: collapse every entry
  // onto slab 0 at offset 0.  The two map results are simultaneously
  // live (both feed the final reduce), so the re-deriving plan verifier
  // must reject the layout, naming the pass and the slab.
  NameSource NS;
  CompilerOptions Opts;
  bool Corrupted = false;
  Opts.PostPlanHook = [&](mem::MemoryPlan &MP) {
    for (mem::FunPlan &FP : MP.Funs) {
      if (FP.Entries.size() < 2)
        continue;
      for (mem::PlanEntry &E : FP.Entries) {
        E.Slab = 0;
        E.Offset = 0;
        E.BufferIndex = 0;
        Corrupted = true;
      }
      for (mem::SlabInfo &S : FP.Slabs)
        S.Hoisted = false;
    }
  };
  auto C = compileSource(
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  let a = map (\\(x: i32): i32 -> x + 1) xs\n"
      "  let b = map (\\(x: i32): i32 -> x * 2) xs\n"
      "  in reduce (\\(p: i32) (q: i32): i32 -> p + q) 0\n"
      "            (map (\\(p: i32) (q: i32): i32 -> p + q) a b)",
      NS, Opts);
  ASSERT_FALSE(static_cast<bool>(C)) << "overlapping plan accepted";
  ASSERT_TRUE(Corrupted) << "hook never fired";
  const CompilerError &E = C.getError();
  EXPECT_EQ(E.Kind, ErrorKind::Verify) << E.str();
  EXPECT_NE(E.Message.find("after pass 'memplan'"), std::string::npos)
      << E.str();
  EXPECT_NE(E.Message.find("overlap in slab"), std::string::npos) << E.str();
}

TEST(VerifyTest, FabricatedAliasInPlanRejected) {
  // A plan claiming a consumption alias no let/consume/loop edge
  // justifies must be rejected even if the byte layout happens to be
  // consistent.
  NameSource NS;
  CompilerOptions Opts;
  bool Corrupted = false;
  Opts.PostPlanHook = [&](mem::MemoryPlan &MP) {
    for (mem::FunPlan &FP : MP.Funs)
      for (size_t I = 1; I < FP.Entries.size(); ++I)
        if (!FP.Entries[I].HasAlias) {
          FP.Entries[I].HasAlias = true;
          FP.Entries[I].AliasOf = FP.Entries[0].Name;
          FP.Entries[I].Alias = mem::AliasKind::Consume;
          Corrupted = true;
          return;
        }
  };
  auto C = compileSource(
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  let a = map (\\(x: i32): i32 -> x + 1) xs\n"
      "  in reduce (\\(p: i32) (q: i32): i32 -> p + q) 0 a",
      NS, Opts);
  ASSERT_FALSE(static_cast<bool>(C)) << "fabricated alias accepted";
  ASSERT_TRUE(Corrupted) << "hook never fired";
  EXPECT_EQ(C.getError().Kind, ErrorKind::Verify) << C.getError().str();
  EXPECT_NE(C.getError().Message.find("memplan"), std::string::npos)
      << C.getError().str();
}

TEST(VerifyTest, AcceptsEveryPipelinePlan) {
  // The plan verifier runs inside compileSource on every compile (the
  // default VerifyIR); a loop + consumption heavy program must come out
  // with a verified plan.
  NameSource NS;
  auto C = compileSource(
      "fun main (n: i32) (xss: [4][8]i32): [4][8]i32 =\n"
      "  loop (a = xss) for i < 3 do\n"
      "    let t = map (\\(r: [8]i32): [8]i32 ->\n"
      "                   map (\\(x: i32): i32 -> x + 1) r) a\n"
      "    in map (\\(r: [8]i32): [8]i32 -> r with [0] <- 5) t",
      NS);
  ASSERT_OK(C);
  const mem::FunPlan *FP = C->MemPlan.forFun("main");
  ASSERT_NE(FP, nullptr);
  EXPECT_FALSE(FP->Entries.empty());
  MaybeError Err = verifyMemoryPlan(C->P, C->MemPlan, "memplan");
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().Message;
}
