//===- memplan_test.cpp - Static memory planner unit tests ----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// Exercises the mem/ analyses and the planner on flattened pipelines:
// liveness of loop-carried arrays, interference on the concat-length-CSE
// regression program, double-buffer hoisting on a two-deep loop nest, and
// in-kernel consumption aliasing.
//
//===----------------------------------------------------------------------===//

#include "mem/MemPlan.h"

#include "check/Verify.h"
#include "driver/Compiler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;

namespace {

/// Compiles through the full pipeline and returns the result, asserting
/// success.
CompileResult compiled(const std::string &Src) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C))
      << (C ? "" : C.getError().str());
  return C.take();
}

const FunDef &mainFun(const Program &P) {
  const FunDef *F = P.findFun("main");
  EXPECT_NE(F, nullptr);
  return *F;
}

/// Asserts the re-deriving plan verifier accepts the compiled plan.
void expectPlanOk(const CompileResult &C) {
  MaybeError Err = verifyMemoryPlan(C.P, C.MemPlan, "memplan");
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().Message;
}

} // namespace

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(MemPlanLiveness, LoopCarriedArraysLiveAcrossWholeLoop) {
  CompileResult C = compiled(
      "fun main (xs: [8]i32): [8]i32 =\n"
      "  loop (a = xs) for i < 4 do map (\\(x: i32): i32 -> x + 1) a");
  mem::FunMemAnalysis A = mem::analyseFun(mainFun(C.P));

  // The merge parameter and the in-loop kernel output both carry storage
  // across iterations: their intervals must span the whole loop body, not
  // just their syntactic uses, and be flagged loop-carried.
  const mem::LiveInterval *Merge = nullptr, *Result = nullptr;
  for (const mem::LiveInterval &I : A.Intervals.Intervals) {
    if (I.MergeParam)
      Merge = &I;
    else if (I.LoopCarried)
      Result = &I;
  }
  ASSERT_NE(Merge, nullptr) << "no merge-parameter interval";
  ASSERT_NE(Result, nullptr) << "no loop-carried result interval";
  EXPECT_TRUE(Merge->LoopCarried);
  // Both cover the same span — the whole loop.
  EXPECT_EQ(Merge->Start, Result->Start);
  EXPECT_EQ(Merge->End, Result->End);
  EXPECT_LT(Merge->Start, Merge->End);
  EXPECT_TRUE(mem::interfere(*Merge, *Result));

  // They are linked by a loop-result alias edge (double-buffer halves).
  bool SawLoopEdge = false;
  for (const mem::AliasEdge &E : A.Aliases)
    if (E.Kind == mem::AliasKind::LoopResult)
      SawLoopEdge = true;
  EXPECT_TRUE(SawLoopEdge);
}

TEST(MemPlanLiveness, ArrayLiveIntoLoopSurvivesEveryIteration) {
  // xs is read inside the loop on every iteration, so its storage must be
  // extended to the loop's end even though its last syntactic use is the
  // loop's first statement.
  CompileResult C = compiled(
      "fun main (n: i32) (xs: [8]i32): [8]i32 =\n"
      "  loop (a = xs) for i < 4 do\n"
      "    map (\\(x: i32) (y: i32): i32 -> x + y) a xs");
  mem::FunMemAnalysis A = mem::analyseFun(mainFun(C.P));

  const mem::LiveInterval *Carried = nullptr;
  for (const mem::LiveInterval &I : A.Intervals.Intervals)
    if (I.LoopCarried && !I.MergeParam)
      Carried = &I;
  ASSERT_NE(Carried, nullptr);
  // xs is a parameter (Start == 0) and must stay live through the loop's
  // last statement.
  const FunDef &F = mainFun(C.P);
  const mem::LiveInterval *Xs = A.Intervals.lookup(F.Params.back().Name);
  ASSERT_NE(Xs, nullptr);
  EXPECT_EQ(Xs->Start, 0);
  EXPECT_GE(Xs->End, Carried->End);
}

//===----------------------------------------------------------------------===//
// Interference on the concat-length-CSE regression program
//===----------------------------------------------------------------------===//

TEST(MemPlanInterference, ConcatLengthCseProgram) {
  // The regression program behind tests/regress/cases/concat-length-cse.fut:
  // two reductions over concat a0 a0, whose intermediates interfere with
  // the live-to-the-end a0.
  CompileResult C = compiled(
      "fun main (n: i32) (a0: [n]i32): ([n]i32, i32) =\n"
      "  let s0 = reduce (\\(a: i32) (b: i32): i32 -> a + b) (0 + 3)\n"
      "                  (concat a0 a0)\n"
      "  let s1 = reduce (\\(a: i32) (b: i32): i32 -> a + b) (0 + 1)\n"
      "                  (concat a0 a0)\n"
      "  let check = reduce (\\(a: i32) (b: i32): i32 -> a + b) 0 a0\n"
      "  in (a0, check + s0 + s1)");
  mem::FunMemAnalysis A = mem::analyseFun(mainFun(C.P));

  // a0 is returned, so it interferes with every intermediate.
  const FunDef &F = mainFun(C.P);
  const mem::LiveInterval *A0 = A.Intervals.lookup(F.Params.back().Name);
  ASSERT_NE(A0, nullptr);
  int Interfering = 0;
  for (const mem::LiveInterval &I : A.Intervals.Intervals)
    if (!(I.Name == A0->Name) && mem::interfere(*A0, I))
      ++Interfering;
  EXPECT_GE(Interfering, 1);

  // The plan must separate simultaneously-live arrays; the re-deriving
  // verifier agrees.
  const mem::FunPlan *FP = C.MemPlan.forFun("main");
  ASSERT_NE(FP, nullptr);
  EXPECT_FALSE(FP->Entries.empty());
  expectPlanOk(C);

  // a0 must not share a slab range with anything live at the same time
  // (spot-check of what the verifier enforces wholesale).
  if (const mem::PlanEntry *EA = FP->lookup(A0->Name))
    for (const mem::PlanEntry &E : FP->Entries)
      if (!(E.Name == A0->Name) && E.Slab == EA->Slab) {
        const mem::LiveInterval *I = A.Intervals.lookup(E.Name);
        ASSERT_NE(I, nullptr);
        EXPECT_FALSE(mem::interfere(*A0, *I))
            << E.Name.str() << " shares a0's slab while live";
      }
}

//===----------------------------------------------------------------------===//
// Double-buffer hoisting
//===----------------------------------------------------------------------===//

TEST(MemPlanHoisting, TwoDeepLoopNestGetsHoistedDoubleBuffer) {
  CompileResult C = compiled(
      "fun main (xs: [8]i32): [8]i32 =\n"
      "  loop (a = xs) for i < 3 do\n"
      "    loop (b = a) for j < 2 do\n"
      "      map (\\(x: i32): i32 -> x + 1) b");
  const mem::FunPlan *FP = C.MemPlan.forFun("main");
  ASSERT_NE(FP, nullptr);

  // The carried storage chain (inner kernel output -> inner merge param /
  // pattern -> outer merge param) collapses into hoisted double-buffered
  // slabs allocated once, outside the loops.
  EXPECT_GE(FP->HoistedSlabs, 1);
  int HoistedEntries = 0, HalfOne = 0;
  for (const mem::PlanEntry &E : FP->Entries) {
    if (E.Hoisted)
      ++HoistedEntries;
    if (E.Hoisted && E.BufferIndex == 1)
      ++HalfOne;
  }
  EXPECT_GE(HoistedEntries, 2); // At least result + merge param.
  EXPECT_GE(HalfOne, 1);        // A merge param reads the other half.
  for (const mem::SlabInfo &S : FP->Slabs)
    if (S.Hoisted && S.Bytes >= 0) {
      EXPECT_EQ(S.Bytes % 2, 0); // Two equal halves.
    }

  expectPlanOk(C);
}

//===----------------------------------------------------------------------===//
// In-kernel consumption aliasing
//===----------------------------------------------------------------------===//

TEST(MemPlanConsume, InPlaceRowUpdateKernelAliasesConsumedInput) {
  // t's last use is the row-updating kernel producing u: the plan lets u
  // own t's block instead of charging both simultaneously.
  CompileResult C = compiled(
      "fun main (xss: [4][4]i32): [4][4]i32 =\n"
      "  let t = map (\\(r: [4]i32): [4]i32 ->\n"
      "                 map (\\(x: i32): i32 -> x * 2) r) xss\n"
      "  let u = map (\\(a: [4]i32): [4]i32 -> a with [0] <- 7) t\n"
      "  in u");
  mem::FunMemAnalysis A = mem::analyseFun(mainFun(C.P));

  bool SawConsume = false;
  for (const mem::AliasEdge &E : A.Aliases)
    if (E.Kind == mem::AliasKind::Consume)
      SawConsume = true;
  EXPECT_TRUE(SawConsume) << "no consumption alias edge derived";

  const mem::FunPlan *FP = C.MemPlan.forFun("main");
  ASSERT_NE(FP, nullptr);
  const mem::PlanEntry *Consumer = nullptr;
  for (const mem::PlanEntry &E : FP->Entries)
    if (E.HasAlias && E.Alias == mem::AliasKind::Consume)
      Consumer = &E;
  ASSERT_NE(Consumer, nullptr);
  const mem::PlanEntry *Source = FP->lookup(Consumer->AliasOf);
  ASSERT_NE(Source, nullptr);
  EXPECT_EQ(Consumer->Slab, Source->Slab);

  expectPlanOk(C);
}

TEST(MemPlanConsume, MergeParamIsNeverConsumedByKernel) {
  // The row-updating kernel consumes the loop's merge parameter — legal
  // surface code (Fig 4a), but the planner must not alias the kernel
  // output onto the merge parameter's block: the previous iteration's
  // half of the double buffer has to stay intact while the new one is
  // written.
  CompileResult C = compiled(
      "fun main (n: i32): [4][4]i32 =\n"
      "  loop (a = replicate 4 (replicate 4 n)) for i < 2 do\n"
      "    map (\\(r: [4]i32): [4]i32 -> r with [0] <- 7) a");
  mem::FunMemAnalysis A = mem::analyseFun(mainFun(C.P));
  for (const mem::AliasEdge &E : A.Aliases)
    EXPECT_NE(E.Kind, mem::AliasKind::Consume)
        << E.Dst.str() << " claims to consume " << E.Src.str();
  expectPlanOk(C);
}

//===----------------------------------------------------------------------===//
// Planner determinism
//===----------------------------------------------------------------------===//

TEST(MemPlan, PlanIsDeterministic) {
  const char *Src =
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  let ys = map (\\(x: i32): i32 -> x * 3) xs\n"
      "  in reduce (\\(a: i32) (b: i32): i32 -> a + b) 0 ys";
  CompileResult C1 = compiled(Src);
  CompileResult C2 = compiled(Src);
  EXPECT_EQ(C1.MemPlan.str(), C2.MemPlan.str());
}
