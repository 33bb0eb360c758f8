//===- interp_test.cpp - Tests for the reference interpreter ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "ir/Builder.h"
#include "parser/Desugar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>
#include <numeric>

using namespace fut;
using namespace fut::test;

namespace {

Type i32s() { return Type::scalar(ScalarKind::I32); }
Type i32v(SubExp D) { return Type::array(ScalarKind::I32, {D}); }

/// fun main (n: i32) (xs: [n]i32): ... with a body built by Fn.
Program vecProgram(
    const std::function<Body(NameSource &, VName N, VName Xs)> &MkBody,
    std::vector<Type> RetTypes) {
  NameSource NS;
  VName N = NS.fresh("n");
  VName Xs = NS.fresh("xs");
  Body B = MkBody(NS, N, Xs);
  return singleFun({Param(N, i32s()), Param(Xs, i32v(SubExp::var(N)))},
                   std::move(RetTypes), std::move(B));
}

Value vec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}
Value i32val(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }

} // namespace

TEST(InterpTest, MapAddsOne) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName X = NS.fresh("x");
        BodyBuilder LB(NS);
        SubExp R = LB.binOp(BinOp::Add, SubExp::var(X), i32(1),
                            ScalarKind::I32);
        Lambda Fn({Param(X, i32s())}, LB.finish({R}), {i32s()});
        VName Out = BB.bind("out", i32v(SubExp::var(N)),
                            std::make_unique<MapExp>(
                                SubExp::var(N), std::move(Fn),
                                std::vector<VName>{Xs}));
        return BB.finish({SubExp::var(Out)});
      },
      {i32v(SubExp())});

  auto R = runOk(P, {i32val(4), vec({1, 2, 3, 4})});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], vec({2, 3, 4, 5}));
}

TEST(InterpTest, ReduceSums) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        Lambda Fn = binOpLambda(BinOp::Add, ScalarKind::I32, NS);
        VName Out = BB.bind("out", i32s(),
                            std::make_unique<ReduceExp>(
                                SubExp::var(N), std::move(Fn),
                                std::vector<SubExp>{i32(0)},
                                std::vector<VName>{Xs}));
        return BB.finish({SubExp::var(Out)});
      },
      {i32s()});

  auto R = runOk(P, {i32val(5), vec({1, 2, 3, 4, 5})});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], i32val(15));
}

TEST(InterpTest, ScanComputesPrefixSums) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        Lambda Fn = binOpLambda(BinOp::Add, ScalarKind::I32, NS);
        VName Out = BB.bind("out", i32v(SubExp::var(N)),
                            std::make_unique<ScanExp>(
                                SubExp::var(N), std::move(Fn),
                                std::vector<SubExp>{i32(0)},
                                std::vector<VName>{Xs}));
        return BB.finish({SubExp::var(Out)});
      },
      {i32v(SubExp())});

  auto R = runOk(P, {i32val(4), vec({1, 2, 3, 4})});
  EXPECT_EQ(R[0], vec({1, 3, 6, 10}));
}

TEST(InterpTest, LoopAccumulates) {
  // loop (acc = 0) for i < n do acc + xs[i]
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Acc = NS.fresh("acc");
        VName I = NS.fresh("i");
        BodyBuilder LB(NS);
        SubExp Xi = LB.index(Xs, {SubExp::var(I)}, i32s());
        SubExp R = LB.binOp(BinOp::Add, SubExp::var(Acc), Xi,
                            ScalarKind::I32);
        VName Out = BB.bind(
            "out", i32s(),
            std::make_unique<LoopExp>(
                std::vector<Param>{Param(Acc, i32s())},
                std::vector<SubExp>{i32(0)}, I, SubExp::var(N),
                LB.finish({R})));
        return BB.finish({SubExp::var(Out)});
      },
      {i32s()});

  auto R = runOk(P, {i32val(4), vec({10, 20, 30, 40})});
  EXPECT_EQ(R[0], i32val(100));
}

TEST(InterpTest, InPlaceUpdate) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<UpdateExp>(
                               Xs, std::vector<SubExp>{i32(1)}, i32(99)));
        return BB.finish({SubExp::var(Ys)});
      },
      {i32v(SubExp())});

  auto R = runOk(P, {i32val(3), vec({1, 2, 3})});
  EXPECT_EQ(R[0], vec({1, 99, 3}));
}

TEST(InterpTest, UpdateOutOfBoundsFails) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<UpdateExp>(
                               Xs, std::vector<SubExp>{i32(7)}, i32(0)));
        return BB.finish({SubExp::var(Ys)});
      },
      {i32v(SubExp())});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(3), vec({1, 2, 3})}), "out of bounds");
}

TEST(InterpTest, IotaReplicateConcat) {
  NameSource NS;
  BodyBuilder BB(NS);
  VName A = BB.bind("a", i32v(i32(3)),
                    std::make_unique<IotaExp>(i32(3), ScalarKind::I32));
  VName B = BB.bind("b", i32v(i32(2)),
                    std::make_unique<ReplicateExp>(i32(2), i32(7), i32s()));
  VName C = BB.bind("c", i32v(i32(5)),
                    std::make_unique<ConcatExp>(std::vector<VName>{A, B}));
  Program P = singleFun({}, {i32v(i32(5))}, BB.finish({SubExp::var(C)}));
  auto R = runOk(P, {});
  EXPECT_EQ(R[0], vec({0, 1, 2, 7, 7}));
}

TEST(InterpTest, RearrangeTransposes) {
  NameSource NS;
  VName M = NS.fresh("m");
  BodyBuilder BB(NS);
  VName T = BB.bind("t", Type::array(ScalarKind::I32, {i32(3), i32(2)}),
                    std::make_unique<RearrangeExp>(std::vector<int>{1, 0}, M));
  Program P = singleFun({Param(M, Type::array(ScalarKind::I32,
                                              {i32(2), i32(3)}))},
                        {Type::array(ScalarKind::I32, {i32(3), i32(2)})},
                        BB.finish({SubExp::var(T)}));
  Value In = Value::array(ScalarKind::I32, {2, 3},
                          {PrimValue::makeI32(1), PrimValue::makeI32(2),
                           PrimValue::makeI32(3), PrimValue::makeI32(4),
                           PrimValue::makeI32(5), PrimValue::makeI32(6)});
  auto R = runOk(P, {In});
  Value Want = Value::array(ScalarKind::I32, {3, 2},
                            {PrimValue::makeI32(1), PrimValue::makeI32(4),
                             PrimValue::makeI32(2), PrimValue::makeI32(5),
                             PrimValue::makeI32(3), PrimValue::makeI32(6)});
  EXPECT_EQ(R[0], Want);
}

TEST(InterpTest, IfBranches) {
  NameSource NS;
  VName C = NS.fresh("c");
  BodyBuilder BB(NS);
  BodyBuilder TB(NS);
  Body Then = TB.finish({i32(1)});
  BodyBuilder EB(NS);
  Body Else = EB.finish({i32(2)});
  VName R = BB.bind("r", i32s(),
                    std::make_unique<IfExp>(SubExp::var(C), std::move(Then),
                                            std::move(Else),
                                            std::vector<Type>{i32s()}));
  Program P = singleFun({Param(C, Type::scalar(ScalarKind::Bool))}, {i32s()},
                        BB.finish({SubExp::var(R)}));
  EXPECT_EQ(runOk(P, {Value::scalar(PrimValue::makeBool(true))})[0],
            i32val(1));
  EXPECT_EQ(runOk(P, {Value::scalar(PrimValue::makeBool(false))})[0],
            i32val(2));
}

TEST(InterpTest, IrregularMapFails) {
  // map (\i -> iota i) (iota n) produces irregular rows -> dynamic error,
  // matching the paper's dynamically checked regularity.
  NameSource NS;
  VName N = NS.fresh("n");
  BodyBuilder BB(NS);
  VName Is = BB.bind("is", i32v(SubExp::var(N)),
                     std::make_unique<IotaExp>(SubExp::var(N),
                                               ScalarKind::I32));
  VName I = NS.fresh("i");
  BodyBuilder LB(NS);
  VName Row = LB.bind("row", i32v(SubExp::var(I)),
                      std::make_unique<IotaExp>(SubExp::var(I),
                                                ScalarKind::I32));
  Lambda Fn({Param(I, i32s())}, LB.finish({SubExp::var(Row)}),
            {i32v(SubExp::var(I))});
  VName Out = BB.bind("out",
                      Type::array(ScalarKind::I32, {SubExp::var(N),
                                                    SubExp::var(N)}),
                      std::make_unique<MapExp>(SubExp::var(N), std::move(Fn),
                                               std::vector<VName>{Is}));
  Program P = singleFun({Param(N, i32s())},
                        {Type::array(ScalarKind::I32, {SubExp::var(N)})},
                        BB.finish({SubExp::var(Out)}));
  Interpreter In(P);
  EXPECT_ERR_CONTAINS(In.run({i32val(3)}), "irregular");
}

//===----------------------------------------------------------------------===//
// Streaming SOACs: the chunking-invariance property of Section 4.
//===----------------------------------------------------------------------===//

namespace {

/// stream_red (+) (\m acc chunk -> acc + sum chunk) 0 xs.
Program streamRedSum() {
  NameSource NS;
  VName N = NS.fresh("n");
  VName Xs = NS.fresh("xs");
  BodyBuilder BB(NS);

  Lambda Red = binOpLambda(BinOp::Add, ScalarKind::I32, NS);

  VName M = NS.fresh("m");
  VName Acc = NS.fresh("acc");
  VName Chunk = NS.fresh("chunk");
  BodyBuilder FB(NS);
  Lambda SumFn = binOpLambda(BinOp::Add, ScalarKind::I32, NS);
  VName S = FB.bind("s", i32s(),
                    std::make_unique<ReduceExp>(
                        SubExp::var(M), std::move(SumFn),
                        std::vector<SubExp>{i32(0)},
                        std::vector<VName>{Chunk}));
  SubExp R = FB.binOp(BinOp::Add, SubExp::var(Acc), SubExp::var(S),
                      ScalarKind::I32);
  Lambda Fold({Param(M, i32s()), Param(Acc, i32s()),
               Param(Chunk, i32v(SubExp::var(M)))},
              FB.finish({R}), {i32s()});

  VName Out = BB.bind("out", i32s(),
                      std::make_unique<StreamExp>(
                          StreamExp::FormKind::Red, SubExp::var(N),
                          std::move(Red), 1, std::vector<SubExp>{i32(0)},
                          std::move(Fold), std::vector<VName>{Xs}));
  return singleFun({Param(N, i32s()), Param(Xs, i32v(SubExp::var(N)))},
                   {i32s()}, BB.finish({SubExp::var(Out)}));
}

} // namespace

class StreamChunkingSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(StreamChunkingSweep, StreamRedIsChunkInvariant) {
  Program P = streamRedSum();
  std::vector<int64_t> Data = randomInts(37, 123);
  int64_t Want = std::accumulate(Data.begin(), Data.end(), int64_t(0));
  InterpOptions Opts;
  Opts.StreamChunk = GetParam();
  auto R = runOk(P, {i32val(37), vec(Data)}, Opts);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].getScalar().getInt(), Want);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamChunkingSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 36, 37, 100));

TEST(InterpTest, StreamSeqThreadsAccumulator) {
  // stream_seq (\m acc chunk -> (acc + sum chunk, map (+acc) chunk)) 0 xs:
  // per-chunk results depend on the running accumulator.
  NameSource NS;
  VName N = NS.fresh("n");
  VName Xs = NS.fresh("xs");
  BodyBuilder BB(NS);

  VName M = NS.fresh("m");
  VName Acc = NS.fresh("acc");
  VName Chunk = NS.fresh("chunk");
  BodyBuilder FB(NS);
  Lambda SumFn = binOpLambda(BinOp::Add, ScalarKind::I32, NS);
  VName S = FB.bind("s", i32s(),
                    std::make_unique<ReduceExp>(
                        SubExp::var(M), std::move(SumFn),
                        std::vector<SubExp>{i32(0)},
                        std::vector<VName>{Chunk}));
  SubExp NewAcc = FB.binOp(BinOp::Add, SubExp::var(Acc), SubExp::var(S),
                           ScalarKind::I32);
  VName X = NS.fresh("x");
  BodyBuilder MB(NS);
  SubExp MR = MB.binOp(BinOp::Add, SubExp::var(X), SubExp::var(Acc),
                       ScalarKind::I32);
  Lambda MapFn({Param(X, i32s())}, MB.finish({MR}), {i32s()});
  VName Mapped = FB.bind("mapped", i32v(SubExp::var(M)),
                         std::make_unique<MapExp>(SubExp::var(M),
                                                  std::move(MapFn),
                                                  std::vector<VName>{Chunk}));
  Lambda Fold({Param(M, i32s()), Param(Acc, i32s()),
               Param(Chunk, i32v(SubExp::var(M)))},
              FB.finish({NewAcc, SubExp::var(Mapped)}),
              {i32s(), i32v(SubExp::var(M))});

  auto Outs = BB.bindMulti("out", {i32s(), i32v(SubExp::var(N))},
                           std::make_unique<StreamExp>(
                               StreamExp::FormKind::Seq, SubExp::var(N),
                               Lambda(), 1, std::vector<SubExp>{i32(0)},
                               std::move(Fold), std::vector<VName>{Xs}));
  Program P = singleFun({Param(N, i32s()), Param(Xs, i32v(SubExp::var(N)))},
                        {i32s(), i32v(SubExp::var(N))},
                        BB.finish({SubExp::var(Outs[0]),
                                   SubExp::var(Outs[1])}));

  // With chunk size 2 on [1,2,3,4]: chunk1 acc 0 -> mapped [1,2], acc 3;
  // chunk2 acc 3 -> mapped [6,7], acc 10.
  InterpOptions Opts;
  Opts.StreamChunk = 2;
  auto R = runOk(P, {i32val(4), vec({1, 2, 3, 4})}, Opts);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R[0], i32val(10));
  EXPECT_EQ(R[1], vec({1, 2, 6, 7}));
}

TEST(InterpTest, ShapeMismatchDetected) {
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        return BB.finish({SubExp::var(Xs)});
      },
      {i32v(SubExp())});
  Interpreter I(P);
  // Claim n=5 but pass 3 elements.
  EXPECT_ERR_CONTAINS(I.run({i32val(5), vec({1, 2, 3})}), "shape mismatch");
}

TEST(InterpTest, StepLimitGuards) {
  // loop (x=0) for i < 1000000 do x+1 with a tiny step budget.
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Acc = NS.fresh("acc");
        VName I = NS.fresh("i");
        BodyBuilder LB(NS);
        SubExp R = LB.binOp(BinOp::Add, SubExp::var(Acc), i32(1),
                            ScalarKind::I32);
        VName Out = BB.bind("out", i32s(),
                            std::make_unique<LoopExp>(
                                std::vector<Param>{Param(Acc, i32s())},
                                std::vector<SubExp>{i32(0)}, I,
                                i32(1000000), LB.finish({R})));
        return BB.finish({SubExp::var(Out)});
      },
      {i32s()});
  InterpOptions Opts;
  Opts.MaxSteps = 1000;
  Interpreter I(P, Opts);
  EXPECT_ERR_CONTAINS(I.run({i32val(0), vec({})}), "step limit");
}

namespace {

/// A kmeans-shaped program: function calls, loops with tuple merges, an
/// if, indexing, in-place updates, map, reduce, scan and stream_red.
Program kmeansProgram() {
  const char *Source = R"(
fun nearest (k: i32) (centres: [k]f32) (p: f32): i32 =
  let best = loop ((bi, bd) = (0, 1000000.0)) for c < k do
    let d = abs (p - centres[c])
    in if d < bd then (c, d) else (bi, bd)
  let (bi, bd) = best
  in bi

fun histogram (k: i32) (n: i32) (membership: [n]i32): [k]i32 =
  stream_red (map (+))
    (\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->
       loop (acc) for i < chunksize do
         let cl = chunk[i]
         in acc with [cl] <- acc[cl] + 1)
    (replicate k 0) membership

fun main: (i32, i32, [6]i32) =
  let n = 64
  let k = 6
  let points = map (\(i: i32): f32 -> f32 (i * 73 % 1000) / 10.0) (iota n)
  let centres = map (\(c: i32): f32 -> f32 (c * 16 + 8)) (iota k)
  let membership = map (\(p: f32): i32 -> nearest k centres p) points
  let counts = histogram k n membership
  let sums = scan (+) 0 counts
  in (reduce (+) 0 membership, reduce (+) 0 counts, sums)
)";
  NameSource Names;
  auto P = frontend(Source, Names);
  EXPECT_TRUE(static_cast<bool>(P)) << P.getError().str();
  return P ? P.take() : Program();
}

} // namespace

TEST(InterpTest, StepLimitIsExactWithoutHooks) {
  // The hooked run counts one call per evaluated expression.  Without
  // hooks the interpreter must count the same steps: it succeeds with
  // exactly that budget and fails one step short of it.
  Program P = kmeansProgram();
  int64_t Exps = 0;
  InterpOptions Hooked;
  Hooked.OnExp = [&](const Exp &, const EnvView &) { ++Exps; };
  auto Want = Interpreter(P, Hooked).run({});
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.getError().str();
  EXPECT_EQ(Exps, 2673);

  InterpOptions Exact;
  Exact.MaxSteps = Exps;
  auto Got = Interpreter(P, Exact).run({});
  ASSERT_TRUE(static_cast<bool>(Got)) << Got.getError().str();
  EXPECT_EQ(firstDifference(*Got, *Want), "");

  InterpOptions Short;
  Short.MaxSteps = Exps - 1;
  auto Cut = Interpreter(P, Short).run({});
  ASSERT_FALSE(static_cast<bool>(Cut));
  EXPECT_EQ(Cut.getError().Message, "interpreter step limit exceeded");
  EXPECT_EQ(Cut.getError().Kind, ErrorKind::Runtime);
}

//===----------------------------------------------------------------------===//
// Frames and consumption
//===----------------------------------------------------------------------===//

TEST(InterpTest, UsingAConsumedArrayFails) {
  // let ys = xs with [1] <- 99 in xs[0]
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        BB.bind("ys", i32v(SubExp::var(N)),
                std::make_unique<UpdateExp>(Xs, std::vector<SubExp>{i32(1)},
                                            i32(99)));
        SubExp X0 = BB.index(Xs, {i32(0)}, i32s());
        return BB.finish({X0});
      },
      {i32s()});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(3), vec({1, 2, 3})}),
                      "possibly used after being consumed");
}

TEST(InterpTest, LoopOfUpdatesNeverCopies) {
  // loop (acc = copy xs) for i < n do acc with [i] <- i, with n = 10,000.
  constexpr int32_t Iters = 10000;
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<CopyExp>(Xs));
        VName Acc = NS.fresh("acc");
        VName I = NS.fresh("i");
        BodyBuilder LB(NS);
        VName Next = LB.bind("next", i32v(SubExp::var(N)),
                             std::make_unique<UpdateExp>(
                                 Acc, std::vector<SubExp>{SubExp::var(I)},
                                 SubExp::var(I)));
        VName Out = BB.bind(
            "out", i32v(SubExp::var(N)),
            std::make_unique<LoopExp>(
                std::vector<Param>{Param(Acc, i32v(SubExp::var(N)))},
                std::vector<SubExp>{SubExp::var(Ys)}, I, SubExp::var(N),
                LB.finish({SubExp::var(Next)})));
        return BB.finish({SubExp::var(Out)});
      },
      {i32v(SubExp())});
  int64_t Updates = 0, Shared = 0;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (const auto *X = expDynCast<UpdateExp>(&E)) {
      ++Updates;
      const Value *A = Env.find(X->Arr);
      Shared += !A || !A->uniquelyHeld();
    }
  };
  std::vector<int64_t> Zeros(Iters, 0), Want(Iters);
  std::iota(Want.begin(), Want.end(), 0);
  Interpreter Interp(P, Opts);
  auto R = Interp.run({i32val(Iters), vec(Zeros)});
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_EQ((*R)[0], vec(Want));
  EXPECT_EQ(Updates, Iters);
  EXPECT_EQ(Shared, 0) << "an accepted update found its array shared";
  EXPECT_EQ(Interp.copiedConsumes(), 0);
}

TEST(InterpTest, ConsumingAnArrayBoundOutsideTheLoopCopies) {
  // let ys = copy xs
  // in loop (acc = 0) for i < n do let zs = ys with [i] <- i in acc
  // The uniqueness checker rejects this: ys is consumed on every
  // iteration.  The interpreter keeps ys bound for the next iteration, so
  // each update mutates a copy, and copiedConsumes counts each one although
  // the observation hook sees ys held only by its slot.
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<CopyExp>(Xs));
        VName Acc = NS.fresh("acc");
        VName I = NS.fresh("i");
        BodyBuilder LB(NS);
        LB.bind("zs", i32v(SubExp::var(N)),
                std::make_unique<UpdateExp>(
                    Ys, std::vector<SubExp>{SubExp::var(I)}, SubExp::var(I)));
        VName Out = BB.bind(
            "out", i32s(),
            std::make_unique<LoopExp>(std::vector<Param>{Param(Acc, i32s())},
                                      std::vector<SubExp>{i32(0)}, I,
                                      SubExp::var(N),
                                      LB.finish({SubExp::var(Acc)})));
        return BB.finish({SubExp::var(Out)});
      },
      {i32s()});
  int64_t Shared = 0;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (const auto *X = expDynCast<UpdateExp>(&E))
      Shared += !Env.find(X->Arr)->uniquelyHeld();
  };
  Interpreter Interp(P, Opts);
  auto R = Interp.run({i32val(3), vec({5, 6, 7})});
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_EQ((*R)[0], i32val(0));
  EXPECT_EQ(Shared, 0);
  EXPECT_EQ(Interp.copiedConsumes(), 3);
}

TEST(InterpTest, NameSharingATagWithABoundNameIsUnbound) {
  // fun main (n: i32) (xs: [n]i32): [n]i32 = ghost, where ghost has xs's
  // tag but another base name.
  VName Ghost;
  Program P = vecProgram(
      [&](NameSource &NS, VName, VName Xs) {
        Ghost = VName("ghost", Xs.Tag);
        return BodyBuilder(NS).finish({SubExp::var(Ghost)});
      },
      {i32v(SubExp())});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(1), vec({4})}),
                      "unbound variable " + Ghost.str());
}

TEST(InterpTest, CalleeDoesNotSeeCallerBindings) {
  // fun f (m: i32): i32 = m + secret
  // fun main (n: i32) (xs: [n]i32): i32 = let secret = 42 in f n
  NameSource NS;
  VName Secret = NS.fresh("secret");
  VName M = NS.fresh("m");
  BodyBuilder FB(NS);
  SubExp Sum = FB.binOp(BinOp::Add, SubExp::var(M), SubExp::var(Secret),
                        ScalarKind::I32);
  FunDef F;
  F.Name = "f";
  F.Params = {Param(M, i32s())};
  F.RetTypes = {i32s()};
  F.FBody = FB.finish({Sum});

  VName N = NS.fresh("n");
  VName Xs = NS.fresh("xs");
  BodyBuilder BB(NS);
  BB.append({Param(Secret, i32s())}, std::make_unique<SubExpExp>(i32(42)));
  VName Out = BB.bind("out", i32s(),
                      std::make_unique<ApplyExp>(
                          "f", std::vector<SubExp>{SubExp::var(N)}));
  Program P = singleFun({Param(N, i32s()), Param(Xs, i32v(SubExp::var(N)))},
                        {i32s()}, BB.finish({SubExp::var(Out)}));
  P.Funs.push_back(std::move(F));
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(1), vec({0})}),
                      "unbound variable " + Secret.str());
}

TEST(InterpTest, BodyBindingsAreGoneAfterTheBody) {
  // let ys = map (\x -> let t = x + 1 in t) xs
  // let s = loop (acc = 0) for i < n do let u = acc + 1 in u
  // in s + 0   -- the probe
  VName X, T, Acc, I, U, Ys, S;
  Program P = vecProgram(
      [&](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        X = NS.fresh("x");
        BodyBuilder LB(NS);
        T = LB.bind("t", i32s(),
                    std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(X),
                                               i32(1)));
        Lambda Fn({Param(X, i32s())}, LB.finish({SubExp::var(T)}), {i32s()});
        Ys = BB.bind("ys", i32v(SubExp::var(N)),
                     std::make_unique<MapExp>(SubExp::var(N), std::move(Fn),
                                              std::vector<VName>{Xs}));
        Acc = NS.fresh("acc");
        I = NS.fresh("i");
        BodyBuilder WB(NS);
        U = WB.bind("u", i32s(),
                    std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(Acc),
                                               i32(1)));
        S = BB.bind("s", i32s(),
                    std::make_unique<LoopExp>(
                        std::vector<Param>{Param(Acc, i32s())},
                        std::vector<SubExp>{i32(0)}, I, SubExp::var(N),
                        WB.finish({SubExp::var(U)})));
        SubExp R = BB.binOp(BinOp::Add, SubExp::var(S), i32(0),
                            ScalarKind::I32);
        return BB.finish({R});
      },
      {i32s()});
  const Exp *Probe = P.Funs[0].FBody.Stms.back().E.get();
  bool Probed = false, InnerSeen = false;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (&E != Probe) {
      // Inside the lambda's body its parameter is visible.
      InnerSeen |= Env.find(X) != nullptr;
      return;
    }
    Probed = true;
    for (const VName &Gone : {X, T, Acc, I, U})
      EXPECT_EQ(Env.find(Gone), nullptr) << Gone.str() << " outlived its body";
    EXPECT_NE(Env.find(Ys), nullptr);
    EXPECT_NE(Env.find(S), nullptr);
  };
  auto R = runOk(P, {i32val(3), vec({1, 2, 3})}, Opts);
  EXPECT_EQ(R[0], i32val(3));
  EXPECT_TRUE(Probed);
  EXPECT_TRUE(InnerSeen);
}

TEST(InterpTest, ReduceByIndexUpdatesItsDestinationInPlace) {
  // let dest = replicate 4 0 in reduce_by_index dest (+) 0 xs xs
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName Dest =
            BB.bind("dest", i32v(i32(4)),
                    std::make_unique<ReplicateExp>(i32(4), i32(0), i32s()));
        VName V = NS.fresh("v");
        BodyBuilder VB(NS);
        Lambda ValueFn({Param(V, i32s())}, VB.finish({SubExp::var(V)}),
                       {i32s()});
        VName Hist = BB.bind(
            "hist", i32v(i32(4)),
            std::make_unique<ReduceByIndexExp>(
                i32(4), Dest, binOpLambda(BinOp::Add, ScalarKind::I32, NS),
                i32(0), std::move(ValueFn), Xs, std::vector<VName>{Xs}));
        return BB.finish({SubExp::var(Hist)});
      },
      {i32v(SubExp())});
  const PrimValue *DestData = nullptr;
  bool Unique = false;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &E, const EnvView &Env) {
    if (const auto *X = expDynCast<ReduceByIndexExp>(&E)) {
      const Value *D = Env.find(X->Dest);
      ASSERT_NE(D, nullptr);
      DestData = D->flat().data();
      Unique = D->uniquelyHeld();
    }
  };
  auto R = runOk(P, {i32val(5), vec({1, 3, 3, 7, 0})}, Opts);
  // Bin 7 is out of range and skipped.
  EXPECT_EQ(R[0], vec({0, 1, 0, 6}));
  EXPECT_TRUE(Unique);
  EXPECT_EQ(R[0].flat().data(), DestData)
      << "the histogram was built in a copy of its destination";
}

//===----------------------------------------------------------------------===//
// Malformed arities fail with an error instead of reading past a vector
//===----------------------------------------------------------------------===//

TEST(InterpTest, LoopWithMoreMergeParamsThanInitialValuesFails) {
  // loop (acc = 0, extra) for i < n do (acc, extra)
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName) {
        BodyBuilder BB(NS);
        VName Acc = NS.fresh("acc"), Extra = NS.fresh("extra");
        BodyBuilder LB(NS);
        std::vector<Param> Pat = {Param(NS.fresh("a"), i32s()),
                                  Param(NS.fresh("b"), i32s())};
        BB.append(Pat, std::make_unique<LoopExp>(
                           std::vector<Param>{Param(Acc, i32s()),
                                              Param(Extra, i32s())},
                           std::vector<SubExp>{i32(0)}, NS.fresh("i"),
                           SubExp::var(N),
                           LB.finish({SubExp::var(Acc), SubExp::var(Extra)})));
        return BB.finish({SubExp::var(Pat[0].Name)});
      },
      {i32s()});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(2), vec({1, 2})}),
                      "loop merge arity mismatch: 2 parameters, 1 initial "
                      "values");
}

TEST(InterpTest, KernelThreadBodyReturningTooFewValuesFails) {
  // kernel over i < n returning two arrays from a one-value thread body
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        auto K = std::make_unique<KernelExp>();
        VName I = NS.fresh("i");
        K->GridDims = {SubExp::var(N)};
        K->ThreadIndices = {I};
        BodyBuilder TB(NS);
        SubExp X = TB.index(Xs, {SubExp::var(I)}, i32s());
        K->ThreadBody = TB.finish({X});
        K->RetTypes = {i32v(SubExp::var(N)), i32v(SubExp::var(N))};
        std::vector<Param> Pat = {Param(NS.fresh("ys"), i32v(SubExp::var(N))),
                                  Param(NS.fresh("zs"), i32v(SubExp::var(N)))};
        BB.append(Pat, std::move(K));
        return BB.finish({SubExp::var(Pat[0].Name)});
      },
      {i32v(SubExp())});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(2), vec({1, 2})}),
                      "kernel thread body arity mismatch");
}

TEST(InterpTest, SegmentedKernelOperatorReturningTooFewValuesFails) {
  // a segmented reduction over (xs[j], xs[j]) whose operator keeps one
  // of its two accumulators
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        auto K = std::make_unique<KernelExp>();
        K->Op = KernelExp::OpKind::SegReduce;
        VName J = NS.fresh("j");
        K->SegSize = SubExp::var(N);
        K->SegIndex = J;
        K->Neutral = {i32(0), i32(0)};
        std::vector<Param> Ps;
        for (const char *Name : {"a0", "a1", "x0", "x1"})
          Ps.emplace_back(NS.fresh(Name), i32s());
        Body Keep({}, {SubExp::var(Ps[0].Name)});
        K->ReduceFn = Lambda(Ps, std::move(Keep), {i32s(), i32s()});
        BodyBuilder TB(NS);
        SubExp X = TB.index(Xs, {SubExp::var(J)}, i32s());
        K->ThreadBody = TB.finish({X, X});
        K->RetTypes = {i32s(), i32s()};
        std::vector<Param> Pat = {Param(NS.fresh("s"), i32s()),
                                  Param(NS.fresh("t"), i32s())};
        BB.append(Pat, std::move(K));
        return BB.finish({SubExp::var(Pat[0].Name)});
      },
      {i32s()});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(2), vec({1, 2})}),
                      "kernel operator arity mismatch");
}

TEST(InterpTest, EmptyScanWithFewerOperatorResultsThanNeutralsFails) {
  // scan (+) (0, 0) xs xs at width 0, with a one-result operator
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        std::vector<Param> Pat = {Param(NS.fresh("ys"), i32v(SubExp::var(N))),
                                  Param(NS.fresh("zs"), i32v(SubExp::var(N)))};
        BB.append(Pat, std::make_unique<ScanExp>(
                           SubExp::var(N),
                           binOpLambda(BinOp::Add, ScalarKind::I32, NS),
                           std::vector<SubExp>{i32(0), i32(0)},
                           std::vector<VName>{Xs, Xs}));
        return BB.finish({SubExp::var(Pat[0].Name)});
      },
      {i32v(SubExp())});
  Interpreter I(P);
  EXPECT_ERR_CONTAINS(I.run({i32val(0), vec({})}),
                      "scan operator arity mismatch");
}

//===----------------------------------------------------------------------===//
// Resolved operands and unboxed scalars
//===----------------------------------------------------------------------===//

TEST(InterpTest, ShadowingBindingsRestoreTheOuterOne) {
  // let t = 100
  // let l = loop (acc = 0) for i < n do let t = acc + i in t
  // let a = t + 0
  // let ys = map (\x -> let t = x * 2 in t) xs
  // let b = t + 0
  // let c = if n > 0 then (let t = 1 in t) else (let t = 2 in t)
  // let d = t + 0
  // in (l, a, ys, b, c, d)
  // Every inner t is the same name as the outer one; each body reads its
  // own binding, and the outer t is back once the body exits.
  VName T;
  Program P = vecProgram(
      [&](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        T = NS.fresh("t");
        BB.append({Param(T, i32s())}, std::make_unique<SubExpExp>(i32(100)));
        auto ReadT = [&](const char *Name) {
          return BB.bind(Name, i32s(),
                         std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(T),
                                                    i32(0)));
        };
        VName Acc = NS.fresh("acc"), I = NS.fresh("i");
        BodyBuilder LB(NS);
        LB.append({Param(T, i32s())},
                  std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(Acc),
                                             SubExp::var(I)));
        VName L = BB.bind("l", i32s(),
                          std::make_unique<LoopExp>(
                              std::vector<Param>{Param(Acc, i32s())},
                              std::vector<SubExp>{i32(0)}, I, SubExp::var(N),
                              LB.finish({SubExp::var(T)})));
        VName A = ReadT("a");
        VName X = NS.fresh("x");
        BodyBuilder MB(NS);
        MB.append({Param(T, i32s())},
                  std::make_unique<BinOpExp>(BinOp::Mul, SubExp::var(X),
                                             i32(2)));
        Lambda Fn({Param(X, i32s())}, MB.finish({SubExp::var(T)}), {i32s()});
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<MapExp>(SubExp::var(N),
                                                    std::move(Fn),
                                                    std::vector<VName>{Xs}));
        VName B = ReadT("b");
        SubExp Pos = BB.binOp(BinOp::Gt, SubExp::var(N), i32(0),
                              ScalarKind::I32);
        BodyBuilder TB(NS), EB(NS);
        TB.append({Param(T, i32s())}, std::make_unique<SubExpExp>(i32(1)));
        EB.append({Param(T, i32s())}, std::make_unique<SubExpExp>(i32(2)));
        VName C = BB.bind("c", i32s(),
                          std::make_unique<IfExp>(
                              Pos, TB.finish({SubExp::var(T)}),
                              EB.finish({SubExp::var(T)}),
                              std::vector<Type>{i32s()}));
        VName D = ReadT("d");
        return BB.finish({SubExp::var(L), SubExp::var(A), SubExp::var(Ys),
                          SubExp::var(B), SubExp::var(C), SubExp::var(D)});
      },
      {i32s(), i32s(), i32v(SubExp()), i32s(), i32s(), i32s()});
  // The three reads of the outer t see it, with and without hooks.
  int Reads = 0;
  InterpOptions Hooked;
  Hooked.OnExp = [&](const Exp &E, const EnvView &Env) {
    const auto *X = expDynCast<BinOpExp>(&E);
    if (!X || X->Op != BinOp::Add || X->B != i32(0))
      return;
    ++Reads;
    const Value *V = Env.find(T);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, i32val(100));
  };
  for (const InterpOptions &Opts : {InterpOptions(), Hooked}) {
    auto R = runOk(P, {i32val(3), vec({4, 5, 6})}, Opts);
    ASSERT_EQ(R.size(), 6u);
    EXPECT_EQ(R[0], i32val(3)); // the last iteration's t: 1 + 2
    EXPECT_EQ(R[1], i32val(100));
    EXPECT_EQ(R[2], vec({8, 10, 12}));
    EXPECT_EQ(R[3], i32val(100));
    EXPECT_EQ(R[4], i32val(1));
    EXPECT_EQ(R[5], i32val(100));
  }
  EXPECT_EQ(Reads, 3);
}

TEST(InterpTest, HooksFindScalarsBoundInPlace) {
  // let s = n + 1
  // let l = loop (acc = 0) for i < n do let u = acc + i in u
  // in s * 2
  // s and the loop index are scalars written straight into their slots;
  // the observation hook still finds them as values.
  VName S, I;
  Program P = vecProgram(
      [&](NameSource &NS, VName N, VName) {
        BodyBuilder BB(NS);
        S = BB.bind("s", i32s(),
                    std::make_unique<BinOpExp>(BinOp::Add, SubExp::var(N),
                                               i32(1)));
        VName Acc = NS.fresh("acc");
        I = NS.fresh("i");
        BodyBuilder LB(NS);
        VName U = LB.bind("u", i32s(),
                          std::make_unique<BinOpExp>(BinOp::Add,
                                                     SubExp::var(Acc),
                                                     SubExp::var(I)));
        BB.bind("l", i32s(),
                std::make_unique<LoopExp>(
                    std::vector<Param>{Param(Acc, i32s())},
                    std::vector<SubExp>{i32(0)}, I, SubExp::var(N),
                    LB.finish({SubExp::var(U)})));
        SubExp R = BB.binOp(BinOp::Mul, SubExp::var(S), i32(2),
                            ScalarKind::I32);
        return BB.finish({R});
      },
      {i32s()});
  std::vector<Value> SeenS, SeenI;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &E, const EnvView &Env) {
    const auto *X = expDynCast<BinOpExp>(&E);
    if (!X)
      return;
    if (X->Op == BinOp::Mul)
      if (const Value *V = Env.find(S))
        SeenS.push_back(*V);
    if (X->Op == BinOp::Add && X->B == SubExp::var(I))
      if (const Value *V = Env.find(I))
        SeenI.push_back(*V);
  };
  auto R = runOk(P, {i32val(3), vec({0, 0, 0})}, Opts);
  EXPECT_EQ(R[0], i32val(8));
  EXPECT_EQ(SeenS, std::vector<Value>{i32val(4)});
  EXPECT_EQ(SeenI, (std::vector<Value>{i32val(0), i32val(1), i32val(2)}));
}

TEST(InterpTest, BindingHookSeesEveryBoundValue) {
  // let s = n + 1
  // let a = s
  // let x = xs[1]
  // let ys = xs with [0] <- x
  // let zs = ys with [2] <- s
  // let l = loop (acc = a) for i < n do let u = acc + i in u
  // in (l, zs)
  // Statements that bind straight into their slot still call the binding
  // hook once, after binding, with the bound value; the hook's copy is
  // gone before the next update consumes the array.
  Program P = vecProgram(
      [](NameSource &NS, VName N, VName Xs) {
        BodyBuilder BB(NS);
        VName S = BB.bind("s", i32s(),
                          std::make_unique<BinOpExp>(BinOp::Add,
                                                     SubExp::var(N), i32(1)));
        VName A = BB.bind("a", i32s(),
                          std::make_unique<SubExpExp>(SubExp::var(S)));
        SubExp X = BB.index(Xs, {i32(1)}, i32s());
        VName Ys = BB.bind("ys", i32v(SubExp::var(N)),
                           std::make_unique<UpdateExp>(
                               Xs, std::vector<SubExp>{i32(0)}, X));
        VName Zs = BB.bind("zs", i32v(SubExp::var(N)),
                           std::make_unique<UpdateExp>(
                               Ys, std::vector<SubExp>{i32(2)},
                               SubExp::var(S)));
        VName Acc = NS.fresh("acc");
        VName I = NS.fresh("i");
        BodyBuilder LB(NS);
        VName U = LB.bind("u", i32s(),
                          std::make_unique<BinOpExp>(BinOp::Add,
                                                     SubExp::var(Acc),
                                                     SubExp::var(I)));
        VName L = BB.bind("l", i32s(),
                          std::make_unique<LoopExp>(
                              std::vector<Param>{Param(Acc, i32s())},
                              std::vector<SubExp>{SubExp::var(A)}, I,
                              SubExp::var(N), LB.finish({SubExp::var(U)})));
        return BB.finish({SubExp::var(L), SubExp::var(Zs)});
      },
      {i32s(), i32v(SubExp())});
  int64_t Exps = 0;
  std::vector<std::string> Seen;
  InterpOptions Opts;
  Opts.OnExp = [&](const Exp &, const EnvView &) { ++Exps; };
  Opts.OnBind = [&](const Stm &St, const std::vector<Value> &Vals) {
    ASSERT_EQ(Vals.size(), St.Pat.size());
    Seen.push_back(St.Pat[0].Name.Base + "=" + Vals[0].str());
  };
  Interpreter I(P, Opts);
  auto R = I.run({i32val(3), vec({10, 20, 30})});
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_EQ((*R)[0], i32val(7));
  EXPECT_EQ((*R)[1], vec({20, 20, 4}));
  EXPECT_EQ(static_cast<int64_t>(Seen.size()), Exps);
  std::vector<std::string> Want = {"s=" + i32val(4).str(),
                                   "a=" + i32val(4).str(),
                                   "x=" + i32val(20).str(),
                                   "ys=" + vec({20, 20, 30}).str(),
                                   "zs=" + vec({20, 20, 4}).str(),
                                   "u=" + i32val(4).str(),
                                   "u=" + i32val(5).str(),
                                   "u=" + i32val(7).str(),
                                   "l=" + i32val(7).str()};
  EXPECT_EQ(Seen, Want);
  // Only the first update copies: xs is still shared with the caller's
  // argument.  The hook's copy of ys adds none.
  EXPECT_EQ(I.copiedConsumes(), 1);
}

TEST(InterpTest, AssembleArrayNamesIrregularRows) {
  // SOAC result columns are assembled by the same code, so these are the
  // errors an irregular map or scan result reports.
  auto Err = [](const std::vector<Value> &Rows) {
    auto R = assembleArray(Rows);
    EXPECT_FALSE(static_cast<bool>(R));
    return R ? CompilerError("") : R.getError();
  };
  CompilerError Empty = Err({});
  EXPECT_EQ(Empty.Kind, ErrorKind::Runtime);
  EXPECT_EQ(Empty.Message,
            "cannot assemble an empty array without an element type");
  Value F = Value::scalar(PrimValue::makeF32(1));
  for (const std::vector<Value> &Rows :
       {std::vector<Value>{i32val(1), F}, {i32val(1), vec({1})}}) {
    CompilerError E = Err(Rows);
    EXPECT_EQ(E.Kind, ErrorKind::Compile);
    EXPECT_EQ(E.Message, "irregular array: element kind mismatch");
  }
  for (const std::vector<Value> &Rows :
       {std::vector<Value>{vec({1, 2}), vec({1})},
        {vec({1}), i32val(1)},
        {vec({1}), Value::array(ScalarKind::F32, {1}, {F.getScalar()})}}) {
    CompilerError E = Err(Rows);
    EXPECT_EQ(E.Kind, ErrorKind::Compile);
    EXPECT_EQ(E.Message, "irregular array: all rows must have the same shape");
  }
  auto M = assembleArray({vec({1, 2}), vec({3, 4}), vec({5, 6})});
  ASSERT_TRUE(static_cast<bool>(M)) << M.getError().str();
  EXPECT_EQ(*M, Value::array(ScalarKind::I32, {3, 2},
                             {PrimValue::makeI32(1), PrimValue::makeI32(2),
                              PrimValue::makeI32(3), PrimValue::makeI32(4),
                              PrimValue::makeI32(5), PrimValue::makeI32(6)}));
}

TEST(InterpTest, RunningMainTwiceRepeatsTheRun) {
  // One interpreter resolves main once and may run it again: the second
  // run gives the same outputs and copies as many consumed arrays.
  Program P = kmeansProgram();
  Interpreter I(P);
  auto First = I.run({});
  ASSERT_TRUE(static_cast<bool>(First)) << First.getError().str();
  int64_t Copied = I.copiedConsumes();
  auto Second = I.run({});
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.getError().str();
  EXPECT_EQ(firstDifference(*Second, *First), "");
  EXPECT_EQ(I.copiedConsumes(), 2 * Copied);
  EXPECT_GT(Copied, 0) << "stream_red's chunks share their neutral array";
}
