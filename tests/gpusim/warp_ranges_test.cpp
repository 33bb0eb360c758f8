//===- warp_ranges_test.cpp - Launches split into warp ranges ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// A large launch runs its lanes (threads, segments, or the elements of a
// gridless fold) as ranges on the host's cores and merges them in lane
// order (KernelSim.cpp).  These tests pin which launches split, through
// the `chunks` arg of every kernel span, and that the merge reports what
// the one-range order reports: the first failing thread, segment or
// element's error, the byte count of a device-memory overrun, irregular
// rows that meet at a range boundary, and a gridless fold's result bit
// for bit.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"
#include "gpusim/WarpPool.h"

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "ir/Traversal.h"
#include "trace/Trace.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>

using namespace fut;
using namespace fut::gpusim;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }

/// One kernel span: its kind, the ops it charged and its warp ranges.
struct KernelSpan {
  std::string Name;
  double Ops = 0;
  int Chunks = 0;
};

/// Records the kernel spans of whatever \p Run does.
template <class Fn> std::vector<KernelSpan> kernelSpans(Fn &&Run) {
  trace::TraceSession &TS = trace::TraceSession::global();
  TS.clear();
  TS.setEnabled(true);
  Run();
  TS.setEnabled(false);
  std::vector<KernelSpan> Spans;
  for (const trace::TraceEvent &E : TS.events()) {
    if (E.Instant || E.Name.rfind("kernel:", 0) != 0)
      continue;
    KernelSpan S;
    S.Name = E.Name;
    if (const trace::TraceArg *A = E.findArg("compute_ops"))
      S.Ops = A->Num;
    const trace::TraceArg *C = E.findArg("chunks");
    EXPECT_NE(C, nullptr) << E.Name << " span has no chunks arg";
    S.Chunks = C ? static_cast<int>(C->Num) : 0;
    Spans.push_back(S);
  }
  TS.clear();
  return Spans;
}

/// Compiles \p Src through the full pipeline.
CompileResult compiled(const std::string &Src) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  EXPECT_TRUE(static_cast<bool>(C)) << C.getError().str();
  return C ? C.take() : CompileResult();
}

ErrorOr<RunResult> runCompiled(const CompileResult &C,
                               const std::vector<Value> &Args,
                               DeviceRunOptions RO = {}) {
  RO.MemPlan = &C.MemPlan;
  return runOnDevice(C.P, Args, RO);
}

//===----------------------------------------------------------------------===//
// Which launches split
//===----------------------------------------------------------------------===//

TEST(WarpRanges, SuiteSimHeavyKernelsSplit) {
  for (const char *Name :
       {"cfd", "kmeans", "nn", "fluid", "srad", "locvolcalib"}) {
    SCOPED_TRACE(Name);
    const bench::BenchmarkDef *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr);
    CompileResult C = compiled(B->Source);
    std::vector<Value> Args = B->MakeInputs();
    std::vector<KernelSpan> Spans =
        kernelSpans([&] { ASSERT_OK(runCompiled(C, Args)); });
    // Every thread-body launch of 2^15 ops or more ran as several ranges,
    // and each program has one.
    int Heavy = 0;
    for (const KernelSpan &S : Spans) {
      if (S.Name != "kernel:threadbody" || S.Ops < 32768)
        continue;
      ++Heavy;
      EXPECT_GT(S.Chunks, 1) << S.Name << " with " << S.Ops << " ops";
    }
    EXPECT_GT(Heavy, 0);
    // So did the segmented launches and the small, read-heavy launches
    // that dominate the rest of the device time: kmeans's two segreduces
    // (20 and 5 segments, one warp), nn's gridless segreduce,
    // locvolcalib's segscan (64 segments) and srad's row sums (96
    // threads, 10,080 ops).
    static const std::map<std::string, std::string> Light = {
        {"kmeans", "kernel:segreduce"},
        {"nn", "kernel:segreduce"},
        {"locvolcalib", "kernel:segscan"},
        {"srad", "kernel:threadbody"}};
    auto It = Light.find(Name);
    if (It == Light.end())
      continue;
    const std::string &Want = It->second;
    int Seen = 0;
    for (const KernelSpan &S : Spans) {
      bool RowSum = S.Name == "kernel:threadbody" && S.Ops == 10080;
      if (S.Name != Want || (Want == "kernel:threadbody" && !RowSum))
        continue;
      ++Seen;
      EXPECT_GT(S.Chunks, 1) << S.Name << " with " << S.Ops << " ops";
    }
    EXPECT_GT(Seen, 0) << "no " << Want << " launch";
  }
}

TEST(WarpRanges, FuzzKernelsNeverSplit) {
  // The plain fuzz corpus at its own size and at the 4x argument size of
  // the serve benchmarks: launches this small stay one range, so the
  // pool never starts for them.
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    for (int64_t Mult : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "seed " << Seed << " x" << Mult);
      fuzz::Plan P = fuzz::samplePlan(Seed);
      int64_t N = P.N;
      P.N *= Mult;
      for (int64_t I = N; I < P.N; ++I)
        P.Input.push_back(P.Input[static_cast<size_t>(I % N)]);
      fuzz::FuzzCase FC = fuzz::renderPlan(P, Seed);
      NameSource NS;
      auto C = compileSource(FC.Source, NS);
      ASSERT_TRUE(static_cast<bool>(C)) << C.getError().str();
      // Generated programs may fail at run time (division by zero); the
      // launches that ran still count.
      for (const KernelSpan &S :
           kernelSpans([&] { (void)runCompiled(*C, FC.Args); }))
        EXPECT_EQ(S.Chunks, 1) << S.Name << " with " << S.Ops << " ops";
    }
  }
}

TEST(WarpRanges, ForcedSplitsSplitFuzzKernels) {
  // The counterpart of FuzzKernelsNeverSplit: under the ForceSplitRanges
  // test hook, fuzz launches of more than one lane run as several ranges
  // of less than a warp, and the sweep's split leg still agrees with the
  // reference and with the default leg's cost line byte for byte.
  const std::vector<fuzz::Leg> &Sweep = fuzz::sweepLegs();
  std::vector<fuzz::Leg> Legs(Sweep.begin(), Sweep.begin() + 2);
  ASSERT_EQ(Legs[1].Name, "split");
  ASSERT_TRUE(Legs[1].Device.ForceSplitRanges);
  std::map<std::string, int> Split;
  int Launches = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SCOPED_TRACE(testing::Message() << "seed " << Seed);
    fuzz::FuzzCase FC = fuzz::renderPlan(fuzz::samplePlan(Seed), Seed);
    for (const fuzz::Outcome &O : fuzz::runDifferential(FC, Legs))
      EXPECT_TRUE(O.Ok) << O.Message;
    NameSource NS;
    auto C = compileSource(FC.Source, NS);
    ASSERT_TRUE(static_cast<bool>(C)) << C.getError().str();
    DeviceRunOptions RO;
    RO.Device = Legs[1].Device;
    for (const KernelSpan &S :
         kernelSpans([&] { (void)runCompiled(*C, FC.Args, RO); })) {
      ++Launches;
      Split[S.Name] += S.Chunks > 1;
    }
  }
  for (const char *Kind :
       {"kernel:threadbody", "kernel:segreduce", "kernel:segscan"})
    EXPECT_GT(Split[Kind], 0) << "no " << Kind << " launch split";
  int Total = 0;
  for (const auto &KV : Split)
    Total += KV.second;
  EXPECT_GT(Total * 2, Launches) << Total << " of " << Launches
                                 << " launches split";
}

TEST(WarpRanges, ForcedSplitsCutInsideWarps) {
  // 100 threads: lane 0 probes, and the other 99 lanes run as four
  // ranges of at most 31 lanes, starting at lanes 1, 25, 50 and 75.
  CompileResult C = compiled("fun main (n: i32): [n]i32 =\n"
                             "  map (\\(i: i32): i32 -> i * 3) (iota n)\n");
  DeviceRunOptions RO;
  RO.Device.ForceSplitRanges = true;
  std::vector<KernelSpan> Spans;
  ErrorOr<RunResult> Split(CompilerError("not run"));
  Spans = kernelSpans([&] { Split = runCompiled(C, {iv(100)}, RO); });
  ASSERT_OK(Split);
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Chunks, 5);
  auto Whole = runCompiled(C, {iv(100)});
  ASSERT_OK(Whole);
  EXPECT_EQ(Split->Cost.str(), Whole->Cost.str());
  EXPECT_EQ(firstDifference(Split->Outputs, Whole->Outputs), "");
}

//===----------------------------------------------------------------------===//
// Merge order
//===----------------------------------------------------------------------===//

/// Thread i does some work and then fails when i == a (division by zero)
/// or i == b (a read past the end of xs); 4096 threads, 128 warps.
const char *kTwoFaultsSrc =
    "fun main (n: i32) (a: i32) (b: i32) (xs: [n]i32): [n]i32 =\n"
    "  map (\\(i: i32): i32 ->\n"
    "         let s = loop (acc = 0) for j < 16 do acc + xs[(i + j) % n]\n"
    "         let d = if i == a then 0 else 1\n"
    "         let k = if i == b then n else i\n"
    "         in s / d + xs[k])\n"
    "      (iota n)\n";

std::vector<Value> twoFaultsArgs(int32_t A, int32_t B) {
  const int32_t N = 4096;
  return {iv(N), iv(A), iv(B),
          makeIntVectorValue(ScalarKind::I32, test::randomInts(N, 1))};
}

DeviceRunOptions noFallback() {
  DeviceRunOptions RO;
  RO.Resilience.InterpFallback = false;
  return RO;
}

TEST(WarpRanges, FirstFailingThreadInThreadOrderWins) {
  CompileResult C = compiled(kTwoFaultsSrc);
  std::vector<KernelSpan> Spans = kernelSpans(
      [&] { ASSERT_OK(runCompiled(C, twoFaultsArgs(-1, -1))); });
  ASSERT_EQ(Spans.size(), 1u);
  ASSERT_GT(Spans[0].Chunks, 8) << "the launch must split for this test";

  // Each fault alone, then both in either order: threads 1000 and 3000
  // lie in different ranges, and the earlier thread's error is reported.
  auto Only = [&](int32_t A, int32_t B) {
    auto R = runCompiled(C, twoFaultsArgs(A, B), noFallback());
    EXPECT_FALSE(static_cast<bool>(R));
    return R ? std::string() : R.getError().str();
  };
  std::string DivAt1000 = Only(1000, -1), ReadAt1000 = Only(-1, 1000);
  std::string DivAt3000 = Only(3000, -1), ReadAt3000 = Only(-1, 3000);
  EXPECT_NE(DivAt1000, ReadAt1000);
  EXPECT_EQ(Only(1000, 3000), DivAt1000);
  EXPECT_EQ(Only(3000, 1000), ReadAt1000);
  EXPECT_EQ(DivAt3000, DivAt1000);
  EXPECT_EQ(ReadAt3000, ReadAt1000);
}

TEST(WarpRanges, MidLaunchOOMReportsTheSequentialByteCount) {
  CompileResult C = compiled(kTwoFaultsSrc);
  std::vector<Value> Args = twoFaultsArgs(-1, -1);
  // The input (16384 bytes) is resident; the results need another 4 bytes
  // per thread.  A budget of 12002 free bytes runs out at thread 3000,
  // in a late range.
  DeviceRunOptions RO = noFallback();
  RO.Device.DeviceMemBytes = 16384 + 12002;
  auto R = runCompiled(C, Args, RO);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Kind, ErrorKind::DeviceOOM);
  EXPECT_EQ(R.getError().Message,
            "device out of memory materialising kernel results: 12004 bytes "
            "needed, 12002 free");
}

/// Thread i returns reshape (2, 2) of four values, a = (i < k ? 2 : 1)
/// and 4 / a; planting reshape (a, 4 / a) makes the rows of threads
/// k and up [1][4] where the earlier ones are [2][2].
const char *kRowsSrc =
    "fun main (n: i32) (k: i32): ([n][2][2]i32, [n]i32, [n]i32) =\n"
    "  map (\\(i: i32): ([2][2]i32, i32, i32) ->\n"
    "         let xs = map (\\(j: i32): i32 -> i * j) (iota 4)\n"
    "         let a = if i < k then 2 else 1\n"
    "         in (reshape (2, 2) xs, a, 4 / a))\n"
    "      (iota n)\n";

/// The statement of \p B that binds \p N.
std::vector<Stm>::iterator binding(Body &B, const SubExp &N) {
  return std::find_if(B.Stms.begin(), B.Stms.end(), [&](const Stm &S) {
    return N.isVar() && S.Pat.size() == 1 && S.Pat[0].Name == N.getVar();
  });
}

/// Rewrites the thread body's reshape into reshape (a, 4 / a), moved to
/// the end of the body, after the statement that computes 4 / a.
bool plantIrregularReshape(Body &B) {
  for (Stm &S : B.Stms) {
    auto *K = expDynCast<KernelExp>(S.E.get());
    if (!K) {
      bool Done = false;
      forEachChildBody(*S.E, [&](Body &Inner) {
        Done = Done || plantIrregularReshape(Inner);
      });
      if (Done)
        return true;
      continue;
    }
    Body &TB = K->ThreadBody;
    std::vector<Stm>::iterator Reshape = TB.Stms.end();
    SubExp A, Quot;
    for (const SubExp &R : TB.Result) {
      auto It = binding(TB, R);
      if (It == TB.Stms.end())
        continue;
      if (It->E->kind() == ExpKind::Reshape)
        Reshape = It;
      else if (It->E->kind() == ExpKind::If)
        A = R;
      else if (It->E->kind() == ExpKind::BinOpE)
        Quot = R;
    }
    if (Reshape == TB.Stms.end() || !A.isVar() || !Quot.isVar())
      continue;
    expCast<ReshapeExp>(Reshape->E.get())->NewShape = {A, Quot};
    std::rotate(Reshape, Reshape + 1, TB.Stms.end());
    return true;
  }
  return false;
}

TEST(WarpRanges, IrregularRowsAcrossARangeBoundary) {
  CompileResult C = compiled(kRowsSrc);
  ASSERT_TRUE(plantIrregularReshape(C.P.findFun("main")->FBody));
  // k = n keeps every row [2][2], and the launch splits.
  std::vector<KernelSpan> Spans = kernelSpans(
      [&] { ASSERT_OK(runCompiled(C, {iv(4096), iv(4096)}, noFallback())); });
  int Chunks = 0;
  for (const KernelSpan &S : Spans)
    Chunks = std::max(Chunks, S.Chunks);
  ASSERT_GT(Chunks, 2) << "the launch must split for this test";
  // The first [1][4] row at every warp start, so also at every range
  // start, and inside a warp.
  for (int32_t K = 32; K < 4096; K += 32) {
    for (int32_t Off : {0, 7}) {
      SCOPED_TRACE(K + Off);
      auto R = runCompiled(C, {iv(4096), iv(K + Off)}, noFallback());
      ASSERT_FALSE(static_cast<bool>(R));
      EXPECT_EQ(R.getError().Message,
                "irregular array: all rows must have the same shape");
    }
  }
}

/// The largest number of ranges among the launches of \p Kind.
int maxChunks(const std::vector<KernelSpan> &Spans, const std::string &Kind) {
  int Chunks = 0;
  for (const KernelSpan &S : Spans)
    if (S.Name == Kind)
      Chunks = std::max(Chunks, S.Chunks);
  return Chunks;
}

/// A segmented reduction with a grid of k segments (the columns of xss),
/// each a fold over n rows: the operator fails on an element -7 (division
/// by zero) or -9 (modulo by zero).  With k = 20 < 32 every range boundary
/// falls inside the launch's one warp.
const char *kColumnSumsSrc =
    "fun main (n: i32) (k: i32) (xss: [n][k]i32): [k]i32 =\n"
    "  reduce (\\(a: [k]i32) (b: [k]i32): [k]i32 ->\n"
    "            map (\\(x: i32) (y: i32): i32 ->\n"
    "                   (x + y) / (if y == -7 then 0 else 1)\n"
    "                   + x % (if y == -9 then 0 else 1)) a b)\n"
    "         (replicate k 0) xss\n";

constexpr int32_t kRows = 2048, kCols = 20;

/// xss with -7 at (RowA, ColA) and -9 at (RowB, ColB); a negative column
/// plants nothing.
std::vector<Value> columnSumsArgs(int32_t ColA, int32_t RowA, int32_t ColB,
                                  int32_t RowB) {
  std::vector<int64_t> Xs = test::randomInts(kRows * kCols, 7, 0, 100);
  if (ColA >= 0)
    Xs[static_cast<size_t>(RowA * kCols + ColA)] = -7;
  if (ColB >= 0)
    Xs[static_cast<size_t>(RowB * kCols + ColB)] = -9;
  std::vector<double> Ds(Xs.begin(), Xs.end());
  return {iv(kRows), iv(kCols),
          makeMatrixValue(ScalarKind::I32, kRows, kCols, Ds)};
}

TEST(WarpRanges, SegmentedFirstFailingSegmentWins) {
  CompileResult C = compiled(kColumnSumsSrc);
  std::vector<KernelSpan> Spans = kernelSpans(
      [&] { ASSERT_OK(runCompiled(C, columnSumsArgs(-1, 0, -1, 0))); });
  ASSERT_GT(maxChunks(Spans, "kernel:segreduce"), 4)
      << "the launch must split for this test";

  // Segment 3 fails late in its fold and segment 14 early; segments fold
  // in segment order, so the lower segment's error is reported whichever
  // fault it has.
  auto Only = [&](int32_t ColA, int32_t RowA, int32_t ColB, int32_t RowB) {
    auto R = runCompiled(C, columnSumsArgs(ColA, RowA, ColB, RowB),
                         noFallback());
    EXPECT_FALSE(static_cast<bool>(R));
    return R ? std::string() : R.getError().str();
  };
  std::string Div = Only(3, 2000, -1, 0), Mod = Only(-1, 0, 3, 2000);
  EXPECT_NE(Div, Mod);
  EXPECT_EQ(Only(3, 2000, 14, 10), Div);
  EXPECT_EQ(Only(14, 10, 3, 2000), Mod);
  EXPECT_EQ(Only(14, 10, -1, 0), Div);
  EXPECT_EQ(Only(-1, 0, 14, 10), Mod);
}

TEST(WarpRanges, SegmentedOOMReportsTheSequentialByteCount) {
  CompileResult C = compiled(kColumnSumsSrc);
  // The input (163840 bytes) is resident; the results need another 4
  // bytes per segment.  50 free bytes run out at segment 12, in a late
  // range.
  DeviceRunOptions RO = noFallback();
  RO.Device.DeviceMemBytes = kRows * kCols * 4 + 50;
  auto R = runCompiled(C, columnSumsArgs(-1, 0, -1, 0), RO);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.getError().Kind, ErrorKind::DeviceOOM);
  EXPECT_EQ(R.getError().Message,
            "device out of memory materialising kernel results: 52 bytes "
            "needed, 50 free");
}

/// Column sums whose operator yields 0 on an element -5; planting an f32
/// zero there makes that segment's row an f32 among i32 rows when -5 is
/// its last element.
const char *kKindsSrc =
    "fun main (n: i32) (k: i32) (xss: [n][k]i32): [k]i32 =\n"
    "  reduce (\\(a: [k]i32) (b: [k]i32): [k]i32 ->\n"
    "            map (\\(x: i32) (y: i32): i32 ->\n"
    "                   if y == -5 then 0 else x + y) a b)\n"
    "         (replicate k 0) xss\n";

/// Makes the segmented operator's then-branch yield an f32 zero.
bool plantF32Zero(Body &B) {
  for (Stm &S : B.Stms) {
    auto *K = expDynCast<KernelExp>(S.E.get());
    if (!K) {
      bool Done = false;
      forEachChildBody(*S.E, [&](Body &Inner) {
        Done = Done || plantF32Zero(Inner);
      });
      if (Done)
        return true;
      continue;
    }
    if (K->Op != KernelExp::OpKind::SegReduce)
      continue;
    for (Stm &OpS : K->ReduceFn.B.Stms)
      if (auto *If = expDynCast<IfExp>(OpS.E.get())) {
        If->Then.Result = {SubExp::constant(PrimValue::makeF32(0))};
        return true;
      }
  }
  return false;
}

TEST(WarpRanges, SegmentedIrregularRowsAcrossRanges) {
  CompileResult C = compiled(kKindsSrc);
  ASSERT_TRUE(plantF32Zero(C.P.findFun("main")->FBody));
  auto Args = [](int32_t Col) {
    std::vector<double> Xs(kRows * kCols, 1.0);
    if (Col >= 0)
      Xs[static_cast<size_t>((kRows - 1) * kCols + Col)] = -5;
    return std::vector<Value>{
        iv(kRows), iv(kCols),
        makeMatrixValue(ScalarKind::I32, kRows, kCols, Xs)};
  };
  std::vector<KernelSpan> Spans = kernelSpans(
      [&] { ASSERT_OK(runCompiled(C, Args(-1), noFallback())); });
  ASSERT_GT(maxChunks(Spans, "kernel:segreduce"), 4)
      << "the launch must split for this test";
  // One f32 row: the first, the first of the later ranges, one inside a
  // range, the last.
  for (int32_t Col = 0; Col < kCols; ++Col) {
    SCOPED_TRACE(Col);
    auto R = runCompiled(C, Args(Col), noFallback());
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_EQ(R.getError().Message, "irregular array: element kind mismatch");
  }
}

/// A gridless reduction whose operator fails (modulo by zero) on an
/// element -7777777.
const char *kFoldFaultsSrc =
    "fun main (xs: [n]i32): i32 =\n"
    "  reduce (\\(x: i32) (y: i32): i32 ->\n"
    "            x + y + x % (if y == -7777777 then 0 else 1))\n"
    "         0 xs\n";

/// Makes the gridless segreduce's thread body fail at element \p B: its
/// read of element i becomes a read of element i * ((i - B) / (i - B)),
/// a division by zero at i == B.
bool plantBodyFault(Body &Bd, int32_t B) {
  for (Stm &S : Bd.Stms) {
    auto *K = expDynCast<KernelExp>(S.E.get());
    if (!K || K->Op != KernelExp::OpKind::SegReduce || !K->GridDims.empty())
      continue;
    std::vector<Stm> &TB = K->ThreadBody.Stms;
    for (size_t I = 0; I < TB.size(); ++I) {
      auto *X = expDynCast<IndexExp>(TB[I].E.get());
      if (!X || X->Indices.size() != 1 || !X->Indices[0].isVar() ||
          X->Indices[0].getVar() != K->SegIndex)
        continue;
      NameSource NS;
      VName T = NS.fresh("plant_t"), U = NS.fresh("plant_u"),
            Idx = NS.fresh("plant_idx");
      auto Scalar = [](VName N) {
        return std::vector<Param>{Param(N, Type::scalar(ScalarKind::I32))};
      };
      std::vector<Stm> Plant;
      Plant.emplace_back(Scalar(T), std::make_unique<BinOpExp>(
                                        BinOp::Sub, X->Indices[0],
                                        SubExp::constant(PrimValue::makeI32(B))));
      Plant.emplace_back(Scalar(U),
                         std::make_unique<BinOpExp>(BinOp::Div, SubExp::var(T),
                                                    SubExp::var(T)));
      Plant.emplace_back(Scalar(Idx), std::make_unique<BinOpExp>(
                                          BinOp::Mul, X->Indices[0],
                                          SubExp::var(U)));
      X->Indices[0] = SubExp::var(Idx);
      TB.insert(TB.begin() + static_cast<std::ptrdiff_t>(I),
                std::make_move_iterator(Plant.begin()),
                std::make_move_iterator(Plant.end()));
      return true;
    }
  }
  return false;
}

TEST(WarpRanges, GridlessFoldReportsTheFirstFailingElement) {
  const int32_t N = 16384;
  std::vector<int64_t> Xs = test::randomInts(N, 2);
  auto Run = [&](int32_t A, int32_t B, std::vector<KernelSpan> *Spans) {
    CompileResult C = compiled(kFoldFaultsSrc);
    if (B >= 0) {
      EXPECT_TRUE(plantBodyFault(C.P.findFun("main")->FBody, B));
    }
    std::vector<int64_t> Ys = Xs;
    if (A >= 0)
      Ys[static_cast<size_t>(A)] = -7777777;
    std::vector<Value> Args = {makeIntVectorValue(ScalarKind::I32, Ys)};
    ErrorOr<RunResult> R = RunResult();
    *Spans = kernelSpans([&] { R = runCompiled(C, Args, noFallback()); });
    return R;
  };
  std::vector<KernelSpan> Spans;
  ASSERT_OK(Run(-1, -1, &Spans));
  ASSERT_GT(maxChunks(Spans, "kernel:segreduce"), 8)
      << "the launch must split for this test";

  // An operator fault at element a and a body fault at element b: the
  // one first in element order is reported, whether they lie in
  // different ranges or in one range.  A fault in the first lanes, which
  // run before the launch decides to split, stops it there.
  auto Only = [&](int32_t A, int32_t B) {
    auto R = Run(A, B, &Spans);
    EXPECT_FALSE(static_cast<bool>(R));
    int Chunks = maxChunks(Spans, "kernel:segreduce");
    EXPECT_TRUE(std::min(A < 0 ? N : A, B < 0 ? N : B) < 32 ? Chunks == 1
                                                             : Chunks > 8)
        << Chunks << " ranges";
    return R ? std::string() : R.getError().str();
  };
  std::string OpFault = Only(3000, -1), BodyFault = Only(-1, 3000);
  EXPECT_NE(OpFault, BodyFault);
  EXPECT_EQ(Only(3000, 12000), OpFault);
  EXPECT_EQ(Only(12000, 3000), BodyFault);
  EXPECT_EQ(Only(3000, 3001), OpFault);
  EXPECT_EQ(Only(3001, 3000), BodyFault);
  EXPECT_EQ(Only(5, 12000), OpFault);
  EXPECT_EQ(Only(12000, 5), BodyFault);
}

/// f32 sums whose value depends on the order of additions: 1.0 vanishes
/// when added to 1e8, but not when added to another 1.0 first.
const char *kFloatFoldsSrc =
    "fun main (xs: [n]f32): (f32, [n]f32) =\n"
    "  let s = reduce (+) 0.0 xs\n"
    "  let c = scan (+) 0.0 xs\n"
    "  in (s, c)\n";

TEST(WarpRanges, GridlessFloatFoldsMatchTheInterpreterBitForBit) {
  std::vector<double> Xs(16384);
  for (size_t I = 0; I < Xs.size(); ++I)
    Xs[I] = I % 7 == 3 ? 1e8 : 1.0;
  std::vector<Value> Args = {makeVectorValue(ScalarKind::F32, Xs)};

  auto Want = fuzz::referenceRun(kFloatFoldsSrc, Args);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.getError().str();

  CompileResult C = compiled(kFloatFoldsSrc);
  ErrorOr<RunResult> Got = RunResult();
  std::vector<KernelSpan> Spans = kernelSpans([&] {
    Got = runCompiled(C, Args);
    ASSERT_OK(Got);
  });
  EXPECT_GT(maxChunks(Spans, "kernel:segreduce"), 1);
  EXPECT_GT(maxChunks(Spans, "kernel:segscan"), 1);
  ASSERT_TRUE(static_cast<bool>(Got));
  ASSERT_EQ(Got->Outputs.size(), 2u);
  ASSERT_EQ(Want->size(), 2u);
  EXPECT_EQ(Got->Outputs[0].getScalar().getFloat(),
            (*Want)[0].getScalar().getFloat());
  // The sum is far from the exact one, so a reassociated fold would show.
  EXPECT_NE((*Want)[0].getScalar().getFloat(), 2341.0 * 1e8 + 14043.0);
  const std::vector<PrimValue> &G = Got->Outputs[1].flat();
  const std::vector<PrimValue> &W = (*Want)[1].flat();
  ASSERT_EQ(G.size(), W.size());
  for (size_t J = 0; J < G.size(); ++J)
    ASSERT_EQ(G[J].getFloat(), W[J].getFloat()) << "row " << J;
}

/// A gridless fold of rows: the operator keeps the row with the larger
/// first element, so flattening cannot turn it into a fold per column, and
/// its element results are arrays.
const char *kRowMaxSrc =
    "fun main (n: i32) (k: i32) (xss: [n][k]i32): [k]i32 =\n"
    "  reduce (\\(a: [k]i32) (b: [k]i32): [k]i32 ->\n"
    "            if a[0] >= b[0] then a else b)\n"
    "         (replicate k 0) xss\n";

TEST(WarpRanges, GridlessArrayFoldsRunAsOneRange) {
  // Large enough to split if its results were scalars; split, it would
  // hold a row per element until the first range folded them.
  constexpr int32_t Rows = 16384, Cols = 4;
  std::vector<int64_t> Xs = test::randomInts(Rows * Cols, 11, 0, 1000);
  std::vector<double> Ds(Xs.begin(), Xs.end());
  std::vector<Value> Args = {
      iv(Rows), iv(Cols), makeMatrixValue(ScalarKind::I32, Rows, Cols, Ds)};

  auto Want = fuzz::referenceRun(kRowMaxSrc, Args);
  ASSERT_TRUE(static_cast<bool>(Want)) << Want.getError().str();

  CompileResult C = compiled(kRowMaxSrc);
  ErrorOr<RunResult> Got = RunResult();
  std::vector<KernelSpan> Spans = kernelSpans([&] {
    Got = runCompiled(C, Args);
    ASSERT_OK(Got);
  });
  int Folds = 0;
  for (const KernelSpan &S : Spans) {
    if (S.Name != "kernel:segreduce")
      continue;
    ++Folds;
    EXPECT_GE(S.Ops, 16384);
    EXPECT_EQ(S.Chunks, 1);
  }
  EXPECT_EQ(Folds, 1);
  ASSERT_TRUE(static_cast<bool>(Got));
  ASSERT_EQ(Got->Outputs.size(), 1u);
  ASSERT_EQ(Want->size(), 1u);
  EXPECT_EQ(Got->Outputs[0], (*Want)[0]);
}

TEST(WarpPool, RunsEveryTaskOnceAndRethrowsAFailure) {
  std::vector<std::atomic<int>> Runs(100);
  runOnPool(Runs.size(), [&](size_t I) { ++Runs[I]; });
  for (const std::atomic<int> &R : Runs)
    EXPECT_EQ(R.load(), 1);
  // A task that throws does not stop the others.
  std::atomic<int> Done{0};
  EXPECT_THROW(runOnPool(50,
                         [&](size_t I) {
                           if (I == 7)
                             throw std::runtime_error("task 7");
                           ++Done;
                         }),
               std::runtime_error);
  EXPECT_EQ(Done.load(), 49);
}

} // namespace
