//===- warp_ranges_test.cpp - Launches split into warp ranges ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// A large launch runs its warps as ranges on the host's cores and merges
// them in warp order (KernelSim.cpp).  These tests pin which launches
// split, through the `chunks` arg of every kernel span, and that the merge
// reports what the one-range order reports: the first failing thread's
// error, the byte count of a device-memory overrun, and irregular rows
// that meet at a range boundary.
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
    // and each program has one.  (Their segmented launches are gridless
    // or fit in one warp, so they stay one range.)
    int Heavy = 0;
    for (const KernelSpan &S : Spans) {
      if (S.Name != "kernel:threadbody" || S.Ops < 32768)
        continue;
      ++Heavy;
      EXPECT_GT(S.Chunks, 1) << S.Name << " with " << S.Ops << " ops";
    }
    EXPECT_GT(Heavy, 0);
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
