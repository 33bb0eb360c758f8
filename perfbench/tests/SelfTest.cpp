//===- SelfTest.cpp - Tests of the benchmark's own arithmetic -------------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Gate.h"
#include "Spans.h"
#include "Stats.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace perfbench;
using fut::trace::TraceEvent;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> Xs;
  for (size_t I = 1; I <= N; ++I)
    Xs.push_back(static_cast<double>(I));
  return Xs;
}

TraceEvent span(const char *Name, double Start, double Dur, int Depth) {
  TraceEvent E;
  E.Name = Name;
  E.StartUs = Start;
  E.DurUs = Dur;
  E.Depth = Depth;
  return E;
}

} // namespace

TEST(PerfbenchStats, TailNeedsTenSamplesBeyond) {
  Tail T = tailPercentile(iota(1000));
  EXPECT_EQ(T.Percentile, 99);
  EXPECT_EQ(T.Count, 1000u);
  EXPECT_NEAR(T.Value, 990.01, 1e-9);
  // 999 samples leave 9.99 beyond p99, so p95 is the highest honest tail.
  EXPECT_EQ(tailPercentile(iota(999)).Percentile, 95);
  EXPECT_EQ(tailPercentile(iota(200)).Percentile, 95);
  EXPECT_EQ(tailPercentile(iota(100)).Percentile, 90);
  EXPECT_EQ(tailPercentile(iota(40)).Percentile, 75);
  Tail Small = tailPercentile(iota(19));
  EXPECT_EQ(Small.Percentile, 50);
  EXPECT_EQ(Small.Value, 10);
  EXPECT_EQ(Small.Count, 19u);
  // The cap keeps a p99 metric from reporting p99.9.
  EXPECT_EQ(tailPercentile(iota(20000)).Percentile, 99);
  EXPECT_EQ(tailPercentile(iota(20000), 99.9).Percentile, 99.9);
}

TEST(PerfbenchStats, MedianInterpolates) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(PerfbenchStats, Geomean) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(geomean({2, 8, 4}), 4, 1e-12);
  EXPECT_EQ(geomean({}), 0);
  EXPECT_EQ(geomean({3, 0}), 0);
}

TEST(PerfbenchSpans, SelfTimeOfNestedTree) {
  std::vector<TraceEvent> Ev = {
      span("pass:frontend", 0, 5, 0),
      span("compile", 10, 100, 0),
      span("verify:frontend", 12, 8, 1),
      span("pass:simplify", 20, 20, 1),
      span("verify:simplify", 40, 10, 1),
      span("pass:fusion", 60, 30, 1),
      span("pass:simplify", 65, 10, 2), // nested: fusion's self is 20
      span("device-run", 200, 100, 0),
      span("kernel:segreduce", 210, 40, 1),
      span("memplan:slab0", 250, 5, 1), // unnamed: host runtime
      span("xfer:readback", 260, 10, 1),
      span("kernel:threadbody", 280, 30, 1), // runs past its parent
  };
  TraceEvent Fault;
  Fault.Name = "fault";
  Fault.StartUs = 215;
  Fault.Depth = 2;
  Fault.Instant = true;
  Ev.insert(Ev.begin() + 9, Fault);

  std::vector<SpanSelf> S = selfTimes(Ev);
  ASSERT_EQ(S.size(), 12u);
  EXPECT_EQ(S[1].Name, "compile");
  EXPECT_EQ(S[1].SelfUs, 100 - 8 - 20 - 10 - 30);
  EXPECT_EQ(S[5].SelfUs, 20);
  EXPECT_EQ(S[6].Parent, 5);
  // 20 µs of the last kernel lies inside device-run.
  EXPECT_EQ(S[7].SelfUs, 100 - 40 - 5 - 10 - 20);
  EXPECT_EQ(S[9].Layer, "host_runtime");

  LayerTotals T;
  T.add(Ev);
  EXPECT_EQ(T.self("compile.unattributed"), 32);
  EXPECT_EQ(T.self("verify"), 18);
  EXPECT_EQ(T.self("simplify"), 30);
  EXPECT_EQ(T.self("fusion"), 20);
  EXPECT_EQ(T.self("frontend"), 5);
  EXPECT_EQ(T.self("host_runtime"), 30);
  EXPECT_EQ(T.self("xfer"), 10);
  EXPECT_EQ(T.selfWithPrefix("kernelsim."), 70);
  EXPECT_EQ(T.count("pass:simplify"), 2);
  // Every layer under "compile" adds back up to the compile span.
  double Compile = T.self("compile.unattributed") + T.self("verify") +
                   T.self("simplify") + T.self("fusion");
  EXPECT_EQ(Compile, T.dur("compile"));
}

TEST(PerfbenchGate, PlantedMismatchCountsInErrorRate) {
  using fut::ScalarKind;
  std::vector<fut::Value> Want = {
      fut::makeVectorValue(ScalarKind::F32, {1.0, 2.0, 3.0})};
  std::vector<fut::Value> Near = {
      fut::makeVectorValue(ScalarKind::F32, {1.0, 2.0, 3.0001})};
  std::vector<fut::Value> Planted = {
      fut::makeVectorValue(ScalarKind::F32, {1.0, 2.5, 3.0})};

  Gate G;
  G.check(sameOutputs(Want, Want, Compare::Exact), "exact");
  G.check(sameOutputs(Near, Want, Compare::Tolerant), "tolerant");
  G.check(sameOutputs(Planted, Want, Compare::Tolerant), "planted");
  G.check(sameOutputs({}, Want, Compare::Exact) == false, "arity");
  EXPECT_EQ(G.attempted(), 4);
  EXPECT_EQ(G.failed(), 1);
  EXPECT_DOUBLE_EQ(G.errorRate(), 0.25);
  ASSERT_EQ(G.messages().size(), 1u);
  EXPECT_EQ(G.messages()[0], "planted");
  EXPECT_FALSE(sameOutputs(Near, Want, Compare::Exact));
}
