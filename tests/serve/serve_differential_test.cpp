//===- serve_differential_test.cpp - Differential oracle through serve ----===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's seeds 1..20 routed through futharkcc-serve: each generated
/// program is served three ways — cold cache, warm cache (second request
/// of the same source, which must be a cache hit), and under 1% injected
/// faults — and every response must be bit-identical to fuzz::referenceRun,
/// or fail with the reference's typed error.  This is the end-to-end proof
/// that the serving layer's caching, admission and recovery machinery is
/// value-transparent.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <map>

using namespace fut;
using namespace fut::fuzz;

namespace {

using serve::ServeResponse;

/// Requires \p R to match the reference: the same outputs, or the same
/// typed error.
void expectMatches(const ServeResponse &R,
                   const ErrorOr<std::vector<Value>> &Ref, const FuzzCase &C,
                   const char *Leg) {
  if (!Ref) {
    const CompilerError &E = Ref.getError();
    ASSERT_FALSE(R.Ok) << Leg << " leg accepted a case the reference "
                       << "rejects (seed " << C.Seed << "): " << E.str();
    EXPECT_EQ(R.Error, E.Kind) << Leg << " (seed " << C.Seed << ")";
    EXPECT_EQ(R.Message, E.str()) << Leg << " (seed " << C.Seed << ")";
    return;
  }
  ASSERT_TRUE(R.Ok) << Leg << " leg failed (seed " << C.Seed
                    << "): " << R.Message << "\nprogram:\n"
                    << C.Source;
  ASSERT_EQ(R.Outputs.size(), Ref->size())
      << Leg << " arity mismatch (seed " << C.Seed << ")";
  for (size_t J = 0; J < Ref->size(); ++J)
    EXPECT_TRUE(R.Outputs[J] == (*Ref)[J])
        << Leg << " result " << J << " differs (seed " << C.Seed
        << ")\n  served:    " << R.Outputs[J].str()
        << "\n  reference: " << (*Ref)[J].str() << "\nprogram:\n"
        << C.Source;
}

class ServeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeDifferentialTest, ColdWarmAndFaultyLegsMatchReference) {
  FuzzCase C = generate(GetParam());
  auto Ref = referenceRun(C.Source, C.Args);
  ASSERT_TRUE(Ref || Ref.getError().isRuntime())
      << "reference rejected the program (seed " << C.Seed
      << "): " << Ref.getError().str();

  serve::Server S;
  auto Submit = [&](double Arrival, double FaultRate, uint64_t Seed) {
    serve::ServeRequest R;
    R.Source = C.Source;
    R.Args = C.Args;
    R.ArrivalCycle = Arrival;
    R.Limits.LaunchFailRate = FaultRate;
    R.Limits.CorruptRate = FaultRate;
    R.Limits.FaultSeed = Seed;
    return S.submit(std::move(R));
  };
  uint64_t Cold = Submit(0, 0, 0);
  uint64_t Warm = Submit(1e7, 0, 0);
  uint64_t Faulty = Submit(2e7, 0.01, GetParam() ^ 0x5e77eULL);

  // The drain may complete requests in any order, so key responses by id
  // and demand every submitted id is actually present — operator[] would
  // silently default-construct a miss, and a default ServeResponse has
  // CacheHit == false, which is exactly what the cold leg expects.
  std::map<uint64_t, ServeResponse> ById;
  for (ServeResponse &R : S.drain())
    ById.emplace(R.Id, std::move(R));
  ASSERT_EQ(ById.size(), 3u);
  for (uint64_t Id : {Cold, Warm, Faulty})
    ASSERT_EQ(ById.count(Id), 1u)
        << "drain lost request " << Id << " (seed " << C.Seed << ")";

  expectMatches(ById.at(Cold), Ref, C, "cold");
  EXPECT_FALSE(ById.at(Cold).CacheHit)
      << "first request of this source cannot be a cache hit (seed "
      << C.Seed << ")";
  expectMatches(ById.at(Warm), Ref, C, "warm");
  EXPECT_TRUE(ById.at(Warm).CacheHit)
      << "second identical request must be served from the cache (seed "
      << C.Seed << ")";
  expectMatches(ById.at(Faulty), Ref, C, "faulty");
  EXPECT_TRUE(ById.at(Faulty).CacheHit)
      << "third identical request must be served from the cache (seed "
      << C.Seed << ")";
  // Pin the hit count independently of drain order: exactly one of the
  // three responses compiled, whichever it was.
  int Hits = 0;
  for (const auto &[Id, R] : ById)
    Hits += R.CacheHit ? 1 : 0;
  EXPECT_EQ(Hits, 2) << "exactly one leg compiles (seed " << C.Seed << ")";
  EXPECT_EQ(S.stats().Compiles, 1)
      << "one artifact serves all three legs (seed " << C.Seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
