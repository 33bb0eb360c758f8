//===- serve_differential_test.cpp - Differential harness through serve ---===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded differential harness routed through futharkcc-serve: each
/// generated program is served three ways — cold cache, warm cache
/// (second request of the same source, which must be a cache hit), and
/// under 1% injected faults — and every response must be bit-identical
/// to the reference interpreter run of the unoptimised frontend output.
/// This is the end-to-end proof that the serving layer's caching,
/// admission and recovery machinery is value-transparent.
///
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <map>

using namespace fut;
using namespace fut::test;

namespace {

using serve::ServeResponse;

constexpr uint64_t kNumSeeds = 20;

/// Reference leg: the unoptimised frontend output on the plain
/// interpreter (same as runDifferential's reference side).
ErrorOr<std::vector<Value>> referenceRun(const GeneratedProgram &GP) {
  NameSource Names;
  auto P = frontend(GP.Source, Names);
  if (!P)
    return P.getError();
  Program Prog = P.take();
  Interpreter I(Prog);
  return I.run(GP.Args);
}

void expectMatches(const ServeResponse &R, const std::vector<Value> &Ref,
                   const GeneratedProgram &GP, const char *Leg) {
  ASSERT_TRUE(R.Ok) << Leg << " leg failed (seed " << GP.Seed
                    << "): " << R.Message << "\nprogram:\n"
                    << GP.Source;
  ASSERT_EQ(R.Outputs.size(), Ref.size())
      << Leg << " arity mismatch (seed " << GP.Seed << ")";
  for (size_t J = 0; J < Ref.size(); ++J)
    EXPECT_TRUE(R.Outputs[J] == Ref[J])
        << Leg << " result " << J << " differs (seed " << GP.Seed
        << ")\n  served:    " << R.Outputs[J].str()
        << "\n  reference: " << Ref[J].str() << "\nprogram:\n"
        << GP.Source;
}

class ServeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeDifferentialTest, ColdWarmAndFaultyLegsMatchReference) {
  GeneratedProgram GP = generateProgram(GetParam());
  auto Ref = referenceRun(GP);
  ASSERT_TRUE(static_cast<bool>(Ref))
      << "reference failed (seed " << GP.Seed
      << "): " << Ref.getError().str();

  serve::Server S;
  auto Submit = [&](double Arrival, double FaultRate, uint64_t Seed) {
    serve::ServeRequest R;
    R.Source = GP.Source;
    R.Args = GP.Args;
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
        << "drain lost request " << Id << " (seed " << GP.Seed << ")";

  expectMatches(ById.at(Cold), *Ref, GP, "cold");
  EXPECT_FALSE(ById.at(Cold).CacheHit)
      << "first request of this source cannot be a cache hit (seed "
      << GP.Seed << ")";
  expectMatches(ById.at(Warm), *Ref, GP, "warm");
  EXPECT_TRUE(ById.at(Warm).CacheHit)
      << "second identical request must be served from the cache (seed "
      << GP.Seed << ")";
  expectMatches(ById.at(Faulty), *Ref, GP, "faulty");
  EXPECT_TRUE(ById.at(Faulty).CacheHit)
      << "third identical request must be served from the cache (seed "
      << GP.Seed << ")";
  // Pin the hit count independently of drain order: exactly one of the
  // three responses compiled, whichever it was.
  int Hits = 0;
  for (const auto &[Id, R] : ById)
    Hits += R.CacheHit ? 1 : 0;
  EXPECT_EQ(Hits, 2) << "exactly one leg compiles (seed " << GP.Seed << ")";
  EXPECT_EQ(S.stats().Compiles, 1)
      << "one artifact serves all three legs (seed " << GP.Seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeDifferentialTest,
                         ::testing::Range<uint64_t>(0, kNumSeeds));

} // namespace
