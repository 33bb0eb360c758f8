//===- artifact_store_test.cpp - On-disk artifact cache contracts ---------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence contracts of the serving layer's artifact store:
/// serialization round-trips the complete CompileResult (program, memory
/// plan, shard plan, pass statistics — same fingerprint, same canonical
/// dumps, same execution results), a restarted server serves its former
/// working set from disk as cache hits without a single compile, and a
/// corrupted file is rejected by the fingerprint check and degrades to a
/// recompile that overwrites it.
///
//===----------------------------------------------------------------------===//

#include "ir/Traversal.h"
#include "serve/ArtifactStore.h"
#include "serve/Serve.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace fut;
using namespace fut::serve;

namespace {

/// Covers every major IR shape: a loop (with AD tape when differentiated),
/// maps, a reduce, and scalar glue.
const char *kTrain = "fun main (n: i32) (w0: f64): f64 =\n"
                     "  let xs = map (\\(i: i32): f64 -> f64 i / 64.0f64)\n"
                     "               (iota n)\n"
                     "  let w = loop (w = w0) for t < 8 do\n"
                     "    let g = reduce (+) 0.0f64\n"
                     "              (map (\\(x: f64): f64 -> w * x - x) xs)\n"
                     "    in w - 0.1f64 * g\n"
                     "  in w\n";

const char *kHist = "fun main (n: i32): i32 =\n"
                    "  let bins = map (\\(i: i32): i32 -> i % 16) (iota n)\n"
                    "  let ones = map (\\(i: i32): i32 -> 1) (iota n)\n"
                    "  let h = reduce_by_index (replicate 16 0) (+) 0\n"
                    "            bins ones\n"
                    "  in reduce (+) 0 h\n";

/// A fresh empty directory under the system temp root.
std::string freshDir(const std::string &Name) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / ("futa_" + Name)).string();
  std::filesystem::remove_all(Dir);
  return Dir;
}

CompileResult compile(const char *Source, const CompilerOptions &Opts = {}) {
  NameSource Names;
  auto C = compileSource(Source, Names, Opts);
  EXPECT_TRUE(static_cast<bool>(C)) << (C ? "" : C.getError().str());
  return C.take();
}

std::vector<Value> run(const CompileResult &C, const std::vector<Value> &Args,
                       const std::string &Fun = "main") {
  DeviceRunOptions RO;
  RO.Device.AsyncTimeline = false;
  RO.MemPlan = &C.MemPlan;
  auto R = runOnDevice(C.P, Args, RO, Fun);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.getError().str());
  return R ? R->Outputs : std::vector<Value>{};
}

/// Gives every expression a distinct known source location, numbered in
/// program order: the desugarer does not record them yet.
void stampLocs(Body &B, int &Next) {
  for (Stm &S : B.Stms) {
    S.E->Loc = SrcLoc{++Next, 1};
    forEachChildBody(*S.E, [&](Body &Inner) { stampLocs(Inner, Next); });
  }
}

/// Every expression's source location as "line:col", in program order.
void collectLocs(const Body &B, std::vector<std::string> &Out) {
  for (const Stm &S : B.Stms) {
    Out.push_back(S.E->Loc.str());
    forEachChildBody(*S.E, [&](const Body &Inner) { collectLocs(Inner, Out); });
  }
}
std::vector<std::string> locsOf(const Program &P) {
  std::vector<std::string> Out;
  for (const FunDef &F : P.Funs)
    collectLocs(F.FBody, Out);
  return Out;
}

ServeRequest request(const char *Source, int32_t N,
                     const CompilerOptions &Opts = {}) {
  ServeRequest R;
  R.Source = Source;
  R.Args.push_back(Value::scalar(PrimValue::makeI32(N)));
  R.Compile = Opts;
  return R;
}

TEST(ArtifactStoreTest, SerializationRoundTripsTheWholeArtifact) {
  CompileResult C = compile(kHist);
  int NumExps = 0;
  for (FunDef &F : C.P.Funs)
    stampLocs(F.FBody, NumExps);
  std::string Bytes = serializeArtifact(C);
  auto D = deserializeArtifact(Bytes);
  ASSERT_TRUE(static_cast<bool>(D)) << D.getError().str();

  // Content addressing: the decoded artifact is the same artifact.
  EXPECT_EQ(D->fingerprint(), C.fingerprint());
  EXPECT_EQ(D->P.str(), C.P.str());
  EXPECT_EQ(D->MemPlan.str(), C.MemPlan.str());
  EXPECT_EQ(D->Shards.str(D->P, 1), C.Shards.str(C.P, 1));
  EXPECT_EQ(D->Flatten.SegHists, C.Flatten.SegHists);
  EXPECT_EQ(D->Fusion.Vertical, C.Fusion.Vertical);
  EXPECT_EQ(D->Locality.CoalescedInputs, C.Locality.CoalescedInputs);

  // Source locations survive too: the printer omits them, so the checks
  // above cannot see them.
  std::vector<std::string> Locs = locsOf(C.P);
  ASSERT_GT(NumExps, 0);
  ASSERT_EQ(Locs.front(), "1:1");
  EXPECT_EQ(locsOf(D->P), Locs);

  // And it executes: same outputs from the decoded program and plan.
  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(96))};
  std::vector<Value> A = run(C, Args), B = run(*D, Args);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]);
}

TEST(ArtifactStoreTest, RoundTripsDifferentiatedAndShardedArtifacts) {
  // The VJP pipeline exercises loops, the tape accounting in the memory
  // plan, and branchy adjoint code; the decoded shard plan must print the
  // same at two devices as the compiled one.
  CompilerOptions Opts;
  Opts.VJP = "main";
  CompileResult C = compile(kTrain, Opts);
  ASSERT_NE(C.P.findFun("main_vjp"), nullptr);

  auto D = deserializeArtifact(serializeArtifact(C));
  ASSERT_TRUE(static_cast<bool>(D)) << D.getError().str();
  EXPECT_EQ(D->fingerprint(), C.fingerprint());
  EXPECT_EQ(D->P.str(), C.P.str());
  EXPECT_EQ(D->MemPlan.str(), C.MemPlan.str());
  EXPECT_EQ(D->Shards.str(D->P, 2), C.Shards.str(C.P, 2));

  const mem::FunPlan *FP = D->MemPlan.forFun("main_vjp");
  ASSERT_NE(FP, nullptr);
  EXPECT_EQ(FP->TapeArrays, C.MemPlan.forFun("main_vjp")->TapeArrays);

  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(64)),
                             Value::scalar(PrimValue::makeF64(0.25)),
                             Value::scalar(PrimValue::makeF64(1.0))};
  std::vector<Value> A = run(C, Args, "main_vjp");
  std::vector<Value> B = run(*D, Args, "main_vjp");
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]);
}

TEST(ArtifactStoreTest, RejectsGarbageAndMissingKeys) {
  EXPECT_FALSE(static_cast<bool>(deserializeArtifact("")));
  EXPECT_FALSE(static_cast<bool>(deserializeArtifact("not an artifact")));

  // Trailing garbage after a valid payload is rejected too.
  std::string Bytes = serializeArtifact(compile(kHist));
  EXPECT_TRUE(static_cast<bool>(deserializeArtifact(Bytes)));
  EXPECT_FALSE(static_cast<bool>(deserializeArtifact(Bytes + "x")));

  ArtifactStore Store(freshDir("missing"));
  EXPECT_FALSE(Store.exists(42));
  EXPECT_FALSE(static_cast<bool>(Store.load(42)));
}

TEST(ArtifactStoreTest, SaveLoadByKey) {
  std::string Dir = freshDir("saveload");
  ArtifactStore Store(Dir);
  CompileResult C = compile(kHist);
  uint64_t Key = artifactCacheKey(kHist, CompilerOptions{});

  ASSERT_TRUE(Store.save(Key, C));
  EXPECT_TRUE(Store.exists(Key));
  auto D = Store.load(Key);
  ASSERT_TRUE(static_cast<bool>(D)) << D.getError().str();
  EXPECT_EQ(D->fingerprint(), C.fingerprint());
  std::filesystem::remove_all(Dir);
}

TEST(ArtifactStoreTest, WarmRestartServesFromDiskWithoutCompiling) {
  std::string Dir = freshDir("warm");
  ServerConfig SC;
  SC.ArtifactDir = Dir;

  // First server instance: compiles once, persists the artifact.
  std::vector<Value> ColdOutputs;
  {
    Server A(SC);
    A.submit(request(kHist, 128));
    auto R = A.drain();
    ASSERT_EQ(R.size(), 1u);
    ASSERT_TRUE(R[0].Ok) << R[0].Message;
    EXPECT_FALSE(R[0].CacheHit);
    EXPECT_EQ(A.stats().Compiles, 1);
    EXPECT_EQ(A.stats().DiskStores, 1);
    EXPECT_EQ(A.stats().DiskHits, 0);
    ColdOutputs = R[0].Outputs;
  }

  // Second instance, fresh in-memory cache, same directory: the request
  // is served from disk as a cache hit — the compiler never runs.
  {
    Server B(SC);
    B.submit(request(kHist, 128));
    auto R = B.drain();
    ASSERT_EQ(R.size(), 1u);
    ASSERT_TRUE(R[0].Ok) << R[0].Message;
    EXPECT_TRUE(R[0].CacheHit);
    EXPECT_EQ(B.stats().Compiles, 0);
    EXPECT_EQ(B.stats().DiskHits, 1);
    EXPECT_EQ(B.stats().CacheHits, 1);
    ASSERT_EQ(R[0].Outputs.size(), ColdOutputs.size());
    for (size_t I = 0; I < ColdOutputs.size(); ++I)
      EXPECT_TRUE(R[0].Outputs[I] == ColdOutputs[I]);
    // The loaded artifact must reproduce the deterministic fingerprint.
    EXPECT_EQ(B.cachedFingerprint(kHist, CompilerOptions{}),
              compile(kHist).fingerprint());
  }
  std::filesystem::remove_all(Dir);
}

TEST(ArtifactStoreTest, WarmRestartIsKeyedByCompilerOptions) {
  // Same source, different semantically relevant options: distinct keys,
  // so a warm restart with the other options still compiles.
  std::string Dir = freshDir("keyed");
  ServerConfig SC;
  SC.ArtifactDir = Dir;
  {
    Server A(SC);
    ServeRequest R0 = request(kTrain, 64);
    R0.Args.push_back(Value::scalar(PrimValue::makeF64(0.25)));
    A.submit(std::move(R0));
    auto R = A.drain();
    ASSERT_EQ(R.size(), 1u);
    EXPECT_TRUE(R[0].Ok) << R[0].Message;
    EXPECT_EQ(A.stats().Compiles, 1);
    EXPECT_EQ(A.stats().DiskStores, 1);
  }
  {
    CompilerOptions Vjp;
    Vjp.VJP = "main";
    Server B(SC);
    ServeRequest R0 = request(kTrain, 64, Vjp);
    R0.Args.push_back(Value::scalar(PrimValue::makeF64(0.25)));
    B.submit(std::move(R0));
    B.drain();
    EXPECT_EQ(B.stats().DiskHits, 0);
    EXPECT_EQ(B.stats().Compiles, 1);
    EXPECT_EQ(B.stats().DiskStores, 1);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ArtifactStoreTest, CorruptFileDegradesToRecompileAndIsRewritten) {
  std::string Dir = freshDir("corrupt");
  ServerConfig SC;
  SC.ArtifactDir = Dir;
  {
    Server A(SC);
    A.submit(request(kHist, 128));
    A.drain();
    ASSERT_EQ(A.stats().DiskStores, 1);
  }

  // Flip one byte in the middle of the stored artifact.
  uint64_t Key = artifactCacheKey(kHist, CompilerOptions{});
  std::string Path = ArtifactStore(Dir).pathFor(Key);
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(F));
    F.seekg(0, std::ios::end);
    auto Size = static_cast<long>(F.tellg());
    ASSERT_GT(Size, 64);
    F.seekg(Size / 2);
    char C = 0;
    F.get(C);
    F.seekp(Size / 2);
    F.put(static_cast<char>(C ^ 0x5a));
  }
  EXPECT_FALSE(static_cast<bool>(ArtifactStore(Dir).load(Key)));

  // A fresh server detects the corruption, recompiles, serves correctly,
  // and overwrites the bad file.
  {
    Server B(SC);
    B.submit(request(kHist, 128));
    auto R = B.drain();
    ASSERT_EQ(R.size(), 1u);
    EXPECT_TRUE(R[0].Ok) << R[0].Message;
    EXPECT_FALSE(R[0].CacheHit);
    EXPECT_EQ(B.stats().DiskCorrupt, 1);
    EXPECT_EQ(B.stats().DiskHits, 0);
    EXPECT_EQ(B.stats().Compiles, 1);
    EXPECT_EQ(B.stats().DiskStores, 1);
  }
  auto D = ArtifactStore(Dir).load(Key);
  EXPECT_TRUE(static_cast<bool>(D)) << (D ? "" : D.getError().str());
  std::filesystem::remove_all(Dir);
}

} // namespace
