//===- artifact_hash_test.cpp - Artifact cache-key determinism ------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact cache's correctness rests on two properties pinned here:
///
///  * determinism — compiling the same source with the same options
///    always reproduces the same canonical DeviceProgram::str() dump and
///    the same CompileResult::fingerprint() (what quarantine-recompile
///    relies on), and
///  * stability — the golden fingerprint of a fixed program is pinned to
///    a constant, so a compiler pass that changes its output (or a
///    printer change that alters the canonical dump) fails this test
///    instead of silently invalidating every cached artifact.
///
/// Cache *keys* (source + canonical options, no compilation involved)
/// are additionally checked to separate on every semantically relevant
/// option and to ignore verification-only toggles.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include <gtest/gtest.h>

using namespace fut;

namespace {

const char *kPinned = "fun main (n: i32): i32 =\n"
                      "  reduce (+) 0 (map (\\(i: i32): i32 -> i * i) "
                      "(iota n))\n";

/// Golden fingerprint of kPinned under default options.  An intentional
/// pipeline change may update this constant — but only with the
/// understanding that it invalidates every previously cached artifact.
constexpr uint64_t kPinnedFingerprint = 0xebd660d5e978cf6aULL;

TEST(ArtifactHash, CompilationIsDeterministic) {
  NameSource N1, N2;
  auto A = compileSource(kPinned, N1);
  auto B = compileSource(kPinned, N2);
  ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
  ASSERT_TRUE(static_cast<bool>(B)) << B.getError().str();
  EXPECT_EQ(A->P.str(), B->P.str());
  EXPECT_EQ(A->MemPlan.str(), B->MemPlan.str());
  EXPECT_EQ(A->fingerprint(), B->fingerprint());
}

TEST(ArtifactHash, GoldenFingerprintIsPinned) {
  NameSource N;
  auto A = compileSource(kPinned, N);
  ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
  EXPECT_EQ(A->fingerprint(), kPinnedFingerprint)
      << "the canonical artifact dump changed; if intentional, update "
         "the golden constant (this invalidates cached artifacts)";
}

TEST(ArtifactHash, CanonicalDumpIsNonTrivial) {
  NameSource N;
  auto A = compileSource(kPinned, N);
  ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
  EXPECT_NE(A->P.str().find("kernel"), std::string::npos)
      << "the canonical dump should show the extracted kernels";
}

TEST(ArtifactHash, CacheKeySeparatesSemanticOptions) {
  CompilerOptions Base;
  uint64_t KBase = artifactCacheKey(kPinned, Base);

  CompilerOptions NoFusion = Base;
  NoFusion.EnableFusion = false;
  CompilerOptions NoKernels = Base;
  NoKernels.ExtractKernels = false;
  CompilerOptions NoTiling = Base;
  NoTiling.Locality.EnableTiling = false;
  CompilerOptions NoInterchange = Base;
  NoInterchange.Flatten.EnableInterchange = false;

  EXPECT_NE(KBase, artifactCacheKey(kPinned, NoFusion));
  EXPECT_NE(KBase, artifactCacheKey(kPinned, NoKernels));
  EXPECT_NE(KBase, artifactCacheKey(kPinned, NoTiling));
  EXPECT_NE(KBase, artifactCacheKey(kPinned, NoInterchange));
  EXPECT_NE(KBase, artifactCacheKey("fun main: i32 = 1\n", Base));
}

TEST(ArtifactHash, CacheKeyIgnoresVerificationToggles) {
  CompilerOptions Base;
  uint64_t KBase = artifactCacheKey(kPinned, Base);

  // Verification gates whether compilation is accepted, never what it
  // produces: toggling it must not split the cache.
  CompilerOptions NoVerify = Base;
  NoVerify.VerifyIR = false;
  EXPECT_EQ(KBase, artifactCacheKey(kPinned, NoVerify));
}

TEST(ArtifactHash, FingerprintCoversTheMemoryPlan) {
  // The plan is part of the artifact: perturbing one slab's extent must
  // change the fingerprint, and restoring it must bring the original back.
  NameSource N;
  auto A = compileSource(kPinned, N);
  ASSERT_TRUE(static_cast<bool>(A)) << A.getError().str();
  ASSERT_FALSE(A->MemPlan.Funs.empty());
  ASSERT_FALSE(A->MemPlan.Funs[0].Slabs.empty());
  const uint64_t Original = A->fingerprint();
  int64_t &Bytes = A->MemPlan.Funs[0].Slabs[0].Bytes;
  const int64_t Saved = Bytes;
  Bytes += 8;
  EXPECT_NE(A->fingerprint(), Original);
  Bytes = Saved;
  EXPECT_EQ(A->fingerprint(), Original);
}

} // namespace
