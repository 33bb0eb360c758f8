//===- driver_test.cpp - Tests for the pipeline driver ----------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "gpusim/Device.h"
#include "interp/Interp.h"
#include "ir/Traversal.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sys/wait.h>

using namespace fut;
using namespace fut::test;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}

int countKernelsIn(const Body &B) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (S.E->kind() == ExpKind::Kernel)
      ++N;
    forEachChildBody(*S.E,
                     [&](const Body &In) { N += countKernelsIn(In); });
  }
  return N;
}

/// Runs the futharkcc binary with \p Args, discarding its output, and
/// returns its exit code.
int runCli(const std::string &Args) {
  std::string Cmd =
      std::string(FUTHARKCC_BIN) + " " + Args + " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

TEST(DriverCliTest, MalformedNumericFlagsAreUsageErrors) {
  std::string Prog = testing::TempDir() + "cli_inc.fut";
  std::ofstream(Prog) << "fun main (x: i32): i32 = x + 1\n";
  // Well-formed values run; an integer flag also takes 1e9-style doubles.
  EXPECT_EQ(runCli("--device-mem 1e9 --devices 2 " + Prog + " --run 3"), 0);
  EXPECT_EQ(runCli("--devices=2 --max-retries 3 " + Prog + " --run 3"), 0);
  // Trailing text, and a fraction or sign an integer flag cannot hold,
  // are usage errors.
  for (const char *Bad : {"--device-mem 12abc", "--devices=2x",
                          "--devices 2.9", "--max-retries 1.5",
                          "--fault-rate 0.1x", "--fault-seed -1"})
    EXPECT_EQ(runCli(std::string(Bad) + " " + Prog + " --run 3"), 2) << Bad;
}

TEST(DriverCliTest, DevicePresetKeepsDeviceFlagsOnEitherSide) {
  // --device selects a preset; a device flag refines it whichever side of
  // --device it is on.  1000 i32s do not fit in 64 bytes, so both orders
  // must fail on the device (no interpreter fallback).
  std::string Prog = testing::TempDir() + "cli_map.fut";
  std::ofstream(Prog) << "fun main (n: i32): [n]i32 = map (+1) (iota n)\n";
  EXPECT_EQ(runCli("--device-mem 64 --device w8100 --no-fallback " + Prog +
                   " --run 1000"),
            1);
  EXPECT_EQ(runCli("--device w8100 --device-mem 64 --no-fallback " + Prog +
                   " --run 1000"),
            1);
  EXPECT_EQ(runCli("--device w8100 " + Prog + " --run 1000"), 0);
  EXPECT_EQ(runCli("--device a100 " + Prog + " --run 1000"), 2);
}

TEST(DriverTest, FrontendErrorsPropagate) {
  NameSource NS;
  EXPECT_ERR_CONTAINS(compileSource("fun main (x: i32): i32 = y", NS),
                      "unbound variable");
}

TEST(DriverTest, UniquenessErrorsPropagate) {
  NameSource NS;
  EXPECT_ERR_CONTAINS(
      compileSource("fun main (n: i32) (a: [n]i32): [n]i32 =\n"
                    "  a with [0] <- 1",
                    NS),
      "not consumable");
}

TEST(DriverTest, PhaseTogglesActuallyToggle) {
  const char *Src = "fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce (+) 0 (map (+1) xs)";

  NameSource NS1;
  auto Full = compileSource(Src, NS1);
  ASSERT_OK(Full);
  EXPECT_EQ(Full->Fusion.Redomap, 1);
  EXPECT_GE(countKernelsIn(Full->P.Funs[0].FBody), 1);

  NameSource NS2;
  CompilerOptions NoFuse;
  NoFuse.EnableFusion = false;
  auto Unfused = compileSource(Src, NS2, NoFuse);
  ASSERT_OK(Unfused);
  EXPECT_EQ(Unfused->Fusion.total(), 0);

  NameSource NS3;
  CompilerOptions NoKernels;
  NoKernels.ExtractKernels = false;
  auto HostOnly = compileSource(Src, NS3, NoKernels);
  ASSERT_OK(HostOnly);
  EXPECT_EQ(countKernelsIn(HostOnly->P.Funs[0].FBody), 0);
}

TEST(DriverTest, AllConfigurationsAgreeSemantically) {
  const char *Src =
      "fun main (n: i32) (xs: [n]i32): ([n]i32, i32) =\n"
      "  let ys = map (\\(x: i32): i32 -> x * x + 1) xs\n"
      "  let s = reduce max 0 ys\n"
      "  in (map (\\(y: i32): i32 -> y % (s + 1)) ys, s)";
  std::vector<Value> Args = {iv(9), ivec(randomInts(9, 5, 0, 9))};

  std::vector<CompilerOptions> Configs(5);
  Configs[1].EnableFusion = false;
  Configs[2].Locality.EnableCoalescing = false;
  Configs[3].Locality.EnableTiling = false;
  Configs[4].ExtractKernels = false;

  std::vector<Value> Want;
  for (size_t I = 0; I < Configs.size(); ++I) {
    NameSource NS;
    auto C = compileSource(Src, NS, Configs[I]);
    ASSERT_OK(C);
    gpusim::Device D;
    auto R = D.runMain(C->P, Args);
    ASSERT_TRUE(static_cast<bool>(R)) << "config " << I << ": "
                                      << R.getError().str();
    if (I == 0) {
      Want = R->Outputs;
      continue;
    }
    ASSERT_EQ(R->Outputs.size(), Want.size());
    for (size_t J = 0; J < Want.size(); ++J)
      EXPECT_TRUE(R->Outputs[J].approxEqual(Want[J]))
          << "config " << I << ", output " << J;
  }
}

TEST(DriverTest, VerifierCatchesMalformedPasses) {
  // Simulate a buggy pass by compiling, mangling the program, and
  // re-entering the pipeline: the verifier must fire at the first
  // boundary.
  NameSource NS;
  auto C = compileSource("fun main (x: i32): i32 = x + 1", NS);
  ASSERT_OK(C);
  Program P = std::move(C->P);
  ASSERT_FALSE(P.Funs[0].FBody.Stms.empty());
  // Reference a bogus name.
  P.Funs[0].FBody.Result = {SubExp::var(VName("bogus", 999999))};
  auto Again = compileProgram(std::move(P), NS);
  EXPECT_ERR_CONTAINS(Again, "after pass 'frontend'");
  EXPECT_EQ(Again.getError().Kind, ErrorKind::Verify);
}

TEST(DriverTest, MultiFunctionProgramsInlineAndCompile) {
  const char *Src =
      "fun scale (n: i32) (xs: [n]i32) (c: i32): [n]i32 =\n"
      "  map (\\(x: i32): i32 -> x * c) xs\n"
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  reduce (+) 0 (scale n xs 3)";
  NameSource NS;
  auto C = compileSource(Src, NS);
  ASSERT_OK(C);
  // After inlining + dead-function removal only main remains.
  EXPECT_EQ(C->P.Funs.size(), 1u);
  gpusim::Device D;
  auto R = D.runMain(C->P, {iv(4), ivec({1, 2, 3, 4})});
  ASSERT_OK(R);
  EXPECT_EQ(R->Outputs[0], iv(30));
}
