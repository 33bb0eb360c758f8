//===- utils_test.cpp - Tests for the shared support helpers --------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Utils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace fut;

TEST(ParseNumArgTest, AcceptsWholeNumbersOfTheFlagsType) {
  int I = 0;
  EXPECT_TRUE(parseNumArg("12", I));
  EXPECT_EQ(I, 12);
  EXPECT_TRUE(parseNumArg("-5", I));
  EXPECT_EQ(I, -5);
  int64_t Bytes = 0;
  EXPECT_TRUE(parseNumArg("1e9", Bytes));
  EXPECT_EQ(Bytes, 1000000000);
  EXPECT_TRUE(parseNumArg("2.0", I));
  EXPECT_EQ(I, 2);
  // Decimal digits are read exactly, beyond double precision.
  uint64_t Seed = 0;
  EXPECT_TRUE(parseNumArg("18446744073709551615", Seed));
  EXPECT_EQ(Seed, UINT64_MAX);
  double D = 0;
  EXPECT_TRUE(parseNumArg("0.25", D));
  EXPECT_EQ(D, 0.25);
  EXPECT_TRUE(parseNumArg("2e4", D));
  EXPECT_EQ(D, 20000.0);
}

TEST(ParseNumArgTest, RejectsMalformedInputAndLeavesTheTargetAlone) {
  int I = 7;
  for (const char *Bad : {"12abc", "2x", "2.9", "", " 3", "3 ", "abc", "--1",
                          "1e400", "3000000000", "nan"})
    EXPECT_FALSE(parseNumArg(Bad, I)) << "'" << Bad << "'";
  EXPECT_EQ(I, 7);
  uint64_t U = 7;
  EXPECT_FALSE(parseNumArg("-1", U));
  EXPECT_FALSE(parseNumArg("1.5", U));
  EXPECT_EQ(U, 7u);
  double D = 7;
  for (const char *Bad : {"0.5x", "inf", "nan", "1e400", "", "1,5"})
    EXPECT_FALSE(parseNumArg(Bad, D)) << "'" << Bad << "'";
  EXPECT_EQ(D, 7.0);
}

namespace {

/// Parses \p Args with \p Cmd; the exit code parse stops with, or -1.
int parseArgs(const cli::Command &Cmd, std::vector<std::string> Args) {
  Args.insert(Args.begin(), "tool");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  auto Exit = Cmd.parse(static_cast<int>(Argv.size()), Argv.data());
  return Exit ? *Exit : -1;
}

} // namespace

TEST(FlagsTest, OneTableParsesEveryForm) {
  int N = 0;
  std::string Preset, Path;
  std::vector<std::string> Files, Rest;
  bool Quiet = false, RestSeen = false;
  cli::Command Cmd{
      .Synopsis = "tool [file] [options]",
      .Flags = {cli::number("--n", "<n>", "a count", N, 1),
                {.Name = "--preset",
                 .Meta = "<p>",
                 .Help = "a preset",
                 .Set =
                     [&](const std::string &V) {
                       Preset = V;
                       N = 100; // what a preset resets
                       return true;
                     },
                 .Early = true},
                cli::text("--path", "<p>", "a path", Path),
                cli::toggle("--quiet", "say less", Quiet),
                {.Name = "--run",
                 .Meta = "args...",
                 .Help = "the rest",
                 .Set = [&](const std::string &) { return RestSeen = true; },
                 .Rest = &Rest}},
      .Args = &Files,
      .MaxArgs = 1};

  // Both value forms; the preset applies first wherever it stands.
  EXPECT_EQ(parseArgs(Cmd, {"--n=3", "--preset", "p", "f", "--quiet"}), -1);
  EXPECT_EQ(N, 3);
  EXPECT_EQ(Preset, "p");
  EXPECT_TRUE(Quiet);
  EXPECT_EQ(Files, std::vector<std::string>{"f"});

  // A value token is never read as a flag.
  EXPECT_EQ(parseArgs(Cmd, {"--path", "--n", "4", "f"}), 2);
  EXPECT_EQ(parseArgs(Cmd, {"--path", "--n"}), -1);
  EXPECT_EQ(Path, "--n");

  // The rest flag takes everything after it.
  EXPECT_EQ(parseArgs(Cmd, {"f", "--run", "--n", "x", "g"}), -1);
  EXPECT_TRUE(RestSeen);
  EXPECT_EQ(Rest, (std::vector<std::string>{"--n", "x", "g"}));

  // Usage errors exit 2, help exits 0.
  for (std::vector<std::string> Bad :
       {std::vector<std::string>{"--n"}, {"--n="}, {"--n", "0"},
        {"--n", "2x"}, {"--bogus"}, {"--quiet=1"}, {"--run=1"}, {"f", "g"}})
    EXPECT_EQ(parseArgs(Cmd, Bad), 2) << Bad[0];
  EXPECT_EQ(parseArgs(Cmd, {"--bogus", "--help"}), 2);
  EXPECT_EQ(parseArgs(Cmd, {"-h"}), 0);
}
