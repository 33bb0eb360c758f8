//===- regress_test.cpp - Fuzzer-found miscompile regression corpus --------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every miscompile the fuzzer has ever found lives on as a minimized .fut
/// case under cases/ (one file per bug, with the fix referenced in the
/// header comment).  Each case is replayed through the same differential
/// oracle the fuzzer uses — full pipeline + simulated device vs. the
/// reference interpreter — so a regression reports exactly like the
/// original fuzzer failure.
///
/// A case whose header carries `-- error: <message>` is one both sides
/// must reject: the reference interpreter and the device must fail with
/// exactly that message and the same error kind.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"

#include "TestUtil.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

using namespace fut;
using namespace fut::fuzz;

namespace {

std::filesystem::path casesDir() {
  return std::filesystem::path(FUTHARKCC_REGRESS_DIR);
}

std::vector<std::filesystem::path> caseFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(casesDir()))
    if (Entry.path().extension() == ".fut")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The message of a `-- error:` header line, or empty.
std::string expectedError(const std::string &Contents) {
  const std::string Tag = "-- error: ";
  std::stringstream SS(Contents);
  std::string Line;
  while (std::getline(SS, Line))
    if (Line.rfind(Tag, 0) == 0)
      return Line.substr(Tag.size());
  return "";
}

/// Requires the reference interpreter and the device to reject the case
/// with \p Msg and the same error kind.
void expectBothReject(const FuzzCase &C, const std::string &Msg) {
  auto Ref = referenceRun(C.Source, C.Args);
  ASSERT_FALSE(static_cast<bool>(Ref)) << "the reference accepted the case";
  EXPECT_EQ(Ref.getError().Message, Msg);

  NameSource Names;
  auto Compiled = compileSource(C.Source, Names);
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.getError().str();
  DeviceRunOptions RO;
  RO.MemPlan = &Compiled->MemPlan;
  auto R = runOnDevice(Compiled->P, C.Args, RO);
  ASSERT_FALSE(static_cast<bool>(R)) << "the device accepted the case";
  EXPECT_EQ(R.getError().Message, Msg);
  EXPECT_EQ(R.getError().Kind, Ref.getError().Kind);
}

} // namespace

TEST(RegressTest, CorpusIsNonEmpty) {
  ASSERT_TRUE(std::filesystem::is_directory(casesDir()))
      << "missing regression corpus directory " << casesDir();
  EXPECT_FALSE(caseFiles().empty())
      << "no .fut cases in " << casesDir();
}

TEST(RegressTest, EveryCaseParsesAndAgrees) {
  for (const auto &Path : caseFiles()) {
    SCOPED_TRACE(Path.filename().string());
    FuzzCase C;
    std::string Contents = slurp(Path);
    ASSERT_TRUE(loadRegressionFile(Contents, C))
        << Path << ": malformed regression file (needs an '-- args:' line)";
    std::string Msg = expectedError(Contents);
    if (!Msg.empty()) {
      expectBothReject(C, Msg);
      continue;
    }
    Outcome O = runSourceDifferential(C.Source, C.Args).front();
    EXPECT_TRUE(O.Ok) << Path << ":\n" << O.Message;
  }
}
