//===- utils_test.cpp - Tests for the shared support helpers --------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "support/Utils.h"

#include <gtest/gtest.h>

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
