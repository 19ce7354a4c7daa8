#include "util/parse_num.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace quicksand::util {
namespace {

TEST(ParseNum, ParsesWholeStringsOnly) {
  EXPECT_EQ(ParseI64("42"), 42);
  EXPECT_EQ(ParseI64("-7"), -7);
  EXPECT_EQ(ParseI64("  13"), 13);  // strtol-style leading whitespace
  EXPECT_EQ(ParseI64("ff", 16), 0xff);
  // Fail closed on anything that is not entirely a number.
  EXPECT_FALSE(ParseI64("").has_value());
  EXPECT_FALSE(ParseI64("12abc").has_value());
  EXPECT_FALSE(ParseI64("abc").has_value());
  EXPECT_FALSE(ParseI64("1 2").has_value());
  EXPECT_FALSE(ParseI64("12 ").has_value());
}

TEST(ParseNum, RangeChecked) {
  EXPECT_EQ(ParseI64("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(ParseI64("9223372036854775808").has_value());
  EXPECT_EQ(ParseU64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseU64("18446744073709551616").has_value());
}

TEST(ParseNum, UnsignedRejectsNegatives) {
  // strtoull silently wraps "-1" to UINT64_MAX; ParseU64 must not.
  EXPECT_FALSE(ParseU64("-1").has_value());
  EXPECT_FALSE(ParseU64("-0").has_value());
  EXPECT_EQ(ParseU64("0"), 0u);
}

TEST(ParseNum, Doubles) {
  EXPECT_DOUBLE_EQ(ParseF64("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseF64("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseF64("0.25x").has_value());
  EXPECT_FALSE(ParseF64("").has_value());
  // strtod accepts these, and a NaN passes every `x < lo || x > hi` check.
  EXPECT_FALSE(ParseF64("nan").has_value());
  EXPECT_FALSE(ParseF64("inf").has_value());
  EXPECT_FALSE(ParseF64("-inf").has_value());
}

TEST(ParseNum, HexEscapesForTraceDecoding) {
  EXPECT_EQ(ParseU64("0041", 16), 0x41u);
  EXPECT_FALSE(ParseU64("00zz", 16).has_value());
}

TEST(ParseNum, EnvInt64FailsClosed) {
  ::unsetenv("QUICKSAND_PARSE_NUM_TEST");
  EXPECT_EQ(EnvInt64("QUICKSAND_PARSE_NUM_TEST", 9), 9);
  ::setenv("QUICKSAND_PARSE_NUM_TEST", "17", 1);
  EXPECT_EQ(EnvInt64("QUICKSAND_PARSE_NUM_TEST", 9), 17);
  // A typo'd hook must abort the run, not silently parse to 0 and turn a
  // chaos leg into a no-op that still "passes".
  ::setenv("QUICKSAND_PARSE_NUM_TEST", "3x", 1);
  EXPECT_THROW(static_cast<void>(EnvInt64("QUICKSAND_PARSE_NUM_TEST", 9)),
               std::runtime_error);
  ::unsetenv("QUICKSAND_PARSE_NUM_TEST");
}

}  // namespace
}  // namespace quicksand::util
