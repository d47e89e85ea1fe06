#include "common/string_util.h"

#include <gtest/gtest.h>

#include "common/env.h"

namespace targad {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, SingleFieldWithoutDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, StripsWhitespaceBothSides) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nz\r "), "z");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"x"}, ","), "x");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble(" 42 ", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(ParseDouble("+0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));  // Non-finite rejected.
  EXPECT_FALSE(ParseDouble("inf", &v));
  // Hexadecimal, which strtod would accept, after an optional sign.
  EXPECT_FALSE(ParseDouble("0x10", &v));
  EXPECT_FALSE(ParseDouble("0X10", &v));
  EXPECT_FALSE(ParseDouble("0x1p3", &v));
  EXPECT_FALSE(ParseDouble("-0x10", &v));
  EXPECT_FALSE(ParseDouble("+0x1p3", &v));
  EXPECT_FALSE(ParseDouble(" 0x10 ", &v));
}

TEST(ParseIntTest, ParsesValidIntegers) {
  long v = 0;  // NOLINT(runtime/int)
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseIntTest, RejectsNonIntegers) {
  long v = 0;  // NOLINT(runtime/int)
  EXPECT_FALSE(ParseInt("3.5", &v));
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("12abc", &v));
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatDouble(-1.0, 0), "-1");
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(EnvTest, FallsBackWhenUnset) {
  unsetenv("TARGAD_TEST_ENV_VAR");
  EXPECT_DOUBLE_EQ(GetEnvDouble("TARGAD_TEST_ENV_VAR", 2.5), 2.5);
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 3), 3);
  EXPECT_EQ(GetEnvString("TARGAD_TEST_ENV_VAR", "d"), "d");
}

TEST(EnvTest, ReadsSetValues) {
  setenv("TARGAD_TEST_ENV_VAR", "1.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("TARGAD_TEST_ENV_VAR", 0.0), 1.5);
  setenv("TARGAD_TEST_ENV_VAR", "7", 1);
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 0), 7);
  setenv("TARGAD_TEST_ENV_VAR", "hello", 1);
  EXPECT_EQ(GetEnvString("TARGAD_TEST_ENV_VAR", ""), "hello");
  // Unparsable values fall back.
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 9), 9);
  unsetenv("TARGAD_TEST_ENV_VAR");
}

}  // namespace
}  // namespace targad
