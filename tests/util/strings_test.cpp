#include "util/strings.h"

#include <gtest/gtest.h>

namespace solarnet::util {
namespace {

TEST(Split, Basic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, PreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, EmptyInputIsOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("TRUE", "true"));
  EXPECT_TRUE(iequals("MiXeD", "mIxEd"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("  -1.5 "), -1.5);
  EXPECT_DOUBLE_EQ(parse_double("1e3"), 1000.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_THROW(parse_double(""), std::invalid_argument);
  EXPECT_THROW(parse_double("abc"), std::invalid_argument);
  EXPECT_THROW(parse_double("1.5x"), std::invalid_argument);
  EXPECT_THROW(parse_double("1.5 2.5"), std::invalid_argument);
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
  EXPECT_EQ(format_fixed(1.5, -3), "2");  // negative decimals clamp to 0
}

}  // namespace
}  // namespace solarnet::util
