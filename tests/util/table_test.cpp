#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace solarnet::util {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Separator line exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, ColumnsAligned) {
  TextTable t({"h", "v"});
  t.add_row({"xxxx", "1"});
  t.add_row({"y", "22"});
  const std::string out = t.render();
  // Every line has the same length (alignment padding).
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(PrintBanner, ContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Figure 6");
  EXPECT_NE(os.str().find("Figure 6"), std::string::npos);
  EXPECT_NE(os.str().find("===="), std::string::npos);
}

}  // namespace
}  // namespace solarnet::util
