#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace solarnet::util {
namespace {

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_csv_document("a,b,c\n1,2,3\n").rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2", "3"}));
}

TEST(ParseCsv, NoTrailingNewline) {
  const auto rows = parse_csv_document("a,b\n1,2").rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"1", "2"}));
}

TEST(ParseCsv, EmptyFieldsPreserved) {
  const auto rows = parse_csv_document("a,,c\n,,\n").rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"", "", ""}));
}

TEST(ParseCsv, QuotedFieldWithDelimiter) {
  const auto rows = parse_csv_document("\"a,b\",c\n").rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a,b", "c"}));
}

TEST(ParseCsv, QuotedFieldWithNewline) {
  const auto rows = parse_csv_document("\"line1\nline2\",x\n").rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(ParseCsv, DoubledQuoteEscape) {
  const auto rows = parse_csv_document("\"she said \"\"hi\"\"\",y\n").rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "she said \"hi\"");
}

TEST(ParseCsv, CrLfLineEndings) {
  const auto rows = parse_csv_document("a,b\r\n1,2\r\n").rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2"}));
}

TEST(ParseCsv, SkipsBlankLinesByDefault) {
  const auto rows = parse_csv_document("a\n\n\nb\n").rows;
  ASSERT_EQ(rows.size(), 2u);
}

TEST(ParseCsv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_document("\"abc\n"), std::runtime_error);
}

TEST(ParseCsv, EmptyInput) {
  EXPECT_TRUE(parse_csv_document("").rows.empty());
}

TEST(ToCsv, RoundTripsQuoting) {
  const std::vector<CsvRow> rows = {
      {"plain", "with,comma", "with\"quote", "with\nnewline"},
      {"", "x", "y", "z"},
      {""},  // written as "", since a blank line would be skipped
  };
  const std::string text = to_csv(rows);
  const auto parsed = parse_csv_document(text).rows;
  EXPECT_EQ(parsed, rows);
}

TEST(ToCsv, MinimalQuoting) {
  const std::vector<CsvRow> rows = {{"a", "b"}};
  EXPECT_EQ(to_csv(rows), "a,b\n");
}

TEST(CsvFile, WriteAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "solarnet_csv_test.csv")
          .string();
  const std::vector<CsvRow> rows = {{"h1", "h2"}, {"1", "two words"}};
  write_csv_file(path, rows);
  EXPECT_EQ(read_csv_document(path).rows, rows);
  std::remove(path.c_str());
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_document("/nonexistent/definitely/not.csv"),
               std::runtime_error);
}

TEST(CsvTable, HeaderLookupAndTypedAccess) {
  const CsvTable table(parse_csv_document("name,lat,count\nParis,48.86,3\n"));
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.column_index("name"), 0u);
  EXPECT_EQ(table.column_index("lat"), 1u);
  EXPECT_EQ(table.column_index("count"), 2u);
  EXPECT_EQ(table.cell(0, "name"), "Paris");
  EXPECT_DOUBLE_EQ(table.cell_double(0, "lat"), 48.86);
  EXPECT_EQ(table.cell(0, "count"), "3");
}

TEST(CsvTable, ErrorsOnBadAccess) {
  const CsvTable table(parse_csv_document("a,b\n1,2\n"));
  EXPECT_THROW(table.cell(0, "zz"), std::out_of_range);
  EXPECT_THROW(table.cell(5, "a"), std::out_of_range);
}

TEST(CsvTable, RejectsEmptyAndDuplicateHeader) {
  EXPECT_THROW(CsvTable(parse_csv_document("")), std::runtime_error);
  EXPECT_THROW(CsvTable(parse_csv_document("a,a\n1,2\n")),
               std::runtime_error);
}

TEST(CsvTable, ShortRowThrowsOnAccess) {
  const CsvTable table(parse_csv_document("a,b,c\n1,2\n"));
  EXPECT_EQ(table.cell(0, "a"), "1");
  EXPECT_THROW(table.cell(0, "c"), std::out_of_range);
}

TEST(ParseCsvDocument, TracksRowStartLines) {
  const CsvDocument doc =
      parse_csv_document("a,b\n1,2\n\n3,4\n", "data.csv");
  EXPECT_EQ(doc.path, "data.csv");
  ASSERT_EQ(doc.rows.size(), 3u);
  ASSERT_EQ(doc.lines.size(), 3u);
  EXPECT_EQ(doc.lines[0], 1u);
  EXPECT_EQ(doc.lines[1], 2u);
  EXPECT_EQ(doc.lines[2], 4u);  // the blank line 3 was skipped, not rows
}

TEST(ParseCsvDocument, QuotedNewlinesCountTowardLineNumbers) {
  // Row 2 starts on physical line 2; its quoted field spans lines 2-3, so
  // row 3 starts on physical line 4.
  const CsvDocument doc =
      parse_csv_document("h\n\"two\nlines\"\nnext\n", "q.csv");
  ASSERT_EQ(doc.rows.size(), 3u);
  EXPECT_EQ(doc.lines[1], 2u);
  EXPECT_EQ(doc.lines[2], 4u);
}

TEST(ParseCsvDocument, CrLfAndTrailingBlanksKeepLineNumbers) {
  const CsvDocument doc =
      parse_csv_document("a,b\r\n1,2\r\n\r\n\r\n", "crlf.csv");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (CsvRow{"1", "2"}));
  EXPECT_EQ(doc.lines[1], 2u);
}

TEST(ParseCsvDocument, UnterminatedQuoteNamesOpeningLine) {
  try {
    parse_csv_document("a,b\n\"oops,2\n", "bad.csv");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.csv:2"), std::string::npos);
  }
}

TEST(ParseCsvDocument, StrayCharacterAfterClosingQuote) {
  try {
    parse_csv_document("\"a\"b,c\n", "stray.csv");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("stray.csv:1"), std::string::npos);
  }
}

TEST(CsvTable, CarriesProvenanceIntoTypedAccessErrors) {
  const CsvDocument doc = parse_csv_document(
      "name,lat\nParis,48.86\nAtlantis,not-a-number\n", "cities.csv");
  const CsvTable table(doc);
  EXPECT_DOUBLE_EQ(table.cell_double(0, "lat"), 48.86);
  // Row 1 is the third physical line of the file.
  EXPECT_EQ(table.source_line(1), 3u);
  try {
    table.cell_double(1, "lat");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    const std::string what = e.what();
    EXPECT_NE(what.find("not-a-number"), std::string::npos);
    EXPECT_NE(what.find("cities.csv:3"), std::string::npos);
    EXPECT_NE(what.find("lat"), std::string::npos);
  }
}

TEST(CsvTable, ContextPinpointsRowAndColumn) {
  const CsvDocument doc =
      parse_csv_document("a,b\n1,2\n3,4\n", "t.csv");
  const CsvTable table(doc);
  const SourceContext ctx = table.context(1, "b");
  EXPECT_EQ(ctx.file, "t.csv");
  EXPECT_EQ(ctx.line, 3u);
  EXPECT_EQ(ctx.field, "b");
}

TEST(CsvTable, TablesWithoutProvenanceStillReport) {
  // A document without line provenance: typed-access failures still
  // throw, just without file/line context.
  CsvDocument doc = parse_csv_document("x\nnope\n");
  doc.lines.clear();
  const CsvTable table(std::move(doc));
  EXPECT_EQ(table.source_line(0), 0u);
  EXPECT_THROW(table.cell_double(0, "x"), Error);
}

TEST(ReadCsvDocument, FileRoundTripKeepsPath) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "solarnet_csv_doc_test.csv")
          .string();
  write_csv_file(path, {{"h"}, {"v"}});
  const CsvDocument doc = read_csv_document(path);
  EXPECT_EQ(doc.path, path);
  ASSERT_EQ(doc.rows.size(), 2u);
  std::remove(path.c_str());
}

// Property sweep: random tables with adversarial content round-trip
// losslessly through to_csv/parse_csv_document.
class CsvRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvRoundTripTest, RandomTablesRoundTrip) {
  // Deterministic LCG so each instantiation is a stable case.
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1u;
  auto next = [&]() {
    state = state * 1664525u + 1013904223u;
    return state >> 8;
  };
  const char alphabet[] = "abc,\"\n\r;x 1.5\t-";
  std::vector<CsvRow> rows;
  const std::size_t n_rows = 1 + next() % 8;
  const std::size_t n_cols = 1 + next() % 5;
  for (std::size_t r = 0; r < n_rows; ++r) {
    CsvRow row;
    for (std::size_t c = 0; c < n_cols; ++c) {
      std::string field;
      const std::size_t len = next() % 12;
      for (std::size_t k = 0; k < len; ++k) {
        field += alphabet[next() % (sizeof(alphabet) - 1)];
      }
      // A field that is exactly "\r" (or ends in \r after an unquoted
      // newline) is representable; our writer quotes it. But a bare field
      // whose only content is "" is fine too.
      row.push_back(field);
    }
    rows.push_back(row);
  }
  const std::string text = to_csv(rows);
  const auto parsed = parse_csv_document(text).rows;
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(parsed[r], rows[r]) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Range(1, 26));

}  // namespace
}  // namespace solarnet::util
