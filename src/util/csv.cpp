#include "util/csv.h"

#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/checkpoint.h"
#include "util/strings.h"

namespace solarnet::util {

namespace {

bool needs_quoting(std::string_view field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string quote_field(std::string_view field) {
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvDocument parse_csv_document(std::string_view text, std::string path) {
  CsvDocument doc;
  doc.path = std::move(path);
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;
  // True immediately after a closing quote: the only legal next characters
  // are a delimiter or a line ending. Anything else used to be silently
  // appended, turning `"a"b,c` into a garbage row.
  bool after_quote = false;
  std::size_t line = 1;            // current 1-based source line
  std::size_t row_line = 1;        // line the current row started on
  std::size_t quote_open_line = 0;  // line of the opening quote, if in_quotes

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    after_quote = false;
  };
  auto end_row = [&] {
    end_field();
    const bool blank = row.size() == 1 && row[0].empty() && !row_has_content;
    if (!blank) {
      doc.rows.push_back(std::move(row));
      doc.lines.push_back(row_line);
    }
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
          after_quote = true;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
      continue;
    }
    if (c == ',') {
      end_field();
      row_has_content = true;
    } else if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') {
      // CRLF line ending: drop the CR here; the LF ends the row on the
      // next iteration. (A CR inside a quoted field never reaches this
      // branch, so quoted "\r" content survives round-trips.)
    } else if (c == '\n') {
      end_row();
      ++line;
      row_line = line;
    } else if (after_quote) {
      throw Error(ErrorCode::kParseError,
                  "unexpected character '" + std::string(1, c) +
                      "' after closing quote",
                  {doc.path, line});
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
      row_has_content = true;
      quote_open_line = line;
    } else {
      field += c;
    }
  }
  if (in_quotes) {
    throw Error(ErrorCode::kParseError,
                "unterminated quote (opened on line " +
                    std::to_string(quote_open_line) + ")",
                {doc.path, quote_open_line});
  }
  // Final record without trailing newline.
  if (!field.empty() || !row.empty() || row_has_content) {
    end_row();
  }
  return doc;
}

CsvDocument read_csv_document(const std::string& path) {
  return parse_csv_document(read_file(path), path);
}

std::string to_csv(const std::vector<CsvRow>& rows) {
  std::string out;
  for (const CsvRow& row : rows) {
    // A row whose only field is empty is written as `""`: bare, it would
    // be a blank line, which the reader skips.
    const bool lone_empty = row.size() == 1 && row[0].empty();
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      if (lone_empty || needs_quoting(row[i])) {
        out += quote_field(row[i]);
      } else {
        out += row[i];
      }
    }
    out += '\n';
  }
  return out;
}

void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error(ErrorCode::kIoError, "write_csv_file: cannot open", {path});
  }
  out << to_csv(rows);
  if (!out) {
    throw Error(ErrorCode::kIoError, "write_csv_file: write failed", {path});
  }
}

CsvTable::CsvTable(CsvDocument document) : path_(std::move(document.path)) {
  if (document.rows.empty()) {
    throw Error(ErrorCode::kInvalidData, "CsvTable: no header row", {path_});
  }
  header_ = std::move(document.rows.front());
  rows_.assign(std::make_move_iterator(document.rows.begin() + 1),
               std::make_move_iterator(document.rows.end()));
  if (document.lines.size() == rows_.size() + 1) {
    // Provenance present (one entry per original row incl. header).
    lines_.assign(document.lines.begin() + 1, document.lines.end());
  }
  std::unordered_map<std::string, int> seen;
  for (const std::string& name : header_) {
    if (++seen[name] > 1) {
      throw Error(ErrorCode::kInvalidData,
                  "CsvTable: duplicate column '" + name + "'",
                  {path_, lines_.empty() ? std::size_t{0} : std::size_t{1},
                   name});
    }
  }
}

std::size_t CsvTable::source_line(std::size_t row) const noexcept {
  return row < lines_.size() ? lines_[row] : 0;
}

SourceContext CsvTable::context(std::size_t row, std::string_view column) const {
  return {path_, source_line(row), std::string(column)};
}

std::size_t CsvTable::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: unknown column '" + std::string(name) +
                          "'" + (path_.empty() ? "" : " in " + path_));
}

const std::string& CsvTable::cell(std::size_t row,
                                  std::string_view column) const {
  if (row >= rows_.size()) {
    throw std::out_of_range("CsvTable: row index " + std::to_string(row) +
                            " out of range (" + std::to_string(rows_.size()) +
                            " rows" + (path_.empty() ? "" : " in " + path_) +
                            ")");
  }
  const std::size_t col = column_index(column);
  if (col >= rows_[row].size()) {
    throw std::out_of_range("CsvTable: row " + std::to_string(row) +
                            " is missing column '" + std::string(column) +
                            "' (" + context(row, column).to_string() + ")");
  }
  return rows_[row][col];
}

double CsvTable::cell_double(std::size_t row, std::string_view column) const {
  const std::string& text = cell(row, column);
  try {
    return parse_double(text);
  } catch (const std::exception&) {
    throw Error(ErrorCode::kParseError, "'" + text + "' is not a number",
                context(row, column));
  }
}

}  // namespace solarnet::util
