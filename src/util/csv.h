// Minimal RFC-4180-style CSV reader/writer. Used by the network loader so
// that real TeleGeography / Intertubes exports can be plugged in place of
// the synthetic generators, and by the exporters and benches to dump data.
//
// Supported: quoted fields, embedded commas/newlines inside quotes,
// doubled-quote escaping, CRLF and LF line endings. Blank lines are
// skipped.
//
// Diagnostics: parse_csv_document / read_csv_document track the 1-based
// source line each row starts on, and CsvTable carries that provenance
// into every typed-access error — a malformed number in row 4000 of a
// TeleGeography export fails with "file.csv:4001, field 'lat'", not a
// garbage value. Structural errors (unterminated quote, stray characters
// after a closing quote) throw util::Error(ErrorCode::kParseError) with
// the same context.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace solarnet::util {

// One parsed record (row) of fields.
using CsvRow = std::vector<std::string>;

// A parsed CSV document with provenance: rows plus, per row, the 1-based
// source line the row started on (quoted fields may span further lines).
struct CsvDocument {
  std::string path;  // "" = in-memory input
  std::vector<CsvRow> rows;
  std::vector<std::size_t> lines;  // same size as rows
};

// Parses an entire CSV document from a string, keeping line provenance.
// `path` only labels diagnostics. Throws util::Error(kParseError) on
// structurally invalid input (unterminated quote, stray characters between
// a closing quote and the next delimiter/newline).
CsvDocument parse_csv_document(std::string_view text, std::string path = {});

// Parses a CSV file from disk (via util::read_file — fault-injection site
// kFileRead). Throws util::Error(kIoError) if the file cannot be opened,
// util::Error(kParseError) if it is malformed.
CsvDocument read_csv_document(const std::string& path);

// Serializes rows, quoting fields only when needed (comma, quote, CR or LF
// present, or a row whose only field is empty). Rows are terminated with
// '\n'.
std::string to_csv(const std::vector<CsvRow>& rows);

void write_csv_file(const std::string& path, const std::vector<CsvRow>& rows);

// Header-aware view over parsed rows: resolves column names to indices once
// and provides typed access. The first row is the header. Errors carry the
// document's file:line context (row indices when it has no line numbers).
class CsvTable {
 public:
  // Throws util::Error on empty input or duplicate header names.
  explicit CsvTable(CsvDocument document);

  std::size_t row_count() const noexcept { return rows_.size(); }
  const std::string& path() const noexcept { return path_; }

  // 1-based source line of data row `row`; 0 when provenance is unknown
  // (a document without line numbers, or an out-of-range row).
  std::size_t source_line(std::size_t row) const noexcept;
  // Context for error reporting on (row, column) — used by the dataset
  // loaders to attach file:line to their semantic validation errors.
  SourceContext context(std::size_t row, std::string_view column = {}) const;

  // Throws std::out_of_range for unknown columns or row index.
  std::size_t column_index(std::string_view name) const;
  const std::string& cell(std::size_t row, std::string_view column) const;
  // Throws util::Error(kParseError) with file/line/field context when the
  // cell does not parse as a number.
  double cell_double(std::size_t row, std::string_view column) const;

 private:
  std::vector<std::string> header_;
  std::vector<CsvRow> rows_;
  std::vector<std::size_t> lines_;  // per data row; empty = unknown
  std::string path_;
};

}  // namespace solarnet::util
