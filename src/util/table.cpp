#include "util/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace solarnet::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable: row width " +
                                std::to_string(cells.size()) +
                                " != header width " +
                                std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto pad = [&](const std::string& s, std::size_t width, bool left) {
    std::string out;
    const std::size_t fill = width > s.size() ? width - s.size() : 0;
    if (!left) out.append(fill, ' ');
    out += s;
    if (left) out.append(fill, ' ');
    return out;
  };

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      os << pad(row[c], widths[c], c == 0);
    }
    os << '\n';
  };

  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 2 * (widths.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void TextTable::print(std::ostream& os) const { os << render(); }

void print_banner(std::ostream& os, const std::string& title) {
  os << "\n==== " << title << " ====\n";
}

}  // namespace solarnet::util
