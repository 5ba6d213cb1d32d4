#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace solarnet::util {

namespace {

bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

[[noreturn]] void throw_parse_error(const char* what, std::string_view s) {
  throw std::invalid_argument(std::string(what) + ": '" + std::string(s) + "'");
}

}  // namespace

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

double parse_double(std::string_view s) {
  const std::string_view t = trim(s);
  if (t.empty()) throw_parse_error("parse_double: empty", s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw_parse_error("parse_double: malformed", s);
  }
  return value;
}

std::string format_fixed(double value, int decimals) {
  if (decimals < 0) decimals = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace solarnet::util
