// Small string helpers shared by CSV parsing, dataset loaders, and report
// formatting. Kept dependency-free and allocation-conscious (string_view in,
// string out only where ownership is needed).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace solarnet::util {

// Splits on a single-character delimiter; empty fields are preserved
// ("a,,b" -> {"a", "", "b"}). An empty input yields one empty field.
std::vector<std::string> split(std::string_view s, char delim);

// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

// Strict numeric parsing: the whole (trimmed) string must be consumed.
// Throws std::invalid_argument with the offending text on failure.
double parse_double(std::string_view s);

// printf-style helper for fixed-decimal formatting (e.g. "12.35").
std::string format_fixed(double value, int decimals);

}  // namespace solarnet::util
