// ASCII table rendering for bench/example output. Every figure harness
// prints its series through this so the regenerated "rows" the paper reports
// are readable and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace solarnet::util {

// A simple column-aligned text table: the first column left-aligned, the
// others right-aligned.
//
//   TextTable t({"network", "p", "cables failed %"});
//   t.add_row({"submarine", "0.01", "14.9"});
//   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Number of cells must match the header width; throws otherwise.
  void add_row(std::vector<std::string> cells);

  std::string render() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner used by the figure harnesses:
//   ==== Figure 6(a): ... ====
void print_banner(std::ostream& os, const std::string& title);

}  // namespace solarnet::util
