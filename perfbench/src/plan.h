// Workload plans written by perfbench/run.py: one operation per line,
//   <tag> <due_ns> <payload>
// where the payload runs to the end of the line (a request line for the
// server workloads, model arguments for report_cli).
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct PlanOp {
  char tag = '?';
  std::int64_t due_ns = 0;
  std::string payload;
};

inline std::vector<PlanOp> read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open plan " + path);
  std::vector<PlanOp> ops;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find(' ');
    const std::size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
    if (a != 1 || b == std::string::npos) {
      throw std::runtime_error("malformed plan line: " + line);
    }
    PlanOp op;
    op.tag = line[0];
    op.due_ns = std::stoll(line.substr(a + 1, b - a - 1));
    op.payload = line.substr(b + 1);
    ops.push_back(std::move(op));
  }
  return ops;
}

// FNV-1a, 64-bit: the response digest both the client and run.py compute.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
