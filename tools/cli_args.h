// Minimal flag parser for the solarnet CLI: --key value and --flag
// switches after a positional subcommand, plus the mapping of the
// scenario flags onto the served request.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "server/request.h"

namespace solarnet::cli {

class Args {
 public:
  // argv[1] is the subcommand; the rest are --key [value] pairs. A --key
  // followed by another --key (or end of argv) is a boolean switch.
  static Args parse(int argc, char** argv);

  const std::string& command() const noexcept { return command_; }
  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;
  // A number, or `fallback` when the flag is absent or bare. Throws
  // util::Error naming the flag when it is not finite.
  double get_double_or(const std::string& key, double fallback) const;

  // A count, size or seed, or `fallback` when the flag is absent or bare.
  // Throws util::Error naming the flag unless it is an integer >= 0.
  std::size_t get_count_or(const std::string& key,
                           std::size_t fallback) const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // "" for bare switches
};

// --threads: 0 (all cores, the default when absent or bare) up to
// sim::kMaxReasonableThreads. Throws util::Error naming the flag otherwise.
std::size_t thread_count(const Args& args);

// The request a report, sweep or timeline invocation describes: the verb's
// CLI defaults (sweep seed 1859, timeline 64 trials), then each of its
// scenario flags through server::set_field (a bare flag keeps the default),
// then server::finish_request.
server::ScenarioRequest scenario_request(const Args& args,
                                         server::RequestKind verb);

}  // namespace solarnet::cli
