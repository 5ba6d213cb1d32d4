// The shipped `solarnet` binary on invalid numbers: each command line must
// exit 1 at once, with an error that names the flag or policy field. And
// on a network flag: the CLI's timeline plays the network the served
// request names.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/strings.h"

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun run_cli(const std::string& args) {
  const std::string command = std::string(SOLARNET_CLI) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 256> buffer{};
  while (fgets(buffer.data(), static_cast<int>(buffer.size()), pipe)) {
    run.output += buffer.data();
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(CliExit, InvalidLeadHoursAndRiskWindowsExitOne) {
  const struct {
    const char* args;
    const char* names;
  } rows[] = {
      {"mitigate --lead-hours -3", "lead_time_hours"},
      {"mitigate --lead-hours nan", "--lead-hours"},
      {"timeline --trials 2 --lead-hours -1", "lead_time_hours"},
      {"risk --years 1e9", "--years"},
      {"risk --years inf", "--years"},
      {"risk --years -5", "--years"},
      {"risk --start nan", "--start"},
      // 2^44 MB is 2^64 bytes, one more than size_t holds.
      {"serve --cache-mb 17592186044416 < /dev/null", "--cache-mb"},
      // About 1.7e9 submarine repeaters.
      {"report --spacing 0.001", "spacing"},
      // 72,002 storm steps, over the 4096 cap.
      {"timeline --trials 1 --step 0.001", "step_hours"},
      // One past sim::kMaxReasonableThreads; rejected before any thread
      // starts.
      {"serve --threads 65537 < /dev/null", "--threads"},
      {"report --threads 65537", "--threads"},
  };
  for (const auto& row : rows) {
    const CliRun run = run_cli(row.args);
    EXPECT_EQ(run.exit_code, 1) << row.args << "\n" << run.output;
    EXPECT_NE(run.output.find("error: "), std::string::npos) << row.args;
    EXPECT_NE(run.output.find(row.names), std::string::npos)
        << row.args << "\n" << run.output;
  }
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The number after the first `key` at or after `at`; moves `at` past it.
double number_after(const std::string& body, const std::string& key,
                    std::size_t& at) {
  at = body.find(key, at);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << key << " in the served body";
    at = body.size();
    return 0.0;
  }
  at += key.size();
  return std::strtod(body.c_str() + at, nullptr);
}

TEST(CliServedParity, IntertubesTimelineMatchesTheServedBody) {
  const CliRun cli =
      run_cli("timeline --network intertubes --trials 6 --threads 1");
  ASSERT_EQ(cli.exit_code, 0) << cli.output;

  const std::string request = testing::TempDir() + "intertubes_timeline.ndjson";
  std::ofstream(request)
      << R"({"cmd":"timeline","network":"intertubes","trials":6})" << "\n";
  const CliRun served = run_cli("serve --threads 1 < " + request);
  ASSERT_EQ(served.exit_code, 0) << served.output;
  std::string body;
  for (const std::string& line : lines_of(served.output)) {
    if (line.rfind(R"({"ok":true)", 0) == 0) body = line;
  }
  ASSERT_FALSE(body.empty()) << served.output;

  // The served steps as the CLI's table prints them: hour, then the mean
  // cables dead, nodes unreachable and largest component shares.
  std::vector<std::vector<std::string>> want;
  for (std::size_t at = body.find(R"({"hour":)"); at != std::string::npos;
       at = body.find(R"({"hour":)", at)) {
    const double hour = number_after(body, R"({"hour":)", at);
    const double cables =
        number_after(body, R"("cables_dead_pct":{"mean":)", at);
    const double nodes =
        number_after(body, R"("nodes_unreachable_pct":{"mean":)", at);
    const double largest =
        number_after(body, R"("largest_component_pct":{"mean":)", at);
    want.push_back({solarnet::util::format_fixed(hour, 0),
                    solarnet::util::format_fixed(cables, 1),
                    solarnet::util::format_fixed(nodes, 1),
                    solarnet::util::format_fixed(largest, 1)});
  }
  std::size_t at = 0;
  const auto partitioned = static_cast<std::size_t>(
      number_after(body, R"("partitioned_trials":)", at));

  std::vector<std::vector<std::string>> got;
  bool in_table = false;
  std::string partition_line;
  for (const std::string& line : lines_of(cli.output)) {
    if (line.rfind("partition", 0) == 0) partition_line = line;
    if (!partition_line.empty()) continue;
    if (line.rfind("-----", 0) == 0) {
      in_table = true;
    } else if (in_table) {
      std::istringstream cells(line);
      got.emplace_back();
      for (std::string cell; cells >> cell;) got.back().push_back(cell);
    }
  }
  ASSERT_EQ(want.size(), 37u) << body;
  EXPECT_EQ(got, want) << cli.output;
  EXPECT_NE(partition_line.find("): " + std::to_string(partitioned) + "/6 "),
            std::string::npos)
      << partition_line;
}

}  // namespace
