// The shipped `solarnet` binary on invalid numbers: each command line must
// exit 1 at once, with an error that names the flag or policy field.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

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
  };
  for (const auto& row : rows) {
    const CliRun run = run_cli(row.args);
    EXPECT_EQ(run.exit_code, 1) << row.args << "\n" << run.output;
    EXPECT_NE(run.output.find("error: "), std::string::npos) << row.args;
    EXPECT_NE(run.output.find(row.names), std::string::npos)
        << row.args << "\n" << run.output;
  }
}

}  // namespace
