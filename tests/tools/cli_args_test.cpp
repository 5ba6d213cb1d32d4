#include "cli_args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace solarnet::cli {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "solarnet");
  return Args::parse(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data()));
}

TEST(Args, EmptyCommandLine) {
  const Args a = parse({});
  EXPECT_TRUE(a.command().empty());
  EXPECT_TRUE(a.keys().empty());
}

TEST(Args, CommandOnly) {
  const Args a = parse({"risk"});
  EXPECT_EQ(a.command(), "risk");
  EXPECT_FALSE(a.has("start"));
}

TEST(Args, KeyValuePairs) {
  const Args a = parse({"report", "--storm", "1989", "--trials", "5"});
  EXPECT_EQ(a.command(), "report");
  EXPECT_EQ(a.get_or("storm", "x"), "1989");
  EXPECT_EQ(a.get_int_or("trials", 0), 5);
}

TEST(Args, BareSwitches) {
  const Args a = parse({"report", "--s2", "--spacing", "100"});
  EXPECT_TRUE(a.has("s2"));
  EXPECT_EQ(a.get("s2").value(), "");
  EXPECT_DOUBLE_EQ(a.get_double_or("spacing", 0.0), 100.0);
}

TEST(Args, SwitchFollowedBySwitch) {
  const Args a = parse({"report", "--s1", "--s2"});
  EXPECT_TRUE(a.has("s1"));
  EXPECT_TRUE(a.has("s2"));
}

TEST(Args, DefaultsWhenMissing) {
  const Args a = parse({"risk"});
  EXPECT_EQ(a.get_or("start", "2026"), "2026");
  EXPECT_DOUBLE_EQ(a.get_double_or("years", 10.0), 10.0);
  EXPECT_EQ(a.get_int_or("trials", 10), 10);
  EXPECT_FALSE(a.get("missing").has_value());
}

TEST(Args, MalformedNumberThrows) {
  const Args a = parse({"risk", "--start", "soon"});
  EXPECT_THROW(a.get_double_or("start", 0.0), std::invalid_argument);
}

TEST(Args, KeysListsEverything) {
  const Args a = parse({"plan", "--from", "Miami", "--to", "Dakar"});
  const auto keys = a.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(Args, GetTrialsOrReturnsValueOrFallback) {
  EXPECT_EQ(parse({"risk", "--trials", "5000"}).get_trials_or(10), 5000u);
  EXPECT_EQ(parse({"risk"}).get_trials_or(10), 10u);
  EXPECT_EQ(parse({"risk", "--trials", "1"}).get_trials_or(10), 1u);
}

TEST(Args, GetTrialsOrRejectsNonPositiveCounts) {
  // --trials 0 used to be accepted and silently produced a run where every
  // statistic was an empty accumulator (reported as 0.0). Reject it with a
  // message that says why.
  for (const char* bad : {"0", "-3"}) {
    const Args a = parse({"risk", "--trials", bad});
    try {
      a.get_trials_or(10);
      FAIL() << "--trials " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--trials must be >= 1"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace solarnet::cli
