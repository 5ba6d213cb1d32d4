#include "cli_args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/status.h"

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
  EXPECT_FALSE(a.has("trials"));
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
  EXPECT_EQ(a.get_count_or("trials", 0), 5u);
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
  EXPECT_EQ(a.get_count_or("trials", 10), 10u);
  EXPECT_FALSE(a.get("missing").has_value());
}

TEST(Args, MalformedNumberThrows) {
  const Args a = parse({"risk", "--start", "soon"});
  EXPECT_THROW(a.get_double_or("start", 0.0), std::invalid_argument);
}

TEST(Args, GetDoubleOrRejectsNonFiniteValues) {
  EXPECT_EQ(parse({"risk", "--years", "1e3"}).get_double_or("years", 10.0),
            1000.0);
  EXPECT_EQ(parse({"risk", "--years"}).get_double_or("years", 10.0), 10.0);
  for (const char* flag : {"start", "years", "lead-hours", "spacing"}) {
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity"}) {
      const Args a = parse({"risk", (std::string("--") + flag).c_str(), bad});
      try {
        a.get_double_or(flag, 1.0);
        FAIL() << "--" << flag << " " << bad << " was accepted";
      } catch (const util::Error& e) {
        EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
        EXPECT_EQ(e.context().field, std::string("--") + flag);
        EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Args, GetCountOrReturnsValueOrFallback) {
  EXPECT_EQ(parse({"repair", "--ships", "5000"}).get_count_or("ships", 60),
            5000u);
  EXPECT_EQ(parse({"repair"}).get_count_or("ships", 60), 60u);
  EXPECT_EQ(parse({"repair", "--ships"}).get_count_or("ships", 60), 60u);
  EXPECT_EQ(parse({"repair", "--ships", "0"}).get_count_or("ships", 60), 0u);
  EXPECT_EQ(parse({"serve", "--threads", " 4 "}).get_count_or("threads", 0),
            4u);
}

TEST(Args, GetCountOrRejectsNegativeAndNonIntegerValues) {
  // A negative value must not wrap into a huge count (a std::vector length
  // error, an unbounded cache, a checkpoint cadence that never fires).
  for (const char* flag : {"ships", "cables", "cache-mb", "threads",
                           "checkpoint-every", "seed"}) {
    for (const char* bad : {"-1", "2.5", "ten", "99999999999999999999999"}) {
      const Args a = parse({"repair", (std::string("--") + flag).c_str(), bad});
      try {
        a.get_count_or(flag, 1);
        FAIL() << "--" << flag << " " << bad << " was accepted";
      } catch (const util::Error& e) {
        EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
        EXPECT_EQ(e.context().field, std::string("--") + flag);
        EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Args, ThreadCountStopsAtTheEngineCeiling) {
  EXPECT_EQ(thread_count(parse({"report"})), 0u);
  EXPECT_EQ(thread_count(parse({"serve", "--threads", "65536"})), 65536u);
  try {
    thread_count(parse({"serve", "--threads", "65537"}));
    FAIL() << "--threads 65537 was accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(e.context().field, "--threads");
    EXPECT_NE(std::string(e.what()).find("65537"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace solarnet::cli
