// The CLI's report, sweep and timeline flags describe a scenario through
// the same server::ScenarioRequest the served JSON line does. Each argv
// below and its JSON twin must give identical cache and engine keys — so
// the two front ends build the same bundle and compute the same numbers —
// and each invalid flag value must fail with the served field's error.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cli_args.h"
#include "server/request.h"
#include "util/checkpoint.h"
#include "util/status.h"

namespace solarnet::cli {
namespace {

using server::RequestKind;

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "solarnet");
  return Args::parse(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data()));
}

server::ScenarioRequest from_json(const char* line) {
  server::ScenarioRequest req;
  server::parse_request(line, req);
  return req;
}

std::string cache_key(const server::ScenarioRequest& req) {
  util::ByteWriter key;
  server::build_cache_key(req, 1, 2, key);
  return key.data();
}

std::string engine_key(const server::ScenarioRequest& req) {
  util::ByteWriter key;
  server::build_engine_key(req, 1, 2, key);
  return key.data();
}

struct Row {
  RequestKind verb;
  std::vector<const char*> argv;
  const char* json;
};

TEST(CliRequest, FlagsAndJsonLineGiveTheSameKeys) {
  const Row rows[] = {
      {RequestKind::kReport, {"report"}, R"({"cmd":"report"})"},
      {RequestKind::kReport,
       {"report", "--s2", "--trials", "16", "--seed", "3", "--threads", "4"},
       R"({"model":"s2","trials":16,"seed":3})"},
      {RequestKind::kReport,
       {"report", "--uniform", "0.25", "--spacing", "100"},
       R"({"model":"uniform","p":0.25,"spacing":100})"},
      {RequestKind::kReport, {"report", "--uniform"}, R"({"model":"uniform"})"},
      {RequestKind::kReport, {"report", "--s1", "--s2"}, R"({"model":"s2"})"},
      {RequestKind::kReport,
       {"report", "--s2", "--uniform", "0.1"},
       R"({"model":"uniform","p":0.1})"},
      {RequestKind::kReport,
       {"report", "--quorum", "3", "--dns-threshold", "20"},
       R"({"quorum":3,"dns_threshold":20})"},
      {RequestKind::kReport, {"report", "--traffic"}, R"({"traffic":true})"},
      {RequestKind::kReport,
       {"report", "--demand-pairs", "64"},
       R"({"demand_pairs":64})"},
      // --demand-pairs 0 turns the traffic section on with the gravity
      // matrix.
      {RequestKind::kReport,
       {"report", "--demand-pairs", "0"},
       R"({"traffic":1,"demand_pairs":0})"},
      {RequestKind::kReport,
       {"report", "--storm", "1989", "--checkpoint", "ck"},
       R"({"cmd":"report"})"},
      // A verb ignores the flags it does not read.
      {RequestKind::kReport,
       {"report", "--ships", "-1", "--grid", "2", "--network", "itu"},
       R"({"cmd":"report"})"},
      {RequestKind::kSweep, {"sweep"}, R"({"cmd":"sweep","seed":1859})"},
      {RequestKind::kSweep,
       {"sweep", "--grid", "0.5,0.01,0.1", "--network", "intertubes",
        "--trials", "8"},
       R"({"cmd":"sweep","grid":[0.01,0.1,0.5],"network":"intertubes",)"
       R"("trials":8,"seed":1859})"},
      {RequestKind::kSweep,
       {"sweep", "--grid", "0.5,0.5,0.1", "--seed", "5", "--spacing", "75"},
       R"({"cmd":"sweep","grid":[0.5,0.1,0.5],"seed":5,"spacing":75})"},
      {RequestKind::kSweep,
       {"sweep", "--s2", "--quorum", "0"},
       R"({"cmd":"sweep","seed":1859})"},
      {RequestKind::kTimeline, {"timeline"},
       R"({"cmd":"timeline","trials":64})"},
      {RequestKind::kTimeline,
       {"timeline", "--s2", "--step", "12", "--repair-steps", "8",
        "--repair-step-days", "10", "--ships", "40",
        "--partition-threshold", "40", "--trials", "8", "--seed", "3"},
       R"({"cmd":"timeline","model":"s2","step_hours":12,"repair_steps":8,)"
       R"("repair_step_days":10,"ships":40,"partition_threshold":40,)"
       R"("trials":8,"seed":3})"},
      {RequestKind::kTimeline,
       {"timeline", "--uniform", "0.02", "--lead-hours", "13"},
       R"({"cmd":"timeline","model":"uniform","p":0.02,"trials":64})"},
      {RequestKind::kTimeline,
       {"timeline", "--network", "intertubes", "--trials", "6"},
       R"({"cmd":"timeline","network":"intertubes","trials":6})"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.json);
    const server::ScenarioRequest cli = scenario_request(parse(row.argv),
                                                         row.verb);
    const server::ScenarioRequest served = from_json(row.json);
    EXPECT_EQ(cache_key(cli), cache_key(served));
    EXPECT_EQ(engine_key(cli), engine_key(served));
    // Keys fold the network's content, not its name.
    EXPECT_EQ(cli.network, served.network);
  }
}

util::Status failure(const std::function<void()>& run) {
  try {
    run();
  } catch (const util::Error& e) {
    return e.status();
  }
  return util::Status::ok();
}

TEST(CliRequest, InvalidValuesFailAsTheServedFieldDoes) {
  // Negative counts must not wrap into huge ones (a repair axis that never
  // ends, a std::vector length error, a wrapped seed), and a percentage
  // must stay within [0, 100].
  const Row rows[] = {
      {RequestKind::kTimeline,
       {"timeline", "--trials", "2", "--repair-steps", "-1"},
       R"({"cmd":"timeline","trials":2,"repair_steps":-1})"},
      {RequestKind::kTimeline, {"timeline", "--ships", "-1"},
       R"({"ships":-1})"},
      {RequestKind::kReport, {"report", "--demand-pairs", "-1"},
       R"({"demand_pairs":-1})"},
      {RequestKind::kReport, {"report", "--seed", "-5"}, R"({"seed":-5})"},
      {RequestKind::kReport, {"report", "--dns-threshold", "500"},
       R"({"dns_threshold":500})"},
      {RequestKind::kReport, {"report", "--quorum", "0"}, R"({"quorum":0})"},
      {RequestKind::kReport, {"report", "--trials", "0"}, R"({"trials":0})"},
      {RequestKind::kReport, {"report", "--trials", "2.5"},
       R"({"trials":2.5})"},
      {RequestKind::kReport, {"report", "--seed", "1e16"},
       R"({"seed":1e16})"},
      {RequestKind::kReport, {"report", "--spacing", "0"},
       R"({"spacing":0})"},
      {RequestKind::kReport, {"report", "--spacing", "0.001"},
       R"({"spacing":0.001})"},
      {RequestKind::kReport, {"report", "--uniform", "1.5"},
       R"({"model":"uniform","p":1.5})"},
      {RequestKind::kSweep, {"sweep", "--grid", "0.1,2"},
       R"({"grid":[0.1,2]})"},
      {RequestKind::kSweep, {"sweep", "--network", "mars"},
       R"({"network":"mars"})"},
      {RequestKind::kTimeline, {"timeline", "--step", "73"},
       R"({"step_hours":73})"},
      {RequestKind::kTimeline, {"timeline", "--repair-step-days", "0"},
       R"({"repair_step_days":0})"},
      {RequestKind::kTimeline, {"timeline", "--partition-threshold", "101"},
       R"({"partition_threshold":101})"},
      {RequestKind::kTimeline, {"timeline", "--repair-steps", "4097"},
       R"({"repair_steps":4097})"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.json);
    const util::Status cli =
        failure([&] { scenario_request(parse(row.argv), row.verb); });
    const util::Status served = failure([&] { from_json(row.json); });
    ASSERT_FALSE(served.is_ok());
    EXPECT_EQ(cli.code(), served.code());
    EXPECT_EQ(cli.context().field, served.context().field);
    EXPECT_EQ(cli.to_string(), served.to_string());
  }
}

}  // namespace
}  // namespace solarnet::cli
