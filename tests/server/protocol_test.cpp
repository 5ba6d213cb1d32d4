// Request-protocol tests: the NDJSON parser's grammar and validation, and
// the canonical cache/engine key properties the result cache's correctness
// rests on — identical scenarios collide, distinct scenarios never do, and
// the fields the determinism contract says cannot change response bytes
// (engine, thread count) are excluded from the cache key.
#include "server/request.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/checkpoint.h"
#include "util/status.h"

namespace solarnet::server {
namespace {

ScenarioRequest parse(const std::string& line) {
  ScenarioRequest req;
  parse_request(line, req);
  return req;
}

std::string cache_key(const ScenarioRequest& req, std::uint64_t fp = 1,
                      std::uint64_t salt = 2) {
  util::ByteWriter key;
  build_cache_key(req, fp, salt, key);
  return key.data();
}

std::string engine_key(const ScenarioRequest& req, std::uint64_t fp = 1,
                       std::uint64_t salt = 2) {
  util::ByteWriter key;
  build_engine_key(req, fp, salt, key);
  return key.data();
}

TEST(ServeProtocol, EmptyObjectYieldsDefaults) {
  const ScenarioRequest req = parse("{}");
  EXPECT_EQ(req.kind, RequestKind::kReport);
  EXPECT_EQ(req.network, "submarine");
  EXPECT_EQ(req.model, "s1");
  EXPECT_DOUBLE_EQ(req.uniform_p, 0.01);
  EXPECT_DOUBLE_EQ(req.spacing_km, 150.0);
  EXPECT_EQ(req.trials, 10u);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.quorum, 2u);
  EXPECT_DOUBLE_EQ(req.dns_threshold_pct, 10.0);
  EXPECT_EQ(req.engine, sim::TrialEngine::kAuto);
  EXPECT_TRUE(req.grid.empty());
}

TEST(ServeProtocol, ParsesEveryField) {
  const ScenarioRequest req = parse(
      R"({"cmd":"sweep","network":"intertubes","model":"uniform","p":0.25,)"
      R"("spacing":100.5,"trials":64,"seed":42,"quorum":3,)"
      R"("dns_threshold":20,"engine":"scalar","grid":[0.1,0.01,1]})");
  EXPECT_EQ(req.kind, RequestKind::kSweep);
  EXPECT_EQ(req.network, "intertubes");
  EXPECT_EQ(req.model, "uniform");
  EXPECT_DOUBLE_EQ(req.uniform_p, 0.25);
  EXPECT_DOUBLE_EQ(req.spacing_km, 100.5);
  EXPECT_EQ(req.trials, 64u);
  EXPECT_EQ(req.seed, 42u);
  EXPECT_EQ(req.quorum, 3u);
  EXPECT_DOUBLE_EQ(req.dns_threshold_pct, 20.0);
  EXPECT_EQ(req.engine, sim::TrialEngine::kScalar);
  EXPECT_EQ(req.grid, (std::vector<double>{0.01, 0.1, 1.0}));  // sorted
}

TEST(ServeProtocol, StatsAndShutdownCommands) {
  EXPECT_EQ(parse(R"({"cmd":"stats"})").kind, RequestKind::kStats);
  EXPECT_EQ(parse(R"({"cmd":"shutdown"})").kind, RequestKind::kShutdown);
}

TEST(ServeProtocol, WhitespaceTolerated) {
  const ScenarioRequest req =
      parse("  { \"cmd\" : \"report\" ,\t\"trials\" : 5 }  ");
  EXPECT_EQ(req.kind, RequestKind::kReport);
  EXPECT_EQ(req.trials, 5u);
}

TEST(ServeProtocol, ReusedRequestIsFullyReset) {
  ScenarioRequest req;
  parse_request(R"({"trials":99,"grid":[0.5],"engine":"scalar"})", req);
  parse_request("{}", req);
  EXPECT_EQ(req.trials, 10u);
  EXPECT_TRUE(req.grid.empty());
  EXPECT_EQ(req.engine, sim::TrialEngine::kAuto);
}

void expect_rejected(const std::string& line, util::ErrorCode code,
                     const std::string& field = "") {
  ScenarioRequest req;
  try {
    parse_request(line, req);
    FAIL() << "expected rejection of: " << line;
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), code) << line;
    if (!field.empty()) {
      EXPECT_EQ(e.context().field, field) << line;
    }
  }
}

TEST(ServeProtocol, RejectsMalformedAndInvalid) {
  expect_rejected("", util::ErrorCode::kParseError);
  expect_rejected("report", util::ErrorCode::kParseError);
  expect_rejected(R"({"cmd":"report")", util::ErrorCode::kParseError);
  expect_rejected(R"({"cmd":"report"} extra)", util::ErrorCode::kParseError);
  expect_rejected(R"({"trials":"ten"})", util::ErrorCode::kParseError);
  expect_rejected(R"({"cmd":"re\"port"})", util::ErrorCode::kParseError);

  expect_rejected(R"({"frobnicate":1})", util::ErrorCode::kInvalidArgument,
                  "frobnicate");
  // Named as unknown whatever the value's JSON type.
  expect_rejected(R"({"frobnicate":"x"})", util::ErrorCode::kInvalidArgument,
                  "frobnicate");
  expect_rejected(R"({"frobnicate":[1]})", util::ErrorCode::kInvalidArgument,
                  "frobnicate");
  expect_rejected(R"({"cmd":"dance"})", util::ErrorCode::kInvalidArgument,
                  "cmd");
  expect_rejected(R"({"network":"mars"})", util::ErrorCode::kInvalidArgument,
                  "network");
  expect_rejected(R"({"model":"s3"})", util::ErrorCode::kInvalidArgument,
                  "model");
  expect_rejected(R"({"engine":"gpu"})", util::ErrorCode::kInvalidArgument,
                  "engine");
  expect_rejected(R"({"p":1.5})", util::ErrorCode::kInvalidArgument, "p");
  expect_rejected(R"({"p":-0.1})", util::ErrorCode::kInvalidArgument, "p");
  expect_rejected(R"({"spacing":0})", util::ErrorCode::kInvalidArgument,
                  "spacing");
  expect_rejected(R"({"trials":0})", util::ErrorCode::kInvalidArgument,
                  "trials");
  expect_rejected(R"({"trials":2.5})", util::ErrorCode::kInvalidArgument,
                  "trials");
  expect_rejected(R"({"seed":-1})", util::ErrorCode::kInvalidArgument,
                  "seed");
  expect_rejected(R"({"quorum":0})", util::ErrorCode::kInvalidArgument,
                  "quorum");
  expect_rejected(R"({"dns_threshold":101})",
                  util::ErrorCode::kInvalidArgument, "dns_threshold");
  expect_rejected(R"({"grid":[2]})", util::ErrorCode::kInvalidArgument,
                  "grid");
}

TEST(ServeProtocol, SpacingBelowTenKmIsRejected) {
  // 1e-300 km would overflow the repeater count; 0.001 km would ask for
  // about 1.7e9 submarine repeaters.
  for (const char* line : {R"({"spacing":1e-300})", R"({"spacing":0.001})",
                           R"({"spacing":9.99})"}) {
    expect_rejected(line, util::ErrorCode::kInvalidArgument, "spacing");
  }
  for (const double km : {10.0, 150.0}) {
    ScenarioRequest req;
    parse_request(R"({"spacing":)" + std::to_string(km) + "}", req);
    EXPECT_EQ(req.spacing_km, km);
  }
}

TEST(ServeProtocol, RejectsOversizedGrid) {
  std::string line = R"({"grid":[0)";
  for (int i = 0; i < 4096; ++i) line += ",0.5";
  line += "]}";
  expect_rejected(line, util::ErrorCode::kInvalidArgument, "grid");
}

// --- cache-key properties ---------------------------------------------------

ScenarioRequest base_request() {
  ScenarioRequest req;
  req.model = "uniform";
  return req;
}

TEST(ServeProtocol, IdenticalRequestsShareTheCacheKey) {
  EXPECT_EQ(cache_key(base_request()), cache_key(base_request()));
  // Two grid permutations are the same scenario after canonicalization.
  EXPECT_EQ(cache_key(parse(R"({"cmd":"sweep","grid":[0.1,0.01,0.5]})")),
            cache_key(parse(R"({"cmd":"sweep","grid":[0.5,0.1,0.01]})")));
}

TEST(ServeProtocol, EveryScenarioFieldSeparatesCacheKeys) {
  // One mutation per scenario-shaping field; all resulting keys must be
  // pairwise distinct (and distinct from the base).
  std::vector<std::string> keys;
  keys.push_back(cache_key(base_request()));
  {
    ScenarioRequest r = base_request();
    r.kind = RequestKind::kSweep;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.model = "s1";
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.model = "s2";
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.uniform_p = 0.02;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.spacing_km = 151.0;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.trials = 11;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.seed = 8;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.quorum = 3;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.dns_threshold_pct = 11.0;
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.kind = RequestKind::kSweep;
    r.grid = {0.01};
    keys.push_back(cache_key(r));
  }
  {
    ScenarioRequest r = base_request();
    r.kind = RequestKind::kSweep;
    r.grid = {0.01, 0.1};
    keys.push_back(cache_key(r));
  }
  keys.push_back(cache_key(base_request(), /*fp=*/99));   // network content
  keys.push_back(cache_key(base_request(), 1, /*salt=*/99));  // observer set
  for (std::size_t a = 0; a < keys.size(); ++a) {
    for (std::size_t b = a + 1; b < keys.size(); ++b) {
      EXPECT_NE(keys[a], keys[b]) << "variants " << a << " and " << b;
    }
  }
}

TEST(ServeProtocol, EngineAndNonScenarioFieldsDoNotSplitTheCacheKey) {
  // The batch and scalar engines are bit-identical, so the engine choice
  // must map to the same cache entry.
  ScenarioRequest scalar = base_request();
  scalar.engine = sim::TrialEngine::kScalar;
  EXPECT_EQ(cache_key(base_request()), cache_key(scalar));

  // The network *name* is not folded — the content fingerprint is the
  // identity (content-addressing: equal content, equal results).
  ScenarioRequest renamed = base_request();
  renamed.network = "itu";
  EXPECT_EQ(cache_key(base_request()), cache_key(renamed));

  // p is canonicalized to 0 for non-uniform models, where it is inert.
  ScenarioRequest s1_a = base_request();
  s1_a.model = "s1";
  ScenarioRequest s1_b = s1_a;
  s1_b.uniform_p = 0.7;
  EXPECT_EQ(cache_key(s1_a), cache_key(s1_b));
}

TEST(ServeProtocol, ParsesTrafficAndTimelineFields) {
  // Defaults first: traffic off, zero sampled pairs, the documented
  // timeline axis defaults.
  const ScenarioRequest defaults = parse("{}");
  EXPECT_FALSE(defaults.traffic);
  EXPECT_EQ(defaults.demand_pairs, 0u);
  EXPECT_DOUBLE_EQ(defaults.timeline_step_hours, 6.0);
  EXPECT_EQ(defaults.repair_steps, 24u);
  EXPECT_DOUBLE_EQ(defaults.repair_step_days, 15.0);
  EXPECT_EQ(defaults.ships, 60u);
  EXPECT_DOUBLE_EQ(defaults.partition_threshold_pct, 50.0);

  const ScenarioRequest req = parse(
      R"({"cmd":"timeline","traffic":1,"demand_pairs":500,"step_hours":3,)"
      R"("repair_steps":12,"repair_step_days":10,"ships":30,)"
      R"("partition_threshold":40})");
  EXPECT_EQ(req.kind, RequestKind::kTimeline);
  EXPECT_TRUE(req.traffic);
  EXPECT_EQ(req.demand_pairs, 500u);
  EXPECT_DOUBLE_EQ(req.timeline_step_hours, 3.0);
  EXPECT_EQ(req.repair_steps, 12u);
  EXPECT_DOUBLE_EQ(req.repair_step_days, 10.0);
  EXPECT_EQ(req.ships, 30u);
  EXPECT_DOUBLE_EQ(req.partition_threshold_pct, 40.0);
}

TEST(ServeProtocol, RejectsBadTrafficAndTimelineFields) {
  expect_rejected(R"({"traffic":2})", util::ErrorCode::kInvalidArgument,
                  "traffic");
  expect_rejected(R"({"traffic":0.5})", util::ErrorCode::kInvalidArgument,
                  "traffic");
  expect_rejected(R"({"demand_pairs":-1})",
                  util::ErrorCode::kInvalidArgument, "demand_pairs");
  expect_rejected(R"({"demand_pairs":10000001})",
                  util::ErrorCode::kInvalidArgument, "demand_pairs");
  expect_rejected(R"({"step_hours":0})", util::ErrorCode::kInvalidArgument,
                  "step_hours");
  expect_rejected(R"({"step_hours":73})", util::ErrorCode::kInvalidArgument,
                  "step_hours");
  // More than 4096 storm steps over the 72 h storm: 4116 and 72002 steps.
  expect_rejected(R"({"step_hours":0.0175})",
                  util::ErrorCode::kInvalidArgument, "step_hours");
  expect_rejected(R"({"step_hours":0.001})",
                  util::ErrorCode::kInvalidArgument, "step_hours");
  expect_rejected(R"({"step_hours":1e-300})",
                  util::ErrorCode::kInvalidArgument, "step_hours");
  // 4092 steps: within the cap.
  EXPECT_DOUBLE_EQ(parse(R"({"step_hours":0.0176})").timeline_step_hours,
                   0.0176);
  expect_rejected(R"({"repair_steps":0})",
                  util::ErrorCode::kInvalidArgument, "repair_steps");
  expect_rejected(R"({"repair_steps":4097})",
                  util::ErrorCode::kInvalidArgument, "repair_steps");
  expect_rejected(R"({"repair_steps":2.5})",
                  util::ErrorCode::kInvalidArgument, "repair_steps");
  expect_rejected(R"({"repair_step_days":0})",
                  util::ErrorCode::kInvalidArgument, "repair_step_days");
  expect_rejected(R"({"repair_step_days":366})",
                  util::ErrorCode::kInvalidArgument, "repair_step_days");
  expect_rejected(R"({"ships":0})", util::ErrorCode::kInvalidArgument,
                  "ships");
  expect_rejected(R"({"ships":100001})", util::ErrorCode::kInvalidArgument,
                  "ships");
  expect_rejected(R"({"partition_threshold":-1})",
                  util::ErrorCode::kInvalidArgument, "partition_threshold");
  expect_rejected(R"({"partition_threshold":101})",
                  util::ErrorCode::kInvalidArgument, "partition_threshold");
}

TEST(ServeProtocol, TrafficFieldsSeparateBothKeys) {
  // traffic/demand_pairs shape the response body of every command, so they
  // are folded unconditionally — cache key AND engine key must split.
  ScenarioRequest with_traffic = base_request();
  with_traffic.traffic = true;
  EXPECT_NE(cache_key(base_request()), cache_key(with_traffic));
  EXPECT_NE(engine_key(base_request()), engine_key(with_traffic));

  ScenarioRequest sampled = with_traffic;
  sampled.demand_pairs = 500;
  EXPECT_NE(cache_key(with_traffic), cache_key(sampled));
  EXPECT_NE(engine_key(with_traffic), engine_key(sampled));

  ScenarioRequest more = sampled;
  more.demand_pairs = 501;
  EXPECT_NE(cache_key(sampled), cache_key(more));
}

TEST(ServeProtocol, TrafficAcceptsJsonBooleans) {
  EXPECT_TRUE(parse(R"({"traffic":true})").traffic);
  EXPECT_FALSE(parse(R"({"traffic":false})").traffic);
  EXPECT_TRUE(parse(R"({"traffic": true ,"trials":4})").traffic);
  // true and 1 (false and 0) are one scenario: same cache and engine key.
  EXPECT_EQ(cache_key(parse(R"({"traffic":true})")),
            cache_key(parse(R"({"traffic":1})")));
  EXPECT_EQ(engine_key(parse(R"({"traffic":true})")),
            engine_key(parse(R"({"traffic":1})")));
  EXPECT_EQ(cache_key(parse(R"({"traffic":false})")),
            cache_key(parse(R"({"traffic":0})")));
  expect_rejected(R"({"traffic":tru})", util::ErrorCode::kParseError);
  expect_rejected(R"({"traffic":"true"})", util::ErrorCode::kParseError);
}

TEST(ServeProtocol, DemandPairsTurnTrafficOn) {
  // As --demand-pairs does on the CLI: N > 0 implies the traffic section,
  // so both spellings are one scenario.
  const ScenarioRequest implied = parse(R"({"demand_pairs":64})");
  const ScenarioRequest explicit_on =
      parse(R"({"traffic":1,"demand_pairs":64})");
  EXPECT_TRUE(implied.traffic);
  EXPECT_EQ(cache_key(implied), cache_key(explicit_on));
  EXPECT_EQ(engine_key(implied), engine_key(explicit_on));
  EXPECT_TRUE(parse(R"({"traffic":false,"demand_pairs":64})").traffic);
  // Zero pairs selects the gravity matrix and leaves traffic as given.
  EXPECT_FALSE(parse(R"({"demand_pairs":0})").traffic);
  EXPECT_EQ(cache_key(parse(R"({"demand_pairs":0})")),
            cache_key(parse("{}")));
}

TEST(ServeProtocol, TimelineFieldsSeparateKeys) {
  ScenarioRequest base = base_request();
  base.kind = RequestKind::kTimeline;

  // Same parameters, different command: never the same entry.
  EXPECT_NE(cache_key(base), cache_key(base_request()));
  EXPECT_NE(engine_key(base), engine_key(base_request()));

  // Every timeline-axis field must split both the cache key and the
  // resident-engine pool key (the pool is keyed without trials/seed, so a
  // collision would serve a wrong axis).
  std::vector<std::string> cache_keys = {cache_key(base)};
  std::vector<std::string> engine_keys = {engine_key(base)};
  const auto push = [&](const ScenarioRequest& r) {
    cache_keys.push_back(cache_key(r));
    engine_keys.push_back(engine_key(r));
  };
  {
    ScenarioRequest r = base;
    r.timeline_step_hours = 3.0;
    push(r);
  }
  {
    ScenarioRequest r = base;
    r.repair_steps = 12;
    push(r);
  }
  {
    ScenarioRequest r = base;
    r.repair_step_days = 10.0;
    push(r);
  }
  {
    ScenarioRequest r = base;
    r.ships = 30;
    push(r);
  }
  {
    ScenarioRequest r = base;
    r.partition_threshold_pct = 40.0;
    push(r);
  }
  for (std::size_t a = 0; a < cache_keys.size(); ++a) {
    for (std::size_t b = a + 1; b < cache_keys.size(); ++b) {
      EXPECT_NE(cache_keys[a], cache_keys[b])
          << "cache variants " << a << " and " << b;
      EXPECT_NE(engine_keys[a], engine_keys[b])
          << "engine variants " << a << " and " << b;
    }
  }

  // Trials/seed still reuse the timeline engine bundle.
  ScenarioRequest rerun = base;
  rerun.trials = 4096;
  rerun.seed = 99;
  EXPECT_EQ(engine_key(base), engine_key(rerun));
  EXPECT_NE(cache_key(base), cache_key(rerun));
}

TEST(ServeProtocol, TimelineFieldsAreInertOutsideTimelineRequests) {
  // Kind-gated folding: a report ignores the timeline axis, so mutating it
  // must not split report cache entries.
  ScenarioRequest tweaked = base_request();
  tweaked.timeline_step_hours = 3.0;
  tweaked.repair_steps = 12;
  tweaked.ships = 30;
  EXPECT_EQ(cache_key(base_request()), cache_key(tweaked));
  EXPECT_EQ(engine_key(base_request()), engine_key(tweaked));
}

TEST(ServeProtocol, OnlyReportEngineKeysFoldTheEngine) {
  // Sweep and timeline engines never read the engine choice, so requests
  // differing only in `engine` reuse one pooled engine; report requests,
  // whose pipeline does read it, still get one engine each.
  for (const char* cmd : {"sweep", "timeline"}) {
    const std::string kind = std::string(R"({"cmd":")") + cmd + '"';
    const ScenarioRequest automatic = parse(kind + "}");
    const ScenarioRequest scalar = parse(kind + R"(,"engine":"scalar"})");
    EXPECT_EQ(engine_key(automatic), engine_key(scalar)) << cmd;
    EXPECT_EQ(cache_key(automatic), cache_key(scalar)) << cmd;
  }
  EXPECT_NE(engine_key(parse(R"({"cmd":"report"})")),
            engine_key(parse(R"({"cmd":"report","engine":"scalar"})")));
  EXPECT_EQ(cache_key(parse(R"({"cmd":"report"})")),
            cache_key(parse(R"({"cmd":"report","engine":"scalar"})")));
}

TEST(ServeProtocol, EngineKeyDropsTrialBudgetButKeepsEngine) {
  // Same scenario with a different trial budget or seed reuses the
  // resident engine bundle...
  ScenarioRequest more_trials = base_request();
  more_trials.trials = 4096;
  more_trials.seed = 1234;
  EXPECT_EQ(engine_key(base_request()), engine_key(more_trials));
  // ...but the engine selection and the scenario shape still split pools.
  ScenarioRequest scalar = base_request();
  scalar.engine = sim::TrialEngine::kScalar;
  EXPECT_NE(engine_key(base_request()), engine_key(scalar));
  ScenarioRequest wider = base_request();
  wider.spacing_km = 50.0;
  EXPECT_NE(engine_key(base_request()), engine_key(wider));
  EXPECT_NE(engine_key(base_request(), /*fp=*/99), engine_key(base_request()));
}

}  // namespace
}  // namespace solarnet::server
