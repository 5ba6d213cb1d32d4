// `solarnet report` and `solarnet serve` answer the same question with the
// same numbers. Both front ends build their submarine pass as a
// core::ReportBundle, so for every request in the matrix below — three
// models, traffic off / gravity / sampled demand pairs, two seeds — each
// statistic both surfaces carry must be bit-identical: the service sweeps,
// DNS resolution, country isolation, the traffic section, and the
// submarine cables/nodes means and standard deviations.
#include <gtest/gtest.h>

#include <charconv>
#include <string>
#include <string_view>

#include "core/scenario.h"
#include "core/world.h"
#include "server/request.h"
#include "server/scenario_service.h"

namespace solarnet::server {
namespace {

const core::World& light_world() {
  static const core::World world = [] {
    core::WorldConfig cfg;
    cfg.submarine.total_cables = 150;
    cfg.submarine.target_landing_points = 350;
    cfg.submarine.cables_without_length = 5;
    cfg.intertubes.total_links = 120;
    cfg.intertubes.target_nodes = 70;
    cfg.intertubes.short_links = 55;
    cfg.build_itu = false;
    cfg.build_routers = false;
    cfg.build_population = false;
    cfg.dns.instance_count = 120;
    cfg.ixps.count = 50;
    return core::World::generate(cfg);
  }();
  return world;
}

// The double printed right after `"<metric>":{"mean":` (or, with
// `stddev`, after that stats object's `"stddev":`). Bodies print doubles
// as shortest round-trip decimals, so parsing them back is exact.
double stat(const std::string& body, const std::string& metric,
            bool stddev) {
  std::size_t at = body.find("\"" + metric + "\":{\"mean\":");
  EXPECT_NE(at, std::string::npos) << metric << " in " << body;
  at = body.find(stddev ? "\"stddev\":" : "\"mean\":", at);
  at = body.find(':', at) + 1;
  double value = 0.0;
  std::from_chars(body.data() + at, body.data() + body.size(), value);
  return value;
}

// Everything from the services array on: services, DNS, isolation and
// (when present) traffic — the sections both surfaces compute in full.
std::string_view from_services(const std::string& body) {
  return std::string_view(body).substr(body.find(",\"services\":"));
}

TEST(ReportParity, CliAndServedReportsAgreeBitForBit) {
  const core::World& world = light_world();
  const core::ScenarioRunner runner(world);
  ScenarioService service(ServiceContext::from_world(world));
  RequestScratch scratch;

  struct Model {
    const char* json;
    std::unique_ptr<gic::RepeaterFailureModel> model;
  };
  Model models[] = {{R"("model":"s1")", gic::make_s1()},
                    {R"("model":"s2")", gic::make_s2()},
                    {R"("model":"uniform","p":0.3)", gic::make_uniform(0.3)}};
  struct Traffic {
    const char* json;
    bool traffic;
    std::size_t demand_pairs;
  };
  const Traffic traffics[] = {
      {"", false, 0}, {R"(,"traffic":true)", true, 0},
      {R"(,"demand_pairs":64)", true, 64}};

  for (const Model& m : models) {
    for (const Traffic& t : traffics) {
      for (const std::uint64_t seed : {3u, 11u}) {
        const std::string line = std::string(R"({"cmd":"report",)") +
                                 m.json + R"(,"trials":40,"seed":)" +
                                 std::to_string(seed) + t.json + "}";
        SCOPED_TRACE(line);
        const Body served = service.handle_line(line, scratch);
        ASSERT_NE(served->find("\"ok\":true"), std::string::npos) << *served;

        core::ScenarioOptions opts;
        opts.trials = 40;
        opts.seed = seed;
        opts.traffic = t.traffic;
        opts.traffic_demand_pairs = t.demand_pairs;
        const analysis::ResilienceReport cli = runner.run(*m.model, opts);
        ASSERT_EQ(cli.traffic.size(), t.traffic ? 1u : 0u);

        ScenarioRequest req;
        parse_request(line, req);
        const std::string cli_body = serialize_report_body(
            req, {}, cli.service_availability.at(0),
            cli.service_availability.at(1), cli.dns_resolution,
            cli.country_isolation,
            cli.traffic.empty() ? nullptr : &cli.traffic[0]);
        EXPECT_EQ(from_services(cli_body), from_services(*served));

        const analysis::BandSweepResult& sub = cli.failure_results.at(0);
        ASSERT_NE(sub.model_name.find("[submarine]"), std::string::npos);
        EXPECT_EQ(sub.cables_failed_mean_pct,
                  stat(*served, "cables_failed_pct", false));
        EXPECT_EQ(sub.cables_failed_sd_pct,
                  stat(*served, "cables_failed_pct", true));
        EXPECT_EQ(sub.nodes_unreachable_mean_pct,
                  stat(*served, "nodes_unreachable_pct", false));
        EXPECT_EQ(sub.nodes_unreachable_sd_pct,
                  stat(*served, "nodes_unreachable_pct", true));
      }
    }
  }
}

}  // namespace
}  // namespace solarnet::server
