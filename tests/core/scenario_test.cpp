#include "core/scenario.h"

#include <gtest/gtest.h>

namespace solarnet::core {
namespace {

const World& light_world() {
  static const World w = [] {
    WorldConfig cfg;
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
    return World::generate(cfg);
  }();
  return w;
}

TEST(ScenarioRunner, RunProducesFullReport) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 5;
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const analysis::ResilienceReport report = runner.run(s1, opts);

  EXPECT_NE(report.title.find("S1"), std::string::npos);
  EXPECT_EQ(report.length_summaries.size(), 2u);  // no ITU in light world
  EXPECT_EQ(report.failure_results.size(), 2u);
  EXPECT_EQ(report.countries.size(), opts.countries.size());
  EXPECT_EQ(report.datacenter_footprints.size(), 2u);
  EXPECT_TRUE(report.has_dns);
  EXPECT_FALSE(report.render().empty());
}

TEST(ScenarioRunner, SubmarineSuffersMoreThanLand) {
  // The paper's core claim, via the façade: submarine cable failures exceed
  // land failures under the same model.
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 20;
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto report = runner.run(s1, opts);
  double submarine = -1.0;
  double land = -1.0;
  for (const auto& r : report.failure_results) {
    if (r.model_name.find("[submarine]") != std::string::npos) {
      submarine = r.cables_failed_mean_pct;
    }
    if (r.model_name.find("[intertubes]") != std::string::npos) {
      land = r.cables_failed_mean_pct;
    }
  }
  ASSERT_GE(submarine, 0.0);
  ASSERT_GE(land, 0.0);
  EXPECT_GT(submarine, land);
}

TEST(ScenarioRunner, StormVariant) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 5;
  const auto report = runner.run_storm(gic::carrington_1859(), opts);
  EXPECT_NE(report.title.find("Carrington"), std::string::npos);
  EXPECT_FALSE(report.failure_results.empty());
}

TEST(ScenarioRunner, StrongerStormDoesMoreDamage) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 10;
  const auto strong = runner.run_storm(gic::carrington_1859(), opts);
  const auto weak = runner.run_storm(gic::moderate_storm(), opts);
  EXPECT_GE(strong.failure_results[0].cables_failed_mean_pct,
            weak.failure_results[0].cables_failed_mean_pct);
}

TEST(ScenarioRunner, RenderedReportContainsEverySection) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 3;
  const std::string text =
      runner.run(gic::LatitudeBandFailureModel::s2(), opts).render();
  for (const char* section :
       {"Cable length / repeater inventory", "Failure simulation",
        "Country connectivity", "Hyperscale data center footprints",
        "DNS root servers"}) {
    EXPECT_NE(text.find(section), std::string::npos) << section;
  }
}

TEST(ScenarioRunner, SpacingFlowsThroughToSummaries) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions wide;
  wide.trials = 2;
  wide.repeater_spacing_km = 150.0;
  ScenarioOptions tight = wide;
  tight.repeater_spacing_km = 50.0;
  const auto m = gic::UniformFailureModel(0.01);
  const auto r_wide = runner.run(m, wide);
  const auto r_tight = runner.run(m, tight);
  EXPECT_GT(r_tight.length_summaries[0].avg_repeaters_per_cable,
            r_wide.length_summaries[0].avg_repeaters_per_cable);
}

void expect_same_results(const ReportBundle& a, const ReportBundle& b) {
  EXPECT_EQ(a.connectivity.result().cables_failed_pct.mean(),
            b.connectivity.result().cables_failed_pct.mean());
  EXPECT_EQ(a.connectivity.result().nodes_unreachable_pct.sample_stddev(),
            b.connectivity.result().nodes_unreachable_pct.sample_stddev());
  EXPECT_EQ(a.google.result().read_availability.mean(),
            b.google.result().read_availability.mean());
  EXPECT_EQ(a.dns.result().resolution_availability.mean(),
            b.dns.result().resolution_availability.mean());
  ASSERT_EQ(a.isolation.results().size(), b.isolation.results().size());
  for (std::size_t i = 0; i < a.isolation.results().size(); ++i) {
    EXPECT_EQ(a.isolation.results()[i].isolated_trials,
              b.isolation.results()[i].isolated_trials);
  }
  ASSERT_NE(a.traffic(), nullptr);
  ASSERT_NE(b.traffic(), nullptr);
  EXPECT_EQ(a.traffic()->max_utilization.mean(),
            b.traffic()->max_utilization.mean());
}

TEST(ReportBundle, RerunsMatchAFreshBundle) {
  // The server reruns one bundle across requests: a run must not depend on
  // what the bundle ran before.
  const World& world = light_world();
  const auto model = gic::make_uniform(0.2);
  ScenarioOptions opts;
  opts.traffic = true;
  opts.traffic_demand_pairs = 32;
  ReportBundle reused(world.submarine(), world.dns_roots(), *model, opts);
  EXPECT_FALSE(reused.run(40, 5).has_value());
  reused.run(40, 9);
  ReportBundle fresh(world.submarine(), world.dns_roots(), *model, opts);
  fresh.run(40, 9);
  expect_same_results(reused, fresh);
}

TEST(ReportBundle, CheckpointedRunMatchesPlainRun) {
  const World& world = light_world();
  const auto model = gic::make_uniform(0.2);
  ScenarioOptions opts;
  opts.traffic = true;
  ReportBundle plain(world.submarine(), world.dns_roots(), *model, opts);
  plain.run(70, 4);
  opts.checkpoint_path = testing::TempDir() + "report_bundle_test.ck";
  opts.checkpoint_every_chunks = 1;
  ReportBundle campaign(world.submarine(), world.dns_roots(), *model, opts);
  const auto report = campaign.run(70, 4);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->chunks, 3u);
  EXPECT_EQ(report->chunks_executed, 3u);
  expect_same_results(plain, campaign);
}

TEST(ScenarioRunner, CustomCountryList) {
  const ScenarioRunner runner(light_world());
  ScenarioOptions opts;
  opts.trials = 2;
  opts.countries = {"SG"};
  const auto report = runner.run(gic::UniformFailureModel(0.01), opts);
  ASSERT_EQ(report.countries.size(), 1u);
  EXPECT_EQ(report.countries[0].country, "SG");
}

}  // namespace
}  // namespace solarnet::core
