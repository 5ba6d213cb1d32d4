// End-to-end flows across module boundaries: generate → simulate → analyze
// → plan, plus the CSV round-trip into the simulator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/distribution.h"
#include "core/partition.h"
#include "core/planner.h"
#include "core/scenario.h"
#include "core/shutdown.h"
#include "core/world.h"
#include "datasets/loaders.h"
#include "gic/induction.h"

namespace solarnet {
namespace {

core::WorldConfig small_world_config() {
  core::WorldConfig cfg;
  cfg.submarine.total_cables = 200;
  cfg.submarine.target_landing_points = 500;
  cfg.submarine.cables_without_length = 10;
  cfg.intertubes.total_links = 200;
  cfg.intertubes.target_nodes = 110;
  cfg.intertubes.short_links = 95;
  cfg.itu.total_links = 600;
  cfg.itu.target_nodes = 580;
  cfg.itu.short_links = 430;
  cfg.routers.router_count = 10000;
  cfg.routers.as_count = 800;
  cfg.population.cell_deg = 5.0;
  return cfg;
}

const core::World& small_world() {
  static const core::World w = core::World::generate(small_world_config());
  return w;
}

TEST(EndToEnd, StormScenarioThroughFacade) {
  const core::ScenarioRunner runner(small_world());
  server::ScenarioRequest req;
  req.trials = 5;
  const auto report = runner.run_storm(gic::carrington_1859(), req);
  const std::string text = report.render();
  EXPECT_NE(text.find("Carrington"), std::string::npos);
  EXPECT_NE(text.find("submarine"), std::string::npos);
  EXPECT_NE(text.find("Country connectivity"), std::string::npos);
}

TEST(EndToEnd, CsvRoundTripFeedsSimulator) {
  const std::string nodes =
      (std::filesystem::temp_directory_path() / "e2e_nodes.csv").string();
  const std::string cables =
      (std::filesystem::temp_directory_path() / "e2e_cables.csv").string();
  datasets::write_network_csv(small_world().submarine(), nodes, cables);
  const auto loaded = datasets::load_network_csv("submarine", nodes, cables);
  std::remove(nodes.c_str());
  std::remove(cables.c_str());

  const sim::FailureSimulator original_sim(small_world().submarine(), {});
  const sim::FailureSimulator loaded_sim(loaded, {});
  // Lengths round-trip at micro-precision; a repeater count can only move
  // if a segment length sits exactly on a spacing multiple.
  EXPECT_NEAR(static_cast<double>(loaded_sim.total_repeaters()),
              static_cast<double>(original_sim.total_repeaters()), 2.0);
  const gic::UniformFailureModel m(0.01);
  const auto a = original_sim.run_trials(m, 10, 5);
  const auto b = loaded_sim.run_trials(m, 10, 5);
  EXPECT_NEAR(a.cables_failed_pct.mean(), b.cables_failed_pct.mean(), 1.5);
}

TEST(EndToEnd, InductionFeedsFieldDrivenSimulation) {
  const auto& net = small_world().submarine();
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto inductions = gic::compute_network_induction(net, field);
  ASSERT_EQ(inductions.size(), net.cable_count());
  // At least one long high-latitude cable must see a dangerous overload.
  bool any_overload = false;
  for (const auto& i : inductions) {
    if (i.overload_factor > 10.0) any_overload = true;
  }
  EXPECT_TRUE(any_overload);

  const gic::FieldDrivenFailureModel model(field);
  const sim::FailureSimulator simulator(net, {});
  const auto agg = simulator.run_trials(model, 10, 3);
  EXPECT_GT(agg.cables_failed_pct.mean(), 0.0);
  EXPECT_LT(agg.cables_failed_pct.mean(), 100.0);
}

TEST(EndToEnd, PartitionAfterSevereStorm) {
  const auto& net = small_world().submarine();
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(17);
  const auto dead = simulator.sample_cable_failures(s1, rng);
  const core::PartitionReport report = core::analyze_partition(net, dead);
  // A severe storm fragments the network: multiple components and/or many
  // isolated landing points.
  EXPECT_GT(report.components + report.isolated_nodes, 2u);
  EXPECT_FALSE(core::render_partition(report).empty());
}

TEST(EndToEnd, PlannerImprovesUsEuropeCorridorOnGeneratedWorld) {
  sim::TrialConfig cfg;
  const core::TopologyPlanner planner(small_world().submarine(), cfg);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const std::vector<std::string> europe = {"GB", "FR", "PT", "ES", "IE",
                                           "NL", "BE", "DE", "DK", "NO"};
  const auto eval = planner.evaluate({"Miami", "Tenerife", 0.0}, s1, {"US"},
                                     europe);
  EXPECT_LE(eval.corridor_cutoff_after, eval.corridor_cutoff_before);
}

TEST(EndToEnd, ShutdownOnGeneratedSubmarineNetwork) {
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const auto outcome =
      core::evaluate_shutdown(small_world().submarine(), s2, {});
  EXPECT_GT(outcome.cables_shut_down, 0u);
  EXPECT_GE(outcome.expected_cables_saved(), 0.0);
}

TEST(EndToEnd, DistributionAnalysesRunOnWorld) {
  const auto thresholds = analysis::default_thresholds();
  const auto sub_lats = small_world().submarine().node_latitudes();
  const auto curve = analysis::percent_above_thresholds(sub_lats, thresholds);
  ASSERT_EQ(curve.size(), thresholds.size());
  EXPECT_DOUBLE_EQ(curve.front(), 100.0);
  const auto one_hop = analysis::one_hop_percent_above_thresholds(
      small_world().submarine(), thresholds);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_GE(one_hop[i] + 1e-9, curve[i]) << "one-hop closure is a superset";
  }
}

}  // namespace
}  // namespace solarnet
