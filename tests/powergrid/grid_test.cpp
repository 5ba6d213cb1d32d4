#include "powergrid/grid.h"

#include <gtest/gtest.h>

#include "datasets/submarine.h"
#include "sim/monte_carlo.h"

namespace solarnet::powergrid {
namespace {

TEST(GridRegions, CuratedSetIsSane) {
  const auto& regions = grid_regions();
  EXPECT_GE(regions.size(), 12u);
  for (const GridRegion& r : regions) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_GT(r.peak_load_gw, 0.0);
    EXPECT_GT(r.hv_transformers, 0u);
    EXPECT_TRUE(r.footprint.contains(r.centroid)) << r.name;
  }
}

TEST(GridRegions, PaperNamedInterconnectionsPresent) {
  // §5.5: "in the US, there are three regional power grids".
  std::size_t us = 0;
  for (const GridRegion& r : grid_regions()) {
    if (r.name.find("Interconnection") != std::string::npos ||
        r.name.find("ERCOT") != std::string::npos) {
      ++us;
    }
  }
  EXPECT_EQ(us, 3u);
}

TEST(RegionIndexAt, MajorCitiesLandInRightGrid) {
  EXPECT_EQ(grid_regions()[region_index_at({40.7, -74.0})].name,
            "US Eastern Interconnection");
  EXPECT_EQ(grid_regions()[region_index_at({34.0, -118.2})].name,
            "US Western Interconnection");
  EXPECT_EQ(grid_regions()[region_index_at({30.3, -97.7})].name,
            "ERCOT (Texas)");
  EXPECT_EQ(grid_regions()[region_index_at({52.0, -71.0})].name,
            "Hydro-Quebec");
  EXPECT_EQ(grid_regions()[region_index_at({51.5, -0.1})].name,
            "UK National Grid");
}

TEST(RegionIndexAt, FallsBackToNearestForOceanPoints) {
  const std::size_t idx = region_index_at({30.0, -60.0});  // Atlantic
  EXPECT_LT(idx, grid_regions().size());
}

TEST(EvaluateGrid, CarringtonBlacksOutHighLatitudesWorst) {
  // A Carrington event reaches fields "as low as 20 deg" (§3.1), so even
  // low-latitude grids suffer — but damage must still grow with latitude.
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto outcomes = evaluate_grid(field);
  ASSERT_EQ(outcomes.size(), grid_regions().size());
  double nordic = 0.0;
  double brazil = 0.0;
  bool nordic_blackout = false;
  for (const GridOutcome& o : outcomes) {
    if (o.region == "Nordic Grid") {
      nordic = o.transformer_failure_fraction;
      nordic_blackout = o.blackout;
    }
    if (o.region == "Brazil SIN") brazil = o.transformer_failure_fraction;
    EXPECT_GE(o.transformer_failure_fraction, 0.0);
    EXPECT_LE(o.transformer_failure_fraction, 1.0);
  }
  EXPECT_TRUE(nordic_blackout);
  EXPECT_GT(nordic, 2.0 * brazil);
}

TEST(EvaluateGrid, ModerateStormSparesLowLatitudes) {
  const gic::GeoelectricFieldModel field(gic::quebec_1989());
  const auto outcomes = evaluate_grid(field);
  for (const GridOutcome& o : outcomes) {
    if (o.region == "India National Grid" || o.region == "Brazil SIN" ||
        o.region == "Australia NEM") {
      EXPECT_FALSE(o.blackout) << o.region;
    }
  }
}

TEST(EvaluateGrid, QuebecScaleHitsOnlyHighLatitudes) {
  // 1989: Quebec collapsed; lower-latitude grids stayed up.
  const gic::GeoelectricFieldModel field(gic::quebec_1989().scaled(3.0));
  const auto outcomes = evaluate_grid(field);
  double quebec_frac = 0.0;
  double india_frac = 0.0;
  for (const GridOutcome& o : outcomes) {
    if (o.region == "Hydro-Quebec") quebec_frac = o.transformer_failure_fraction;
    if (o.region == "India National Grid") {
      india_frac = o.transformer_failure_fraction;
    }
  }
  EXPECT_GT(quebec_frac, india_frac);
}

TEST(EvaluateGrid, RestorationTimesScaleWithDamage) {
  const gic::GeoelectricFieldModel strong(gic::carrington_1859());
  const gic::GeoelectricFieldModel weak(gic::moderate_storm());
  const auto bad = evaluate_grid(strong);
  const auto mild = evaluate_grid(weak);
  double worst_bad = 0.0;
  double worst_mild = 0.0;
  for (const auto& o : bad) worst_bad = std::max(worst_bad, o.restoration_days);
  for (const auto& o : mild) {
    worst_mild = std::max(worst_mild, o.restoration_days);
  }
  EXPECT_GT(worst_bad, worst_mild);
  // Manufacturing-bound restorations run months-to-years (§5.5).
  EXPECT_GT(worst_bad, 90.0);
}

TEST(CoupledFailure, PowerOutagesAmplifyCableDamage) {
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(5);
  const auto dead = simulator.sample_cable_failures(s1, rng);

  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto grid = evaluate_grid(field);
  util::Rng coupling_rng(6);
  const CoupledImpact impact =
      analyze_coupled_failure(net, dead, grid, /*backup=*/0.3, coupling_rng);

  EXPECT_GT(impact.nodes_without_power, 0u);
  EXPECT_GE(impact.nodes_down_combined, impact.nodes_unreachable_cables);
  EXPECT_GT(impact.amplification(), 1.0);
  EXPECT_GT(impact.combined_down_fraction, 0.0);
  EXPECT_LE(impact.combined_down_fraction, 1.0);
}

TEST(CoupledFailure, FullBackupMeansNoPowerLoss) {
  const auto net = datasets::make_submarine_network({});
  const std::vector<bool> none(net.cable_count(), false);
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto grid = evaluate_grid(field);
  util::Rng rng(1);
  const CoupledImpact impact =
      analyze_coupled_failure(net, none, grid, /*backup=*/1.0, rng);
  EXPECT_EQ(impact.nodes_without_power, 0u);
  EXPECT_EQ(impact.nodes_down_combined, 0u);
}

TEST(CoupledFailure, Validation) {
  const auto net = datasets::make_submarine_network({});
  const std::vector<bool> none(net.cable_count(), false);
  util::Rng rng(1);
  EXPECT_THROW(analyze_coupled_failure(net, none, {}, 0.5, rng),
               std::invalid_argument);
  const gic::GeoelectricFieldModel field(gic::quebec_1989());
  const auto grid = evaluate_grid(field);
  EXPECT_THROW(analyze_coupled_failure(net, none, grid, 1.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::powergrid
