#include "analysis/connectivity.h"

#include <gtest/gtest.h>

namespace solarnet::analysis {
namespace {

topo::InfrastructureNetwork make_net() {
  topo::InfrastructureNetwork net("conn");
  const auto a = net.add_node(
      {"A", {65.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
  const auto b = net.add_node(
      {"B", {55.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
  const auto c = net.add_node(
      {"C", {0.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
  const auto d = net.add_node(
      {"D", {0.0, 20.0}, "", topo::NodeKind::kLandingPoint, true});
  topo::Cable high;
  high.name = "high";
  high.segments = {{a, b, 3000.0}};
  net.add_cable(std::move(high));
  topo::Cable low;
  low.name = "low";
  low.segments = {{c, d, 3000.0}};
  net.add_cable(std::move(low));
  return net;
}

TEST(UniformSweep, MonotoneInProbability) {
  const auto net = make_net();
  const sim::FailureSimulator simulator(net, {});
  const std::vector<double> probs = {0.001, 0.01, 0.1, 1.0};
  const auto sweep = uniform_failure_sweep(simulator, probs, 30, 11);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].cables_failed_pct.mean(),
              sweep[i - 1].cables_failed_pct.mean() - 1.0);
    EXPECT_GE(sweep[i].nodes_unreachable_pct.mean(),
              sweep[i - 1].nodes_unreachable_pct.mean() - 1.0);
  }
  EXPECT_DOUBLE_EQ(sweep.back().cables_failed_pct.mean(), 100.0);
  EXPECT_DOUBLE_EQ(sweep.back().nodes_unreachable_pct.mean(), 100.0);
}

TEST(UniformSweep, RecordsProbability) {
  const auto net = make_net();
  const sim::FailureSimulator simulator(net, {});
  const std::vector<double> probs = {0.05};
  const auto sweep = uniform_failure_sweep(simulator, probs, 10, 1);
  EXPECT_DOUBLE_EQ(sweep[0].axis, 0.05);
  EXPECT_GE(sweep[0].cables_failed_pct.sample_stddev(), 0.0);
}

TEST(DefaultProbabilityGrid, SpansPaperRange) {
  const auto grid = default_probability_grid();
  EXPECT_DOUBLE_EQ(grid.front(), 0.001);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

TEST(BandRun, S1HitsHighLatitudeCable) {
  const auto net = make_net();
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const BandSweepResult r = band_failure_run(net, s1, 150.0, 20, 5);
  // The high cable (max lat 65) dies with certainty under S1;
  // the low cable at p=0.01/repeater dies rarely.
  EXPECT_GT(r.cables_failed_mean_pct, 45.0);
  EXPECT_LT(r.cables_failed_mean_pct, 80.0);
  EXPECT_EQ(r.spacing_km, 150.0);
  EXPECT_FALSE(r.model_name.empty());
}

TEST(BandRun, S2WeakerThanS1) {
  const auto net = make_net();
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const BandSweepResult r1 = band_failure_run(net, s1, 150.0, 50, 5);
  const BandSweepResult r2 = band_failure_run(net, s2, 150.0, 50, 5);
  EXPECT_GT(r1.cables_failed_mean_pct, r2.cables_failed_mean_pct);
}

TEST(BandRun, TighterSpacingIncreasesFailures) {
  const auto net = make_net();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const BandSweepResult wide = band_failure_run(net, s2, 150.0, 100, 5);
  const BandSweepResult tight = band_failure_run(net, s2, 50.0, 100, 5);
  EXPECT_GE(tight.cables_failed_mean_pct, wide.cables_failed_mean_pct);
}

}  // namespace
}  // namespace solarnet::analysis
