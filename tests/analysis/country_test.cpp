#include "analysis/country.h"

#include <gtest/gtest.h>

#include <cmath>

namespace solarnet::analysis {
namespace {

// US <-> GB corridor with two cables; US <-> BR with one; GB-FR domestic-ish.
class CountryTest : public ::testing::Test {
 protected:
  CountryTest() : net_("country") {
    us1_ = net_.add_node(
        {"NY", {40.7, -74.0}, "US", topo::NodeKind::kLandingPoint, true});
    us2_ = net_.add_node(
        {"Miami", {25.8, -80.2}, "US", topo::NodeKind::kLandingPoint, true});
    gb_ = net_.add_node(
        {"Bude", {50.8, -4.5}, "GB", topo::NodeKind::kLandingPoint, true});
    fr_ = net_.add_node(
        {"Brest", {48.4, -4.5}, "FR", topo::NodeKind::kLandingPoint, true});
    br_ = net_.add_node(
        {"Fortaleza", {-3.7, -38.5}, "BR", topo::NodeKind::kLandingPoint,
         true});
    t1_ = add_cable("transatlantic-1", us1_, gb_, 6000.0);
    t2_ = add_cable("transatlantic-2", us1_, gb_, 6500.0);
    sa_ = add_cable("us-brazil", us2_, br_, 7000.0);
    eu_ = add_cable("gb-fr", gb_, fr_, 300.0);
  }

  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                          double len) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, len}};
    return net_.add_cable(std::move(c));
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId us1_{}, us2_{}, gb_{}, fr_{}, br_{};
  topo::CableId t1_{}, t2_{}, sa_{}, eu_{};
};

TEST_F(CountryTest, InternationalCables) {
  const auto us = international_cables(net_, "US");
  EXPECT_EQ(us.size(), 3u);
  const auto gb = international_cables(net_, "GB");
  EXPECT_EQ(gb.size(), 3u);  // two transatlantic + gb-fr
  const auto br = international_cables(net_, "BR");
  ASSERT_EQ(br.size(), 1u);
  EXPECT_EQ(br[0], sa_);
  EXPECT_TRUE(international_cables(net_, "XX").empty());
}

TEST_F(CountryTest, CorridorCables) {
  const auto atlantic = corridor_cables(net_, {"US"}, {"GB", "FR"});
  EXPECT_EQ(atlantic.size(), 2u);
  const auto south = corridor_cables(net_, {"US"}, {"BR"});
  ASSERT_EQ(south.size(), 1u);
  EXPECT_EQ(south[0], sa_);
  EXPECT_TRUE(corridor_cables(net_, {"US"}, {"JP"}).empty());
}

TEST_F(CountryTest, CablesAtNamedNode) {
  EXPECT_EQ(cables_at_named_node(net_, "NY").size(), 2u);
  EXPECT_EQ(cables_at_named_node(net_, "Fortaleza").size(), 1u);
  EXPECT_TRUE(cables_at_named_node(net_, "Ghost").empty());
}

TEST_F(CountryTest, AllFailProbabilityIsProduct) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel m(0.1);
  const double p1 = simulator.cable_death_probability(t1_, m);
  const double p2 = simulator.cable_death_probability(t2_, m);
  EXPECT_NEAR(all_fail_probability(simulator, m, {t1_, t2_}), p1 * p2, 1e-12);
  // Empty set: vacuously "all failed".
  EXPECT_DOUBLE_EQ(all_fail_probability(simulator, m, {}), 1.0);
}

TEST_F(CountryTest, ExpectedSurvivors) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel m(0.1);
  const double p1 = simulator.cable_death_probability(t1_, m);
  const double p2 = simulator.cable_death_probability(t2_, m);
  EXPECT_NEAR(expected_survivors(simulator, m, {t1_, t2_}),
              (1 - p1) + (1 - p2), 1e-12);
}

TEST_F(CountryTest, CountryConnectivitySummary) {
  const sim::FailureSimulator simulator(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto us = country_connectivity(net_, simulator, s1, "US");
  EXPECT_EQ(us.country, "US");
  EXPECT_EQ(us.international_cable_count, 3u);
  EXPECT_GT(us.all_fail_probability, 0.0);
  EXPECT_GT(us.expected_surviving_cables, 0.0);

  // Brazil's single cable tops out below 40 deg -> low band -> it is far
  // likelier to survive than any single transatlantic cable.
  const auto br = country_connectivity(net_, simulator, s1, "BR");
  EXPECT_LT(br.all_fail_probability,
            simulator.cable_death_probability(t1_, s1));
  EXPECT_GT(br.expected_surviving_cables, 0.5);
}

TEST_F(CountryTest, PaperShapeUsEuropeVsBrazilEurope) {
  // §4.3.4's headline: the US loses Europe before Brazil does, because the
  // Brazil-Europe cable is shorter and lands lower.
  const sim::FailureSimulator simulator(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const double us_eu = all_fail_probability(
      simulator, s1, corridor_cables(net_, {"US"}, {"GB", "FR"}));
  const double us_br =
      all_fail_probability(simulator, s1, corridor_cables(net_, {"US"}, {"BR"}));
  EXPECT_GT(us_eu, us_br);
}

}  // namespace
}  // namespace solarnet::analysis
