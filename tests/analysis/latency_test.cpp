#include "analysis/latency.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.h"
#include "datasets/submarine.h"
#include "sim/monte_carlo.h"

namespace solarnet::analysis {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  LatencyTest() : net_("lat") {
    a_ = add_node("A", {0.0, 0.0});
    b_ = add_node("B", {0.0, 10.0});
    c_ = add_node("C", {0.0, 20.0});
    ab_ = add_cable("ab", a_, b_, 1500.0);
    bc_ = add_cable("bc", b_, c_, 1500.0);
    ac_ = add_cable("ac", a_, c_, 4000.0);  // longer direct route
  }
  topo::NodeId add_node(const char* name, geo::GeoPoint p) {
    return net_.add_node({name, p, "", topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId x, topo::NodeId y,
                          double len) {
    topo::Cable c;
    c.name = name;
    c.segments = {{x, y, len}};
    return net_.add_cable(std::move(c));
  }
  topo::InfrastructureNetwork net_;
  topo::NodeId a_{}, b_{}, c_{};
  topo::CableId ab_{}, bc_{}, ac_{};
};

TEST_F(LatencyTest, ShortestPathLatency) {
  const RouteLatency r = route_latency(net_, "A", "C");
  EXPECT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.path_km, 3000.0);  // via B, not the 4000 km direct
  EXPECT_NEAR(r.one_way_ms, 3000.0 * kFiberLatencyMsPerKm, 1e-12);
  EXPECT_DOUBLE_EQ(r.rtt_ms, 2.0 * r.one_way_ms);
}

TEST_F(LatencyTest, FailureForcesLongerRoute) {
  std::vector<bool> dead(net_.cable_count(), false);
  dead[ab_] = true;
  const RouteLatency after = route_latency(net_, "A", "C", dead);
  EXPECT_TRUE(after.reachable);
  EXPECT_DOUBLE_EQ(after.path_km, 4000.0);
  EXPECT_NEAR(after.rtt_ms, 2.0 * 4000.0 * kFiberLatencyMsPerKm, 1e-9);
}

TEST_F(LatencyTest, DisconnectionIsInfiniteInflation) {
  std::vector<bool> dead(net_.cable_count(), false);
  dead[ab_] = true;
  dead[ac_] = true;
  const RouteLatency after = route_latency(net_, "A", "C", dead);
  EXPECT_FALSE(after.reachable);
  EXPECT_EQ(after.rtt_ms, 0.0);
}

TEST_F(LatencyTest, UnknownNodesThrow) {
  EXPECT_THROW(route_latency(net_, "A", "Ghost"), std::invalid_argument);
  EXPECT_THROW(route_latency(net_, "Ghost", "A"), std::invalid_argument);
}

TEST(ArcticTradeoff, ArcticCableCutsLondonTokyoLatency) {
  // §5.1: Arctic routes are "helpful for improving latency [but] prone to
  // higher risk". The latency half of that claim:
  const auto net = datasets::make_submarine_network({});
  const auto before = route_latency(net, "Bude", "Tokyo");
  ASSERT_TRUE(before.reachable);
  const auto arctic = core::TopologyPlanner::arctic_candidates().front();
  const auto augmented = core::with_cable(net, arctic);
  const auto after = route_latency(augmented, "Bude", "Tokyo");
  ASSERT_TRUE(after.reachable);
  EXPECT_LT(after.rtt_ms, before.rtt_ms - 20.0);  // tens of ms saved
  EXPECT_NEAR(after.path_km, 15500.0, 1.0);       // takes the new cable
}

TEST(ArcticTradeoff, ArcticCableDiesUnderFieldDrivenCarrington) {
  // ...and the risk half: the Arctic route's repeaters sit under the
  // auroral oval, so the field-driven model kills it almost surely while
  // a low-latitude build of the same length survives far more often.
  const auto net = datasets::make_submarine_network({});
  const auto arctic_net = core::with_cable(
      net, core::TopologyPlanner::arctic_candidates().front());
  const auto southern_net = core::with_cable(
      net, {"Fortaleza", "Lagos", 15500.0});  // same length, equatorial
  const gic::FieldDrivenFailureModel model{
      gic::GeoelectricFieldModel(gic::carrington_1859())};
  const sim::FailureSimulator arctic_sim(arctic_net, {});
  const sim::FailureSimulator southern_sim(southern_net, {});
  const auto arctic_id =
      static_cast<topo::CableId>(arctic_net.cable_count() - 1);
  const auto southern_id =
      static_cast<topo::CableId>(southern_net.cable_count() - 1);
  const double p_arctic =
      arctic_sim.cable_death_probability(arctic_id, model);
  const double p_southern =
      southern_sim.cable_death_probability(southern_id, model);
  EXPECT_GT(p_arctic, 0.95);
  EXPECT_GT(p_arctic, p_southern);
}

}  // namespace
}  // namespace solarnet::analysis
