#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datasets/submarine.h"
#include "routing/assignment.h"
#include "routing/capacity.h"
#include "routing/demand.h"
#include "util/status.h"

namespace solarnet::routing {
namespace {

topo::Cable make_cable(topo::CableKind kind, double length) {
  topo::Cable c;
  c.kind = kind;
  c.segments = {{0, 1, length}};
  return c;
}

TEST(CapacityModel, SubmarineDecaysWithLength) {
  const double short_cap =
      capacity_tbps(make_cable(topo::CableKind::kSubmarine, 500.0));
  const double long_cap =
      capacity_tbps(make_cable(topo::CableKind::kSubmarine, 20000.0));
  EXPECT_GT(short_cap, long_cap);
  EXPECT_GE(long_cap, kSubmarineFloorTbps);
}

TEST(CapacityModel, HalvingLength) {
  const double c0 =
      capacity_tbps(make_cable(topo::CableKind::kSubmarine, 0.0));
  const double c9000 =
      capacity_tbps(make_cable(topo::CableKind::kSubmarine, 9000.0));
  EXPECT_NEAR(c9000 / c0, 0.5, 1e-9);
}

TEST(CapacityModel, LandKindsFixed) {
  EXPECT_DOUBLE_EQ(
      capacity_tbps(make_cable(topo::CableKind::kLandLongHaul, 5000.0)),
      kLandLongHaulTbps);
  EXPECT_DOUBLE_EQ(
      capacity_tbps(make_cable(topo::CableKind::kLandRegional, 100.0)),
      kLandRegionalTbps);
}

// A 4-node world: NY(NA) - Bude(EU) - Singapore(AS) - Sydney(OC) line.
class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : net_("routing") {
    ny_ = add_node("NY", {40.7, -74.0}, "US");
    bude_ = add_node("Bude", {50.8, -4.5}, "GB");
    sg_ = add_node("Singapore", {1.35, 103.8}, "SG");
    syd_ = add_node("Sydney", {-33.9, 151.2}, "AU");
    atl_ = add_cable("atlantic", ny_, bude_, 6000.0);
    eur_asia_ = add_cable("eur-asia", bude_, sg_, 11000.0);
    asia_oc_ = add_cable("asia-oc", sg_, syd_, 6300.0);
    pacific_ = add_cable("pacific", ny_, syd_, 15000.0);
  }

  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                          double len) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, len}};
    return net_.add_cable(std::move(c));
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, sg_{}, syd_{};
  topo::CableId atl_{}, eur_asia_{}, asia_oc_{}, pacific_{};
};

TEST_F(RoutingTest, GravityDemandsCoverGatewayPairs) {
  const auto demands = gravity_demands(net_);
  // 4 gateways (one per continent here) -> 6 pairs.
  EXPECT_EQ(demands.size(), 6u);
  double total = 0.0;
  for (const TrafficDemand& d : demands) {
    EXPECT_GT(d.gbps, 0.0);
    total += d.gbps;
  }
  EXPECT_NEAR(total, 1000.0 * kOfferedTbps, 1e-6);  // Tbps -> Gbps
}

TEST_F(RoutingTest, BaselineDeliversEverything) {
  const TrafficEngine engine(net_, gravity_demands(net_));
  const AssignmentResult r = engine.assign_baseline();
  EXPECT_DOUBLE_EQ(r.undeliverable_gbps, 0.0);
  EXPECT_DOUBLE_EQ(r.delivered_fraction(), 1.0);
  EXPECT_GT(r.delivered_gbps, 0.0);
  EXPECT_GT(r.mean_path_km, 1000.0);
}

TEST_F(RoutingTest, ShortestPathsChosen) {
  // One demand NY -> Singapore: via Bude (17,000 km) beats via Sydney
  // (21,300 km).
  const std::vector<TrafficDemand> demands = {{ny_, sg_, 100.0}};
  const TrafficEngine engine(net_, demands);
  const AssignmentResult r = engine.assign_baseline();
  EXPECT_DOUBLE_EQ(r.loads[atl_].load_gbps, 100.0);
  EXPECT_DOUBLE_EQ(r.loads[eur_asia_].load_gbps, 100.0);
  EXPECT_DOUBLE_EQ(r.loads[pacific_].load_gbps, 0.0);
  EXPECT_NEAR(r.mean_path_km, 17000.0, 1.0);
}

TEST_F(RoutingTest, FailureShiftsLoad) {
  const std::vector<TrafficDemand> demands = {{ny_, sg_, 100.0}};
  const TrafficEngine engine(net_, demands);
  const AssignmentResult baseline = engine.assign_baseline();
  std::vector<bool> dead(net_.cable_count(), false);
  dead[atl_] = true;
  const AssignmentResult after = engine.assign(dead);
  // Traffic reroutes over the Pacific.
  EXPECT_DOUBLE_EQ(after.loads[pacific_].load_gbps, 100.0);
  EXPECT_DOUBLE_EQ(after.loads[asia_oc_].load_gbps, 100.0);
  EXPECT_DOUBLE_EQ(after.undeliverable_gbps, 0.0);
  EXPECT_GT(after.mean_path_km, baseline.mean_path_km);
  const auto shift = TrafficEngine::load_shift(baseline, after);
  EXPECT_DOUBLE_EQ(shift[pacific_], 100.0);
  EXPECT_DOUBLE_EQ(shift[atl_], -100.0);
}

TEST_F(RoutingTest, DisconnectionIsUndeliverable) {
  const std::vector<TrafficDemand> demands = {{ny_, sg_, 100.0}};
  const TrafficEngine engine(net_, demands);
  std::vector<bool> dead(net_.cable_count(), false);
  dead[atl_] = true;
  dead[pacific_] = true;
  const AssignmentResult r = engine.assign(dead);
  EXPECT_DOUBLE_EQ(r.delivered_gbps, 0.0);
  EXPECT_DOUBLE_EQ(r.undeliverable_gbps, 100.0);
  EXPECT_DOUBLE_EQ(r.delivered_fraction(), 0.0);
}

TEST_F(RoutingTest, UtilizationAndOverload) {
  // Push more than the long submarine cable's capacity through it.
  const double pac_cap_gbps =
      1000.0 * capacity_tbps(net_.cable(pacific_));
  const std::vector<TrafficDemand> demands = {
      {ny_, syd_, pac_cap_gbps * 1.5}};
  const TrafficEngine engine(net_, demands);
  const AssignmentResult r = engine.assign_baseline();
  EXPECT_GT(r.max_utilization, 1.0);
  EXPECT_EQ(r.overloaded_cables, 1u);
  EXPECT_NEAR(r.loads[pacific_].utilization(), 1.5, 1e-9);
}

TEST_F(RoutingTest, EngineValidatesDemands) {
  EXPECT_THROW(TrafficEngine(net_, {{99, sg_, 1.0}}), std::out_of_range);
  EXPECT_THROW(TrafficEngine(net_, {{ny_, sg_, -1.0}}),
               std::invalid_argument);
}

TEST_F(RoutingTest, LoadShiftValidatesSizes) {
  AssignmentResult a;
  a.loads.resize(2);
  AssignmentResult b;
  b.loads.resize(3);
  EXPECT_THROW(TrafficEngine::load_shift(a, b), std::invalid_argument);
}

TEST_F(RoutingTest, CapacityAwareSpillsOntoLongerPath) {
  const double atl_cap_gbps = 1000.0 * capacity_tbps(net_.cable(atl_));
  // Two NY->Bude demands that together exceed the Atlantic cable: the
  // second (0.3 C, more than the 0.1 C residual) must spill onto the long
  // route via Sydney and Singapore.
  const std::vector<TrafficDemand> demands = {
      {ny_, bude_, atl_cap_gbps * 0.9},
      {ny_, bude_, atl_cap_gbps * 0.3},
  };
  const TrafficEngine engine(net_, demands);
  const AssignmentResult naive = engine.assign_baseline();
  EXPECT_EQ(naive.overloaded_cables, 1u);  // everything piles on atlantic

  const AssignmentResult aware = engine.assign_capacity_aware(
      std::vector<bool>(net_.cable_count(), false));
  EXPECT_DOUBLE_EQ(aware.undeliverable_gbps, 0.0);
  EXPECT_NEAR(aware.loads[atl_].utilization(), 0.9, 1e-9);
  EXPECT_GT(aware.loads[pacific_].load_gbps, 0.0);
  EXPECT_GT(aware.mean_path_km, naive.mean_path_km);
  EXPECT_EQ(aware.overloaded_cables, 0u);
  EXPECT_LE(aware.max_utilization, 1.0 + 1e-9);
}

TEST_F(RoutingTest, CapacityAwareBlocksWhenNothingLeft) {
  const double atl_cap = 1000.0 * capacity_tbps(net_.cable(atl_));
  const double pac_cap = 1000.0 * capacity_tbps(net_.cable(pacific_));
  const std::vector<TrafficDemand> demands = {
      {ny_, bude_, atl_cap},   // fills the Atlantic exactly
      {ny_, bude_, pac_cap},   // fills the Pacific detour exactly
      {ny_, bude_, 100.0},     // nowhere left to go
  };
  const TrafficEngine engine(net_, demands);
  const AssignmentResult r = engine.assign_capacity_aware(
      std::vector<bool>(net_.cable_count(), false));
  EXPECT_DOUBLE_EQ(r.undeliverable_gbps, 100.0);
  EXPECT_GT(r.delivered_gbps, 0.0);
  EXPECT_LE(r.max_utilization, 1.0 + 1e-9);
}

TEST_F(RoutingTest, CapacityAwareRespectsFailures) {
  const std::vector<TrafficDemand> demands = {{ny_, sg_, 50.0}};
  const TrafficEngine engine(net_, demands);
  std::vector<bool> dead(net_.cable_count(), false);
  dead[atl_] = true;
  const AssignmentResult r = engine.assign_capacity_aware(dead);
  EXPECT_DOUBLE_EQ(r.loads[atl_].load_gbps, 0.0);
  EXPECT_DOUBLE_EQ(r.loads[pacific_].load_gbps, 50.0);
}

TEST_F(RoutingTest, GravityHandlesFewerLandingNodesThanGateways) {
  // Every continent here has a single landing node; asking for
  // kGatewaysPerContinent per continent must take what exists, not read
  // past the end: the demands pair exactly the four nodes.
  using Pair = std::pair<topo::NodeId, topo::NodeId>;
  std::set<Pair> pairs;
  for (const TrafficDemand& d : gravity_demands(net_)) {
    pairs.insert(std::minmax(d.src, d.dst));
  }
  const std::set<Pair> expected = {{ny_, bude_},  {ny_, sg_},  {ny_, syd_},
                                   {bude_, sg_}, {bude_, syd_}, {sg_, syd_}};
  EXPECT_EQ(pairs, expected);
}

TEST_F(RoutingTest, GravityIgnoresCablelessContinents) {
  // A continent whose only node has no cables contributes zero gateways
  // and must not perturb the matrix.
  add_node("Nairobi", {-1.3, 36.8}, "KE");  // Africa, no cables
  const auto demands = gravity_demands(net_);
  EXPECT_EQ(demands.size(), 6u);  // still 4 gateways
  for (const TrafficDemand& d : demands) {
    EXPECT_FALSE(net_.cables_at(d.src).empty());
    EXPECT_FALSE(net_.cables_at(d.dst).empty());
  }
}

TEST(GravityDeterminism, InvariantUnderNodeIdPermutationWithDistinctDegrees) {
  // Same physical network built in two different node orders. Degrees are
  // distinct within each continent, so the degree sort alone must pin the
  // gateway choice — the demand matrix (resolved to node names) has to be
  // identical.
  struct Spec {
    const char* name;
    geo::GeoPoint at;
    const char* cc;
  };
  // Europe: Bude (degree 2) vs Lisbon (degree 1); NA: NY (degree 3).
  const std::vector<Spec> specs = {{"NY", {40.7, -74.0}, "US"},
                                   {"Bude", {50.8, -4.5}, "GB"},
                                   {"Lisbon", {38.7, -9.1}, "PT"},
                                   {"Singapore", {1.35, 103.8}, "SG"}};
  const auto build = [&](std::vector<std::size_t> order) {
    topo::InfrastructureNetwork net("perm");
    for (std::size_t i : order) {
      net.add_node({specs[i].name, specs[i].at, specs[i].cc,
                    topo::NodeKind::kLandingPoint, true});
    }
    const auto cable = [&](const char* a, const char* b, double km) {
      topo::Cable c;
      c.name = std::string(a) + "-" + b;
      c.segments = {{*net.find_node(a), *net.find_node(b), km}};
      net.add_cable(std::move(c));
    };
    cable("NY", "Bude", 6000.0);
    cable("NY", "Lisbon", 5500.0);
    cable("NY", "Singapore", 15000.0);
    cable("Bude", "Singapore", 11000.0);
    return net;
  };
  const auto named_demands = [](const topo::InfrastructureNetwork& net,
                                const std::vector<TrafficDemand>& demands) {
    std::vector<std::string> rows;
    for (const TrafficDemand& d : demands) {
      rows.push_back(net.node(d.src).name + ">" + net.node(d.dst).name + "@" +
                     std::to_string(d.gbps));
    }
    return rows;
  };
  const auto a = build({0, 1, 2, 3});
  const auto b = build({3, 2, 1, 0});
  EXPECT_EQ(named_demands(a, gravity_demands(a)),
            named_demands(b, gravity_demands(b)));
}

TEST(GravityDeterminism, EqualDegreesTieBreakByLowestId) {
  // One more same-continent node than there are gateway slots, all with
  // identical cable degree: the lowest node ids must win the slots.
  topo::InfrastructureNetwork net("tie");
  std::vector<topo::NodeId> us;
  for (std::size_t i = 0; i <= kGatewaysPerContinent; ++i) {
    us.push_back(net.add_node({"US" + std::to_string(i),
                               {40.0, -100.0 + static_cast<double>(i)},
                               "US",
                               topo::NodeKind::kLandingPoint,
                               true}));
  }
  const auto bude = net.add_node(
      {"Bude", {50.8, -4.5}, "GB", topo::NodeKind::kLandingPoint, true});
  for (const topo::NodeId n : us) {  // every US node has degree 1
    topo::Cable c;
    c.name = "c" + std::to_string(net.cable_count());
    c.segments = {{n, bude, 6000.0}};
    net.add_cable(std::move(c));
  }
  const auto demands = gravity_demands(net);
  // kGatewaysPerContinent US gateways plus Bude.
  const std::size_t gateways = kGatewaysPerContinent + 1;
  ASSERT_EQ(demands.size(), gateways * (gateways - 1) / 2);
  for (const TrafficDemand& d : demands) {
    EXPECT_NE(d.src, us.back());
    EXPECT_NE(d.dst, us.back());
  }
}

TEST_F(RoutingTest, SampledNodeDemandsDeterministicAndNormalized) {
  const auto a = sampled_node_demands(net_, 1000, 40.0, 99);
  const auto b = sampled_node_demands(net_, 1000, 40.0, 99);
  ASSERT_EQ(a.size(), 1000u);
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].gbps, b[i].gbps);
    EXPECT_NE(a[i].src, a[i].dst);
    EXPECT_FALSE(net_.cables_at(a[i].src).empty());
    EXPECT_FALSE(net_.cables_at(a[i].dst).empty());
    total += a[i].gbps;
  }
  EXPECT_NEAR(total, 40000.0, 1e-6);
  // A different seed draws a different matrix.
  const auto c = sampled_node_demands(net_, 1000, 40.0, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || c[i].src != a[i].src || c[i].dst != a[i].dst;
  }
  EXPECT_TRUE(any_diff);
  EXPECT_TRUE(sampled_node_demands(net_, 0, 40.0, 1).empty());
}

TEST(SampledNodeDemandsValidation, RejectsBadInput) {
  topo::InfrastructureNetwork lonely("lonely");
  lonely.add_node(
      {"solo", {0.0, 0.0}, "US", topo::NodeKind::kLandingPoint, true});
  try {
    sampled_node_demands(lonely, 10, 1.0, 7);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
  }
  topo::InfrastructureNetwork ok("two");
  const auto a = ok.add_node(
      {"a", {0.0, 0.0}, "US", topo::NodeKind::kLandingPoint, true});
  const auto b = ok.add_node(
      {"b", {1.0, 1.0}, "GB", topo::NodeKind::kLandingPoint, true});
  topo::Cable c;
  c.name = "ab";
  c.segments = {{a, b, 500.0}};
  ok.add_cable(std::move(c));
  try {
    sampled_node_demands(ok, 10, -1.0, 7);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.context().field, "total_offered_tbps");
  }
}

// Regression pin for the documented assign_capacity_aware tie caveat: with
// several *equal-length* shortest paths, the engine commits the whole
// demand to one of them (whichever the reused SSSP tree charged) instead
// of splitting — deterministically — and later demands spill onto the
// other path only once the first fills up.
TEST(CapacityAwareTies, EqualLengthDiamondPinsOnePathThenSpills) {
  topo::InfrastructureNetwork net("diamond");
  const auto s = net.add_node(
      {"s", {0.0, 0.0}, "US", topo::NodeKind::kLandingPoint, true});
  const auto a = net.add_node(
      {"a", {5.0, 5.0}, "US", topo::NodeKind::kLandingPoint, true});
  const auto b = net.add_node(
      {"b", {-5.0, 5.0}, "US", topo::NodeKind::kLandingPoint, true});
  const auto t = net.add_node(
      {"t", {0.0, 10.0}, "GB", topo::NodeKind::kLandingPoint, true});
  const auto add = [&](const char* name, topo::NodeId u, topo::NodeId v) {
    topo::Cable c;
    c.name = name;
    c.segments = {{u, v, 500.0}};
    return net.add_cable(std::move(c));
  };
  const auto sa = add("s-a", s, a);
  const auto at = add("a-t", a, t);
  const auto sb = add("s-b", s, b);
  const auto bt = add("b-t", b, t);
  const std::vector<bool> intact(net.cable_count(), false);

  // All four cables share one capacity (same kind, same length).
  const double cap =
      TrafficEngine(net, {{s, t, 1.0}}).assign_baseline().loads[sa]
          .capacity_gbps;
  ASSERT_GT(cap, 0.0);

  // One fitting demand: exactly ONE of the two equal-length paths carries
  // the whole volume, the other stays empty.
  const TrafficEngine engine(net, {{s, t, 100.0}});
  const AssignmentResult one = engine.assign_capacity_aware(intact);
  EXPECT_DOUBLE_EQ(one.delivered_gbps, 100.0);
  EXPECT_EQ(one.undeliverable_gbps, 0.0);
  const bool via_a =
      one.loads[sa].load_gbps > 0.0 && one.loads[at].load_gbps > 0.0;
  const bool via_b =
      one.loads[sb].load_gbps > 0.0 && one.loads[bt].load_gbps > 0.0;
  EXPECT_NE(via_a, via_b);  // one path, never a split
  const topo::CableId first = via_a ? sa : sb;
  const topo::CableId second = via_a ? at : bt;
  EXPECT_DOUBLE_EQ(one.loads[first].load_gbps, 100.0);
  EXPECT_DOUBLE_EQ(one.loads[second].load_gbps, 100.0);
  EXPECT_EQ(one.loads[via_a ? sb : sa].load_gbps, 0.0);
  EXPECT_EQ(one.loads[via_a ? bt : at].load_gbps, 0.0);

  // Deterministic: the same call charges the same path bit for bit.
  const AssignmentResult replay = engine.assign_capacity_aware(intact);
  for (std::size_t c = 0; c < one.loads.size(); ++c) {
    EXPECT_EQ(replay.loads[c].load_gbps, one.loads[c].load_gbps);
  }

  // Two path-filling demands: the second spills onto the other equal-length
  // path once the first is full.
  const TrafficEngine spill(net, {{s, t, cap}, {s, t, cap}});
  const AssignmentResult two = spill.assign_capacity_aware(intact);
  EXPECT_DOUBLE_EQ(two.delivered_gbps, 2.0 * cap);
  EXPECT_EQ(two.undeliverable_gbps, 0.0);
  for (const topo::CableId c : {sa, at, sb, bt}) {
    EXPECT_DOUBLE_EQ(two.loads[c].load_gbps, cap);
  }
  EXPECT_DOUBLE_EQ(two.max_utilization, 1.0);
  EXPECT_EQ(two.overloaded_cables, 0u);

  // A third demand finds both paths full and is blocked, not overloaded.
  const TrafficEngine jammed(net, {{s, t, cap}, {s, t, cap}, {s, t, cap}});
  const AssignmentResult three = jammed.assign_capacity_aware(intact);
  EXPECT_DOUBLE_EQ(three.delivered_gbps, 2.0 * cap);
  EXPECT_DOUBLE_EQ(three.undeliverable_gbps, cap);
  EXPECT_EQ(three.overloaded_cables, 0u);
}

TEST(RoutingDefault, GeneratedWorldBaselineMostlyDelivered) {
  const auto net = datasets::make_submarine_network({});
  const TrafficEngine engine(net, gravity_demands(net));
  const AssignmentResult r = engine.assign_baseline();
  EXPECT_GT(r.delivered_fraction(), 0.99);
  EXPECT_GT(r.loads.size(), 0u);
}

}  // namespace
}  // namespace solarnet::routing
