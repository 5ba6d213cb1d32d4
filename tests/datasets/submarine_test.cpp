#include "datasets/submarine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/cities.h"
#include "topology/repeater.h"
#include "util/stats.h"

namespace solarnet::datasets {
namespace {

const topo::InfrastructureNetwork& default_net() {
  static const topo::InfrastructureNetwork net = make_submarine_network({});
  return net;
}

TEST(AnchorCables, AllStopsResolveToCities) {
  for (const AnchorCable& a : anchor_cables()) {
    EXPECT_GE(a.stops.size(), 2u) << a.name;
    for (const std::string& stop : a.stops) {
      EXPECT_NO_THROW(city(stop)) << a.name << " stop " << stop;
    }
    for (const auto& [from, to] : a.branches) {
      EXPECT_NO_THROW(city(from)) << a.name;
      EXPECT_NO_THROW(city(to)) << a.name;
    }
  }
}

TEST(AnchorCables, NamesUnique) {
  std::vector<std::string> names;
  for (const AnchorCable& a : anchor_cables()) names.push_back(a.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(AnchorCables, IncludesPaperNamedSystems) {
  // Systems the paper references explicitly: EllaLink (6,200 km Brazil-
  // Portugal), the ~9,833 km Florida-Portugal/Spain cable, Equiano with
  // branching units, and the longest system at 39,000 km.
  bool ella = false, columbus = false, equiano = false, smw3 = false;
  for (const AnchorCable& a : anchor_cables()) {
    if (a.name == "EllaLink") {
      ella = true;
      EXPECT_NEAR(a.stated_length_km, 6200.0, 1.0);
    }
    if (a.name == "Columbus-III") {
      columbus = true;
      EXPECT_NEAR(a.stated_length_km, 9833.0, 1.0);
    }
    if (a.name == "Equiano") {
      equiano = true;
      EXPECT_FALSE(a.branches.empty());
    }
    if (a.name == "SEA-ME-WE-3") {
      smw3 = true;
      EXPECT_NEAR(a.stated_length_km, 39000.0, 1.0);
    }
  }
  EXPECT_TRUE(ella);
  EXPECT_TRUE(columbus);
  EXPECT_TRUE(equiano);
  EXPECT_TRUE(smw3);
}

TEST(SubmarineNetwork, MatchesPaperCounts) {
  const auto& net = default_net();
  // TeleGeography: 470 cables, 1241 landing points, 441 with lengths.
  EXPECT_EQ(net.cable_count(), 470u);
  EXPECT_NEAR(static_cast<double>(net.node_count()), 1241.0, 150.0);
  EXPECT_EQ(net.cable_lengths().size(), 441u);
}

TEST(SubmarineNetwork, LengthDistributionMatchesPaper) {
  auto lengths = default_net().cable_lengths();
  std::sort(lengths.begin(), lengths.end());
  // Paper: median 775 km, p99 28,000 km, max 39,000 km.
  EXPECT_NEAR(util::quantile(lengths, 0.5), 775.0, 350.0);
  EXPECT_NEAR(util::quantile(lengths, 0.99), 28000.0, 6000.0);
  EXPECT_NEAR(lengths.back(), 39000.0, 500.0);
}

TEST(SubmarineNetwork, RepeaterStatisticsMatchPaper) {
  const auto& net = default_net();
  // Paper: 82/441 cables need no repeater at 150 km; average 22.3
  // repeaters per cable.
  std::size_t norep = 0;
  std::size_t total = 0;
  for (const topo::Cable& c : net.cables()) {
    const std::size_t r = topo::cable_repeater_count(c, 150.0);
    if (r == 0) ++norep;
    total += r;
  }
  EXPECT_NEAR(static_cast<double>(norep), 82.0, 45.0);
  EXPECT_NEAR(static_cast<double>(total) /
                  static_cast<double>(net.cable_count()),
              22.3, 6.0);
}

TEST(SubmarineNetwork, LatitudeSkewMatchesPaper) {
  // Paper: 31% of submarine endpoints above |40 deg|.
  const auto lats = default_net().node_latitudes();
  std::size_t above = 0;
  for (double lat : lats) {
    if (std::abs(lat) > 40.0) ++above;
  }
  const double frac = static_cast<double>(above) /
                      static_cast<double>(lats.size());
  EXPECT_GT(frac, 0.24);
  EXPECT_LT(frac, 0.38);
}

TEST(SubmarineNetwork, DeterministicForSeed) {
  const auto n1 = make_submarine_network({});
  const auto n2 = make_submarine_network({});
  ASSERT_EQ(n1.node_count(), n2.node_count());
  ASSERT_EQ(n1.cable_count(), n2.cable_count());
  for (topo::NodeId i = 0; i < n1.node_count(); ++i) {
    EXPECT_EQ(n1.node(i).name, n2.node(i).name);
    EXPECT_DOUBLE_EQ(n1.node(i).location.lat_deg, n2.node(i).location.lat_deg);
  }
}

TEST(SubmarineNetwork, DifferentSeedsDiffer) {
  SubmarineConfig cfg;
  cfg.seed = 999;
  const auto other = make_submarine_network(cfg);
  // Same counts (calibration), different synthetic layout.
  EXPECT_EQ(other.cable_count(), default_net().cable_count());
  bool any_diff = false;
  const std::size_t n = std::min(other.node_count(), default_net().node_count());
  for (topo::NodeId i = 0; i < n && !any_diff; ++i) {
    any_diff = other.node(i).name != default_net().node(i).name ||
               other.node(i).location.lat_deg !=
                   default_net().node(i).location.lat_deg;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SubmarineNetwork, PaperNarrativeStructure) {
  const auto& net = default_net();
  // Shanghai connects only to very long cables (>= 28,000 km) — the
  // property behind "Shanghai loses all its long-distance connectivity".
  const auto shanghai = net.find_node("Shanghai");
  ASSERT_TRUE(shanghai.has_value());
  for (topo::CableId c : net.cables_at(*shanghai)) {
    EXPECT_GE(net.cable(c).total_length_km(), 27000.0)
        << net.cable(c).name;
  }
  // Singapore is a hub with many cables.
  const auto singapore = net.find_node("Singapore");
  ASSERT_TRUE(singapore.has_value());
  EXPECT_GE(net.cables_at(*singapore).size(), 6u);
}

TEST(SubmarineNetwork, ConfigurableSize) {
  SubmarineConfig cfg;
  cfg.total_cables = 150;
  cfg.target_landing_points = 400;
  cfg.cables_without_length = 5;
  const auto net = make_submarine_network(cfg);
  EXPECT_EQ(net.cable_count(), 150u);
  EXPECT_EQ(net.cable_lengths().size(), 145u);
}

TEST(SubmarineNetwork, AllCablesAreSubmarineKind) {
  for (const topo::Cable& c : default_net().cables()) {
    EXPECT_EQ(c.kind, topo::CableKind::kSubmarine);
  }
}

TEST(SubmarineNetwork, SegmentsHavePositiveLengths) {
  for (const topo::Cable& c : default_net().cables()) {
    for (const topo::CableSegment& s : c.segments) {
      EXPECT_GT(s.length_km, 0.0) << c.name;
    }
  }
}

}  // namespace
}  // namespace solarnet::datasets
