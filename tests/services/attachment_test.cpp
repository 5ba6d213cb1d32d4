// The attachment rule (services::nearest_connected_node) on toy networks,
// its exactness against the frozen linear scan of
// bench/reference/attachment.h on the three generated networks, and
// concurrent first use of a network's attachment index.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "geo/distance.h"
#include "reference/attachment.h"
#include "services/availability.h"
#include "util/rng.h"

namespace solarnet::services {
namespace {

// Toy networks around the point P = (0, 0). Nodes far from P (> 5000 km)
// serve as the other ends of cables, so a cable gives a node near P a
// degree without putting a second candidate in range.
class AttachmentRule : public ::testing::Test {
 protected:
  AttachmentRule() : net_("attach") {
    far_ = add_node("far", {60.0, 120.0});
    far2_ = add_node("far2", {-60.0, -120.0});
  }
  topo::NodeId add_node(const char* name, geo::GeoPoint p) {
    return net_.add_node({name, p, "", topo::NodeKind::kLandingPoint, true});
  }
  void add_cable(topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = std::to_string(net_.cable_count());
    c.segments = {{a, b, 0.0}};
    net_.add_cable(std::move(c));
  }
  // Gives `n` the cable degree `degree`, alternating the far ends.
  void give_degree(topo::NodeId n, int degree) {
    for (int i = 0; i < degree; ++i) add_cable(n, i % 2 == 0 ? far_ : far2_);
  }
  topo::NodeId attach(const geo::GeoPoint& p) const {
    return nearest_connected_node(net_, p);
  }

  static constexpr geo::GeoPoint kP{0.0, 0.0};
  topo::InfrastructureNetwork net_;
  topo::NodeId far_{}, far2_{};
};

TEST_F(AttachmentRule, HigherDegreeInRangeBeatsNearer) {
  const topo::NodeId near = add_node("near", geo::destination(kP, 90, 100));
  const topo::NodeId hub = add_node("hub", geo::destination(kP, 270, 1000));
  give_degree(near, 1);
  give_degree(hub, 2);
  EXPECT_EQ(attach(kP), hub);
}

TEST_F(AttachmentRule, EqualDegreePicksNearer) {
  const topo::NodeId a = add_node("a", geo::destination(kP, 0, 900));
  const topo::NodeId b = add_node("b", geo::destination(kP, 180, 300));
  give_degree(a, 2);
  give_degree(b, 2);
  EXPECT_EQ(attach(kP), b);
}

TEST_F(AttachmentRule, EqualDegreeAndDistancePickLowerId) {
  // Mirror images across the equator are at bit-equal haversine distances
  // from P. The lower id sits north, so the latitude-ordered index meets
  // the higher id first.
  const topo::NodeId north = add_node("north", {5.0, 0.0});
  const topo::NodeId south = add_node("south", {-5.0, 0.0});
  give_degree(north, 1);
  give_degree(south, 1);
  ASSERT_EQ(geo::haversine_km(kP, {5.0, 0.0}),
            geo::haversine_km(kP, {-5.0, 0.0}));
  ASSERT_LT(north, south);
  EXPECT_EQ(attach(kP), north);
}

TEST_F(AttachmentRule, NodeAtExactlyTheRadiusIsInRange) {
  const geo::GeoPoint edge = geo::destination(kP, 0, kAttachmentRadiusKm);
  ASSERT_EQ(geo::haversine_km(kP, edge), kAttachmentRadiusKm);
  const topo::NodeId near = add_node("near", geo::destination(kP, 90, 50));
  const topo::NodeId rim = add_node("rim", edge);
  give_degree(near, 1);
  give_degree(rim, 2);
  EXPECT_EQ(attach(kP), rim);
}

TEST_F(AttachmentRule, NodeJustBeyondTheRadiusIsOutOfRange) {
  const geo::GeoPoint beyond =
      geo::destination(kP, 0, kAttachmentRadiusKm + 0.01);
  ASSERT_GT(geo::haversine_km(kP, beyond), kAttachmentRadiusKm);
  const topo::NodeId near = add_node("near", geo::destination(kP, 90, 50));
  const topo::NodeId outside = add_node("outside", beyond);
  give_degree(near, 1);
  give_degree(outside, 3);
  EXPECT_EQ(attach(kP), near);
}

TEST_F(AttachmentRule, NothingInRangeFallsBackToNearest) {
  const topo::NodeId closer = add_node("closer", geo::destination(kP, 45, 2000));
  const topo::NodeId hub = add_node("hub", geo::destination(kP, 225, 3000));
  give_degree(closer, 1);
  give_degree(hub, 3);
  EXPECT_EQ(attach(kP), closer);
}

TEST_F(AttachmentRule, ZeroDegreeNodesAreNeverChosen) {
  add_node("dark-here", kP);
  add_node("dark-near", geo::destination(kP, 90, 10));
  const topo::NodeId lit = add_node("lit", geo::destination(kP, 0, 3000));
  give_degree(lit, 1);
  EXPECT_EQ(attach(kP), lit);
}

TEST(AttachmentRuleEmpty, NetworkWithoutCablesYieldsInvalidNode) {
  topo::InfrastructureNetwork empty("empty");
  EXPECT_EQ(nearest_connected_node(empty, {0.0, 0.0}), topo::kInvalidNode);
  topo::InfrastructureNetwork dark("dark");
  dark.add_node({"a", {0.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
  dark.add_node({"b", {1.0, 1.0}, "", topo::NodeKind::kLandingPoint, true});
  EXPECT_EQ(nearest_connected_node(dark, {0.0, 0.0}), topo::kInvalidNode);
}

TEST_F(AttachmentRule, AddCableRebuildsTheIndex) {
  const topo::NodeId near = add_node("near", geo::destination(kP, 90, 200));
  add_cable(far_, far2_);
  const topo::NodeId before = attach(kP);  // builds the index without `near`
  EXPECT_NE(before, near);
  give_degree(near, 1);  // `near` gains its first cable
  EXPECT_EQ(attach(kP), near);
}

TEST_F(AttachmentRule, CloneWithExtraCablesHasItsOwnIndex) {
  const topo::NodeId near = add_node("near", geo::destination(kP, 90, 200));
  add_cable(far_, far2_);
  const topo::NodeId base_pick = attach(kP);
  ASSERT_NE(base_pick, near);
  topo::Cable extra;
  extra.name = "extra";
  extra.segments = {{near, far_, 0.0}};
  const topo::InfrastructureNetwork copy =
      net_.clone_with_extra_cables("+extra", {extra});
  EXPECT_EQ(nearest_connected_node(copy, kP), near);
  EXPECT_EQ(attach(kP), base_pick);  // the base index is untouched
}

// --- exactness against the frozen scan --------------------------------------

std::vector<geo::GeoPoint> fixed_points() {
  std::vector<geo::GeoPoint> points;
  for (const datasets::DnsRootInstance& r : datasets::make_dns_dataset({})) {
    points.push_back(r.location);
  }
  for (const auto op : {datasets::DataCenterOperator::kGoogle,
                        datasets::DataCenterOperator::kFacebook}) {
    for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
      points.push_back(dc.location);
    }
  }
  for (const auto& [continent, anchor] : reference::continent_anchors()) {
    points.push_back(anchor);
  }
  return points;
}

// Seeded uniform points on the sphere, the poles and both antimeridian
// longitudes at several latitudes, points exactly kAttachmentRadiusKm from
// nodes (as geo::destination places them) and just inside and outside that
// radius, latitudes beyond +-90 (haversine treats (100, x) as (80, x+180)),
// and non-finite coordinates.
std::vector<geo::GeoPoint> probe_points(const topo::InfrastructureNetwork& net,
                                        std::uint64_t seed,
                                        std::size_t random_count) {
  std::vector<geo::GeoPoint> points;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    const double z = rng.uniform(-1.0, 1.0);
    points.push_back({geo::rad_to_deg(std::asin(z)),
                      rng.uniform(-180.0, 180.0)});
  }
  for (const double lon : {-180.0, -90.0, 0.0, 45.0, 179.999, 180.0}) {
    points.push_back({90.0, lon});
    points.push_back({-90.0, lon});
  }
  for (const double lat : {-75.0, -40.0, -10.0, 0.0, 20.0, 55.0, 80.0}) {
    points.push_back({lat, 180.0});
    points.push_back({lat, -180.0});
  }
  const std::size_t stride = std::max<std::size_t>(1, net.node_count() / 400);
  for (topo::NodeId n = 0; n < net.node_count(); n += stride) {
    const geo::GeoPoint at = net.node(n).location;
    const double bearing = rng.uniform(0.0, 360.0);
    for (const double km : {kAttachmentRadiusKm, kAttachmentRadiusKm - 1e-6,
                            kAttachmentRadiusKm + 1e-6}) {
      points.push_back(geo::destination(at, bearing, km));
    }
  }
  for (const double lat : {95.0, 100.0, 110.0, 120.0, -100.0, -110.0}) {
    for (const double lon : {-160.0, -100.0, -20.0, 0.0, 60.0, 150.0}) {
      points.push_back({lat, lon});
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  points.push_back({nan, 0.0});
  points.push_back({0.0, nan});
  points.push_back({inf, 10.0});
  points.push_back({10.0, -inf});
  return points;
}

void expect_matches_reference(const topo::InfrastructureNetwork& net,
                              const std::vector<geo::GeoPoint>& points) {
  std::size_t mismatches = 0;
  for (const geo::GeoPoint& p : points) {
    const topo::NodeId want = reference::nearest_connected_node(net, p);
    const topo::NodeId got = nearest_connected_node(net, p);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << net.name() << ": (" << p.lat_deg << ", " << p.lon_deg
                    << ") attached to " << got << ", reference " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << net.name() << ", " << points.size()
                            << " points";
}

TEST(AttachmentExactness, DatasetPointsMatchFrozenScanOnEveryNetwork) {
  const std::vector<geo::GeoPoint> points = fixed_points();
  ASSERT_GT(points.size(), 1076u);
  expect_matches_reference(datasets::make_submarine_network({}), points);
  expect_matches_reference(datasets::make_intertubes_network({}), points);
  expect_matches_reference(datasets::make_itu_network({}), points);
}

TEST(AttachmentExactness, ProbePointsMatchFrozenScanOnEveryNetwork) {
  // 10,500 seeded random points in all (fewer on the 11k-node ITU network,
  // where every reference lookup scans every node), plus the edge cases
  // of probe_points.
  const auto submarine = datasets::make_submarine_network({});
  expect_matches_reference(submarine, probe_points(submarine, 2021, 5000));
  const auto intertubes = datasets::make_intertubes_network({});
  expect_matches_reference(intertubes, probe_points(intertubes, 2022, 3500));
  const auto itu = datasets::make_itu_network({});
  expect_matches_reference(itu, probe_points(itu, 2023, 2000));
}

// --- concurrent first use ---------------------------------------------------

TEST(AttachmentConcurrency, FourThreadsBuildEvaluatorsOnOneColdNetwork) {
  std::vector<geo::GeoPoint> sites;
  for (const datasets::DataCenter& dc :
       datasets::datacenters_of(datasets::DataCenterOperator::kGoogle)) {
    sites.push_back(dc.location);
  }
  const ServiceSpec spec = service_from_datacenters("google", sites, 2);
  // A fresh network: the four evaluators race to build its CSR and
  // attachment index.
  const topo::InfrastructureNetwork net = datasets::make_submarine_network({});
  util::Bitset dead(net.cable_count());
  for (std::size_t c = 0; c < net.cable_count(); c += 3) dead.set(c);

  constexpr std::size_t kThreads = 4;
  std::vector<AvailabilityReport> reports(kThreads);
  std::vector<std::vector<topo::NodeId>> attached(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ServiceEvaluator evaluator(net, spec);
      reports[t] = evaluator.evaluate(dead);
      for (const geo::GeoPoint& p : sites) {
        attached[t].push_back(nearest_connected_node(net, p));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<topo::NodeId> want;
  for (const geo::GeoPoint& p : sites) {
    want.push_back(reference::nearest_connected_node(net, p));
  }
  ServiceEvaluator serial(net, spec);
  const AvailabilityReport serial_report = serial.evaluate(dead);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(attached[t], want) << "thread " << t;
    EXPECT_EQ(reports[t].read_availability, serial_report.read_availability);
    EXPECT_EQ(reports[t].write_availability,
              serial_report.write_availability);
  }
}

}  // namespace
}  // namespace solarnet::services
