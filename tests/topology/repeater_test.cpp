#include "topology/repeater.h"

#include <gtest/gtest.h>

#include "geo/distance.h"

namespace solarnet::topo {
namespace {

TEST(RepeaterCount, ShortRunsNeedNone) {
  EXPECT_EQ(repeater_count(0.0, 150.0), 0u);
  EXPECT_EQ(repeater_count(149.9, 150.0), 0u);
  EXPECT_EQ(repeater_count(150.0, 150.0), 0u);
}

TEST(RepeaterCount, ScalesWithLength) {
  EXPECT_EQ(repeater_count(151.0, 150.0), 1u);
  EXPECT_EQ(repeater_count(450.0, 150.0), 3u);
  EXPECT_EQ(repeater_count(9000.0, 150.0), 60u);
  // The paper's reference design: 9,000 km at ~70 km spacing => ~130.
  EXPECT_NEAR(static_cast<double>(repeater_count(9000.0, 69.0)), 130.0, 2.0);
}

TEST(RepeaterCount, SpacingMatters) {
  EXPECT_EQ(repeater_count(1000.0, 50.0), 20u);
  EXPECT_EQ(repeater_count(1000.0, 100.0), 10u);
  EXPECT_EQ(repeater_count(1000.0, 150.0), 6u);
}

TEST(RepeaterCount, RejectsBadInput) {
  EXPECT_THROW(repeater_count(100.0, 0.0), std::invalid_argument);
  EXPECT_THROW(repeater_count(100.0, -1.0), std::invalid_argument);
  EXPECT_THROW(repeater_count(-5.0, 100.0), std::invalid_argument);
}

TEST(RepeaterCount, RejectsCountsBeyondSizeT) {
  // 1e304 repeaters: the cast to size_t would be undefined.
  EXPECT_THROW(repeater_count(10000.0, 1e-300), std::invalid_argument);
  EXPECT_EQ(repeater_count(10000.0, 10.0), 1000u);
}

TEST(CableRepeaterCount, SumsPerSegment) {
  Cable c;
  c.segments = {{0, 1, 140.0}, {1, 2, 320.0}};  // 0 + 2 repeaters
  EXPECT_EQ(cable_repeater_count(c, 150.0), 2u);
}

TEST(CableRepeaterCount, SegmentGranularityDiffersFromTotal) {
  // Two 100 km segments: no repeaters per segment even though total > 150.
  Cable c;
  c.segments = {{0, 1, 100.0}, {1, 2, 100.0}};
  EXPECT_EQ(cable_repeater_count(c, 150.0), 0u);
}

class RepeaterPositionTest : public ::testing::Test {
 protected:
  std::vector<Node> nodes_ = {
      {"A", {0.0, 0.0}, "", NodeKind::kLandingPoint, true},
      {"B", {0.0, 10.0}, "", NodeKind::kLandingPoint, true},  // ~1112 km
  };
};

TEST_F(RepeaterPositionTest, CountMatchesFormula) {
  Cable c;
  const double len = geo::haversine_km(nodes_[0].location, nodes_[1].location);
  c.segments = {{0, 1, len}};
  const auto reps = repeater_positions(c, 7, nodes_, 150.0);
  EXPECT_EQ(reps.size(), repeater_count(len, 150.0));
  for (const Repeater& r : reps) EXPECT_EQ(r.cable, 7u);
}

TEST_F(RepeaterPositionTest, PositionsLieOnPathInOrder) {
  Cable c;
  c.segments = {{0, 1, 1100.0}};
  const auto reps = repeater_positions(c, 0, nodes_, 150.0);
  ASSERT_GT(reps.size(), 1u);
  double prev_lon = 0.0;
  for (const Repeater& r : reps) {
    EXPECT_NEAR(r.location.lat_deg, 0.0, 1e-6);  // equatorial path
    EXPECT_GT(r.location.lon_deg, prev_lon);
    EXPECT_LT(r.location.lon_deg, 10.0);
    prev_lon = r.location.lon_deg;
  }
}

TEST_F(RepeaterPositionTest, ShortSegmentYieldsNone) {
  Cable c;
  c.segments = {{0, 1, 100.0}};
  EXPECT_TRUE(repeater_positions(c, 0, nodes_, 150.0).empty());
}

TEST_F(RepeaterPositionTest, BadNodeReferenceThrows) {
  Cable c;
  c.segments = {{0, 9, 500.0}};
  EXPECT_THROW(repeater_positions(c, 0, nodes_, 150.0), std::out_of_range);
}

TEST_F(RepeaterPositionTest, MultiSegmentAccumulates) {
  std::vector<Node> nodes = nodes_;
  nodes.push_back({"C", {0.0, 20.0}, "", NodeKind::kLandingPoint, true});
  Cable c;
  c.segments = {{0, 1, 1100.0}, {1, 2, 1100.0}};
  const auto reps = repeater_positions(c, 0, nodes, 150.0);
  EXPECT_EQ(reps.size(), 2 * repeater_count(1100.0, 150.0));
}

}  // namespace
}  // namespace solarnet::topo
