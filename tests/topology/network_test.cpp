#include "topology/network.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "geo/distance.h"

namespace solarnet::topo {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  // Four landing points; three cables:
  //   C0: A-B, C1: B-C (two segments via D? no — single), C2: A-C
  // D is cable-less.
  void SetUp() override {
    a_ = net_.add_node({"A", {0.0, 0.0}, "US", NodeKind::kLandingPoint, true});
    b_ = net_.add_node({"B", {10.0, 0.0}, "US", NodeKind::kLandingPoint, true});
    c_ = net_.add_node({"C", {50.0, 0.0}, "GB", NodeKind::kLandingPoint, true});
    d_ = net_.add_node({"D", {-5.0, 5.0}, "BR", NodeKind::kCity, true});
    Cable c0;
    c0.name = "C0";
    c0.segments = {{a_, b_, 1200.0}};
    c0_ = net_.add_cable(std::move(c0));
    Cable c1;
    c1.name = "C1";
    c1.segments = {{b_, c_, 4500.0}};
    c1_ = net_.add_cable(std::move(c1));
    Cable c2;
    c2.name = "C2";
    c2.segments = {{a_, c_, 5700.0}};
    c2_ = net_.add_cable(std::move(c2));
  }

  InfrastructureNetwork net_{"test"};
  NodeId a_{}, b_{}, c_{}, d_{};
  CableId c0_{}, c1_{}, c2_{};
};

TEST_F(NetworkTest, CountsAndLookup) {
  EXPECT_EQ(net_.node_count(), 4u);
  EXPECT_EQ(net_.cable_count(), 3u);
  EXPECT_EQ(net_.find_node("B").value(), b_);
  EXPECT_FALSE(net_.find_node("nope").has_value());
  EXPECT_EQ(net_.node(a_).name, "A");
  EXPECT_EQ(net_.cable(c1_).name, "C1");
}

TEST_F(NetworkTest, DuplicateNodeNameRejected) {
  EXPECT_THROW(
      net_.add_node({"A", {1.0, 1.0}, "", NodeKind::kCity, true}),
      std::invalid_argument);
}

TEST_F(NetworkTest, EmptyNodeNameRejected) {
  EXPECT_THROW(net_.add_node({"", {1.0, 1.0}, "", NodeKind::kCity, true}),
               std::invalid_argument);
}

TEST_F(NetworkTest, InvalidCoordinateRejected) {
  EXPECT_THROW(net_.add_node({"X", {95.0, 0.0}, "", NodeKind::kCity, true}),
               std::invalid_argument);
}

TEST_F(NetworkTest, CableValidation) {
  EXPECT_THROW(net_.add_cable(Cable{}), std::invalid_argument);  // no segments
  Cable bad;
  bad.name = "bad";
  bad.segments = {{a_, 99, 1.0}};
  EXPECT_THROW(net_.add_cable(std::move(bad)), std::out_of_range);
  Cable neg;
  neg.name = "neg";
  neg.segments = {{a_, b_, -5.0}};
  EXPECT_THROW(net_.add_cable(std::move(neg)), std::invalid_argument);
}

TEST_F(NetworkTest, ZeroLengthSegmentsGetGreatCircle) {
  Cable c;
  c.name = "auto-length";
  c.segments = {{a_, b_, 0.0}};
  const CableId id = net_.add_cable(std::move(c));
  const double expected =
      geo::haversine_km(net_.node(a_).location, net_.node(b_).location);
  EXPECT_NEAR(net_.cable(id).segments[0].length_km, expected, 1e-9);
}

TEST_F(NetworkTest, CablesAtNode) {
  EXPECT_EQ(net_.cables_at(a_).size(), 2u);
  EXPECT_EQ(net_.cables_at(b_).size(), 2u);
  EXPECT_TRUE(net_.cables_at(d_).empty());
}

TEST_F(NetworkTest, GraphViewMatchesTopology) {
  EXPECT_EQ(net_.graph().vertex_count(), 4u);
  EXPECT_EQ(net_.graph().edge_count(), 3u);
  EXPECT_EQ(net_.cable_of_edge(0), c0_);
  EXPECT_EQ(net_.edges_of_cable(c1_).size(), 1u);
  EXPECT_THROW(net_.cable_of_edge(99), std::out_of_range);
}

TEST_F(NetworkTest, MaskForFailuresKillsSegments) {
  std::vector<bool> dead(3, false);
  dead[c0_] = true;
  const auto mask = net_.mask_for_failures(dead);
  EXPECT_FALSE(mask.edge_alive[net_.edges_of_cable(c0_)[0]]);
  EXPECT_TRUE(mask.edge_alive[net_.edges_of_cable(c1_)[0]]);
  EXPECT_THROW(net_.mask_for_failures({true}), std::invalid_argument);
}

TEST_F(NetworkTest, UnreachableNodesPaperDefinition) {
  // Kill C0 and C2: A loses both its cables; B and C still have C1.
  std::vector<bool> dead = {true, false, true};
  const auto unreachable = net_.unreachable_nodes(dead);
  ASSERT_EQ(unreachable.size(), 1u);
  EXPECT_EQ(unreachable[0], a_);
}

TEST_F(NetworkTest, UnreachableNodesInPlaceOverloadReusesBuffer) {
  std::vector<bool> dead = {true, false, true};
  std::vector<NodeId> out = {99, 98, 97};  // stale contents must be cleared
  net_.unreachable_nodes(dead, out);
  EXPECT_EQ(out, net_.unreachable_nodes(dead));
  // A second, different query reuses the same buffer.
  std::vector<bool> all_dead = {true, true, true};
  net_.unreachable_nodes(all_dead, out);
  EXPECT_EQ(out, net_.unreachable_nodes(all_dead));
  EXPECT_THROW(net_.unreachable_nodes(std::vector<bool>{true}, out),
               std::invalid_argument);
}

TEST_F(NetworkTest, NodeWithoutCablesNeverUnreachable) {
  std::vector<bool> all_dead = {true, true, true};
  const auto unreachable = net_.unreachable_nodes(all_dead);
  EXPECT_EQ(unreachable.size(), 3u);  // A, B, C — never the cable-less D
}

TEST_F(NetworkTest, ConnectedNodeCount) {
  EXPECT_EQ(net_.connected_node_count(), 3u);
}

TEST_F(NetworkTest, NodeLatitudesRespectAuthoritativeFlag) {
  EXPECT_EQ(net_.node_latitudes().size(), 4u);
  net_.add_node({"E", {20.0, 20.0}, "", NodeKind::kCity, false});
  EXPECT_EQ(net_.node_latitudes().size(), 4u);  // E excluded
}

TEST_F(NetworkTest, CableLengthsRespectLengthKnown) {
  EXPECT_EQ(net_.cable_lengths().size(), 3u);
  net_.set_cable_length_known(c0_, false);
  EXPECT_EQ(net_.cable_lengths().size(), 2u);
  EXPECT_THROW(net_.set_cable_length_known(99, true), std::out_of_range);
}

TEST_F(NetworkTest, CableMaxAbsLatitude) {
  EXPECT_DOUBLE_EQ(net_.cable_max_abs_latitude(c0_), 10.0);
  EXPECT_DOUBLE_EQ(net_.cable_max_abs_latitude(c1_), 50.0);
  EXPECT_DOUBLE_EQ(net_.cable_max_abs_latitude(c2_), 50.0);
}

TEST_F(NetworkTest, SouthernLatitudesCountAbsolutely) {
  const NodeId s = net_.add_node(
      {"S", {-55.0, 0.0}, "CL", NodeKind::kLandingPoint, true});
  Cable c;
  c.name = "south";
  c.segments = {{a_, s, 6000.0}};
  const CableId id = net_.add_cable(std::move(c));
  EXPECT_DOUBLE_EQ(net_.cable_max_abs_latitude(id), 55.0);
}

TEST_F(NetworkTest, MultiSegmentCableSharesFate) {
  const NodeId e = net_.add_node(
      {"E2", {30.0, 10.0}, "", NodeKind::kLandingPoint, true});
  Cable c;
  c.name = "multi";
  c.segments = {{a_, e, 3000.0}, {e, c_, 2500.0}};
  const CableId id = net_.add_cable(std::move(c));
  EXPECT_EQ(net_.edges_of_cable(id).size(), 2u);
  std::vector<bool> dead(net_.cable_count(), false);
  dead[id] = true;
  const auto mask = net_.mask_for_failures(dead);
  for (auto edge : net_.edges_of_cable(id)) {
    EXPECT_FALSE(mask.edge_alive[edge]);
  }
}

TEST_F(NetworkTest, CloneWithExtraCablesPreservesIds) {
  net_.set_cable_length_known(c1_, false);
  const InfrastructureNetwork copy = net_.clone_with_extra_cables("+x");
  EXPECT_EQ(copy.name(), net_.name() + "+x");
  ASSERT_EQ(copy.node_count(), net_.node_count());
  ASSERT_EQ(copy.cable_count(), net_.cable_count());
  for (NodeId n = 0; n < net_.node_count(); ++n) {
    EXPECT_EQ(copy.node(n).name, net_.node(n).name);
    EXPECT_EQ(copy.node(n).country_code, net_.node(n).country_code);
  }
  for (CableId c = 0; c < net_.cable_count(); ++c) {
    EXPECT_EQ(copy.cable(c).name, net_.cable(c).name);
    EXPECT_EQ(copy.cable(c).length_known, net_.cable(c).length_known);
    EXPECT_DOUBLE_EQ(copy.cable(c).total_length_km(),
                     net_.cable(c).total_length_km());
  }
  EXPECT_FALSE(copy.cable(c1_).length_known);
}

TEST_F(NetworkTest, CloneAppendsExtraCablesWithoutTouchingBase) {
  Cable extra;
  extra.name = "extra";
  extra.segments = {{b_, d_, 800.0}};
  std::vector<Cable> extras;
  extras.push_back(std::move(extra));
  const InfrastructureNetwork copy =
      net_.clone_with_extra_cables("+candidate", std::move(extras));
  ASSERT_EQ(copy.cable_count(), net_.cable_count() + 1);
  EXPECT_EQ(net_.cable_count(), 3u);  // base untouched
  const CableId added = copy.cable_count() - 1;
  EXPECT_EQ(copy.cable(added).name, "extra");
  EXPECT_EQ(copy.cables_at(d_).size(), 1u);
  EXPECT_EQ(net_.cables_at(d_).size(), 0u);
  // The copy's CSR is built fresh (no stale shared cache): the new edge is
  // present in the copy only.
  EXPECT_EQ(copy.csr().edge_count(), net_.csr().edge_count() + 1);
}

TEST_F(NetworkTest, AttachmentIndexHoldsCableBearingNodesByLatitude) {
  // D has no cable; A (0), B (10) and C (50) are ordered by latitude.
  const AttachmentIndex& index = net_.attachment_index();
  ASSERT_EQ(index.by_latitude.size(), 3u);
  const NodeId want[] = {a_, b_, c_};
  for (std::size_t i = 0; i < 3; ++i) {
    const AttachmentIndex::Entry& e = index.by_latitude[i];
    EXPECT_EQ(e.id, want[i]);
    EXPECT_EQ(e.location, net_.node(e.id).location);
    const geo::Vec3 u = geo::to_unit_vector(e.location);
    EXPECT_EQ(e.unit.x, u.x);
    EXPECT_EQ(e.unit.y, u.y);
    EXPECT_EQ(e.unit.z, u.z);
  }
  EXPECT_EQ(&net_.attachment_index(), &index);  // cached
}

TEST_F(NetworkTest, AttachmentIndexBreaksLatitudeTiesById) {
  const NodeId e = net_.add_node(
      {"E", {10.0, 30.0}, "US", NodeKind::kLandingPoint, true});
  Cable c3;
  c3.name = "C3";
  c3.segments = {{e, c_, 0.0}};
  net_.add_cable(std::move(c3));
  const AttachmentIndex& index = net_.attachment_index();
  ASSERT_EQ(index.by_latitude.size(), 4u);
  EXPECT_EQ(index.by_latitude[1].id, b_);  // B and E share latitude 10
  EXPECT_EQ(index.by_latitude[2].id, e);
}

TEST_F(NetworkTest, AttachmentIndexLatitudeBandIsInclusive) {
  const AttachmentIndex& index = net_.attachment_index();
  auto ids = [](std::span<const AttachmentIndex::Entry> band) {
    std::vector<NodeId> out;
    for (const AttachmentIndex::Entry& e : band) out.push_back(e.id);
    return out;
  };
  EXPECT_EQ(ids(index.latitude_band(0.0, 10.0)), (std::vector<NodeId>{a_, b_}));
  EXPECT_EQ(ids(index.latitude_band(0.5, 49.5)), (std::vector<NodeId>{b_}));
  EXPECT_EQ(ids(index.latitude_band(-90.0, 90.0)),
            (std::vector<NodeId>{a_, b_, c_}));
  EXPECT_TRUE(index.latitude_band(60.0, 90.0).empty());
  EXPECT_TRUE(index.latitude_band(20.0, 10.0).empty());
}

TEST_F(NetworkTest, AttachmentIndexFollowsMutationAndCopies) {
  EXPECT_EQ(net_.attachment_index().by_latitude.size(), 3u);
  Cable to_d;
  to_d.name = "to-D";
  to_d.segments = {{a_, d_, 0.0}};
  net_.add_cable(std::move(to_d));  // D gains its first cable
  const AttachmentIndex& index = net_.attachment_index();
  ASSERT_EQ(index.by_latitude.size(), 4u);
  EXPECT_EQ(index.by_latitude.front().id, d_);  // latitude -5

  const InfrastructureNetwork copy = net_;
  EXPECT_NE(&copy.attachment_index(), &index);  // rebuilt, not shared
  EXPECT_EQ(copy.attachment_index().by_latitude.size(), 4u);
}

TEST_F(NetworkTest, CloneValidatesExtraCables) {
  Cable bad;
  bad.name = "bad";
  bad.segments = {{a_, static_cast<NodeId>(99), 500.0}};
  std::vector<Cable> extras;
  extras.push_back(std::move(bad));
  EXPECT_THROW(net_.clone_with_extra_cables("+bad", std::move(extras)),
               std::out_of_range);
}

}  // namespace
}  // namespace solarnet::topo
