#include "graph/traversal.h"

#include <gtest/gtest.h>

namespace solarnet::graph {
namespace {

util::Bitset reach_of(const Graph& g, const AliveMask& mask,
                      VertexId source) {
  TraversalScratch scratch;
  util::Bitset out;
  reachable_from(Csr(g), mask, source, scratch, out);
  return out;
}

std::vector<std::uint32_t> hops_of(const Graph& g, const AliveMask& mask,
                                   VertexId source) {
  TraversalScratch scratch;
  std::vector<std::uint32_t> out;
  bfs_hops(Csr(g), mask, source, scratch, out);
  return out;
}

// 0 --1-- 1 --1-- 2
//  \------5------/      (direct heavy edge 0-2)
Graph weighted_triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  return g;
}

TEST(Reachability, BasicFlood) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto reach = reach_of(g, AliveMask::all_alive(g), 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(Reachability, DeadSourceReachesNothing) {
  Graph g(2);
  g.add_edge(0, 1);
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(0);
  const auto reach = reach_of(g, mask, 0);
  EXPECT_FALSE(reach[0]);
  EXPECT_FALSE(reach[1]);
}

TEST(Reachability, MaskBlocksEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  const EdgeId e = g.add_edge(1, 2);
  AliveMask mask = AliveMask::all_alive(g);
  mask.edge_alive.reset(e);
  const auto reach = reach_of(g, mask, 0);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
}

TEST(BfsHops, CountsEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);  // shortcut
  const auto hops = hops_of(g, AliveMask::all_alive(g), 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 1u);
  EXPECT_EQ(hops[3], kUnreachableHops);
}

TEST(Dijkstra, PrefersLightPath) {
  const Graph g = weighted_triangle();
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 2.0);  // via vertex 1, not the 5.0 edge
  EXPECT_EQ(sp.parent[2], 1u);
  EXPECT_EQ(sp.parent[1], 0u);
  EXPECT_EQ(sp.parent[0], kInvalidVertex);
}

TEST(Dijkstra, DirectWhenCheaper) {
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(0, 2, 5.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 5.0);
  EXPECT_EQ(sp.parent[2], 0u);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_EQ(sp.distance[2], kUnreachable);
  EXPECT_EQ(sp.parent[2], kInvalidVertex);
}

TEST(Dijkstra, MaskChangesRoute) {
  const Graph g = weighted_triangle();
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(1);  // force the heavy direct edge
  const ShortestPaths sp = dijkstra(g, mask, 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 5.0);
}

TEST(Dijkstra, SourceProperties) {
  const Graph g = weighted_triangle();
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 1);
  EXPECT_DOUBLE_EQ(sp.distance[1], 0.0);
  EXPECT_EQ(sp.parent[1], kInvalidVertex);
}

TEST(Dijkstra, ThrowsOnBadSource) {
  const Graph g = weighted_triangle();
  EXPECT_THROW(dijkstra(g, AliveMask::all_alive(g), 99),
               std::invalid_argument);
}

TEST(Dijkstra, DeadSourceHasNoDistances) {
  const Graph g = weighted_triangle();
  AliveMask mask = AliveMask::all_alive(g);
  mask.vertex_alive.reset(0);
  const ShortestPaths sp = dijkstra(g, mask, 0);
  EXPECT_EQ(sp.distance[0], kUnreachable);
  EXPECT_EQ(sp.distance[1], kUnreachable);
}

TEST(Dijkstra, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 0.0);
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 0.0);
}

TEST(Dijkstra, LargeLineGraph) {
  constexpr std::size_t kN = 10000;
  Graph g(kN);
  for (std::size_t i = 1; i < kN; ++i) {
    g.add_edge(static_cast<VertexId>(i - 1), static_cast<VertexId>(i), 1.0);
  }
  const ShortestPaths sp = dijkstra(g, AliveMask::all_alive(g), 0);
  EXPECT_DOUBLE_EQ(sp.distance[kN - 1], static_cast<double>(kN - 1));
}

}  // namespace
}  // namespace solarnet::graph
