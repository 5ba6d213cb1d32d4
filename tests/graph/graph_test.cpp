#include "graph/graph.h"

#include <gtest/gtest.h>

namespace solarnet::graph {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddVerticesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.vertex_count(), 3u);
  const EdgeId e = g.add_edge(0, 1, 5.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 5.0);
}

TEST(Graph, AddVertexReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_vertex(), 0u);
  EXPECT_EQ(g.add_vertex(), 1u);
  EXPECT_EQ(g.vertex_count(), 2u);
}

TEST(Graph, IncidenceIsSymmetric) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2);
  ASSERT_EQ(g.incident(0).size(), 1u);
  ASSERT_EQ(g.incident(2).size(), 1u);
  EXPECT_EQ(g.incident(0)[0].neighbor, 2u);
  EXPECT_EQ(g.incident(0)[0].edge, e);
  EXPECT_EQ(g.incident(2)[0].neighbor, 0u);
  EXPECT_TRUE(g.incident(1).empty());
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, SelfLoopCountsOnce) {
  Graph g(1);
  g.add_edge(0, 0);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RejectsBadInput) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.edge(99), std::out_of_range);
  EXPECT_THROW(g.incident(99), std::out_of_range);
}

TEST(AliveMask, AllAliveMatchesGraph) {
  Graph g(3);
  g.add_edge(0, 1);
  const AliveMask mask = AliveMask::all_alive(g);
  EXPECT_EQ(mask.vertex_alive.size(), 3u);
  EXPECT_EQ(mask.edge_alive.size(), 1u);
}

}  // namespace
}  // namespace solarnet::graph
